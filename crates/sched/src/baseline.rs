//! The no-redundancy baseline the paper's Section 1 argues against.
//!
//! "Given the architecture illustrated in Figure 1, a disk failure does
//! not result in data loss … However, a disk failure can result in
//! interruption of requests in progress. … a single disk failure can
//! cause multiple hiccups in the display of many objects. These hiccups
//! will repeat at regular intervals each time an object being displayed
//! needs data from the failed disk. … Therefore, without some form of
//! fault tolerance, such a system is not likely to be acceptable."
//!
//! [`BaselineScheduler`] is that strawman: simple striping over **all**
//! disks with no parity at all (`k = k' = 1`, like the Non-clustered
//! scheme's normal mode, but with nothing to fall back on). Every block
//! on a failed disk is a hiccup, repeating every rotation until repair —
//! the quantitative foil for every scheme in the comparison benches.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{book_backed_methods, SlotRule, Stream, StreamBook, StreamId};
use crate::traits::{FailureReport, PlanStability, SchemeKind, SchemeScheduler};
use mms_buffer::{BufferPool, OwnerId};
use mms_disk::DiskId;
use mms_layout::{BlockAddr, Catalog, ClusteredLayout, Layout};
use std::collections::BTreeMap;

/// The unprotected striped server (no parity reads, no reconstruction,
/// no degraded mode — failures simply punch holes in delivery).
///
/// Uses the same clustered layout as SR/SG/NC so comparisons are
/// apples-to-apples; the dedicated parity disks exist on the layout but
/// are never read, exactly as they would be absent in a truly parity-free
/// layout (the data-disk schedule is identical either way).
#[derive(Debug)]
pub struct BaselineScheduler {
    config: CycleConfig,
    /// One block per cycle, so a group is read over `bpg` cycles; a
    /// stream's slot is returned with its last read.
    book: StreamBook<ClusteredLayout, ()>,
    /// Failed disks, each with the first cycle whose reads it missed.
    failed_disks: BTreeMap<DiskId, u64>,
    /// Streams whose read in the cycle before a repair was skipped on
    /// the repaired disk: that block is still lost at this cycle's
    /// delivery.
    unread: Vec<StreamId>,
    buffers: BufferPool,
    /// Reusable per-cycle id snapshot (plan_cycle_into must not allocate).
    ids_scratch: Vec<StreamId>,
}

impl BaselineScheduler {
    /// Build over a populated catalog; requires `k = k' = 1`.
    ///
    /// # Panics
    /// Panics unless `k = k' = 1`.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        assert_eq!(config.k, 1, "baseline uses k = 1");
        assert_eq!(config.k_prime, 1, "baseline uses k' = 1");
        let bpg = u64::from(catalog.layout().blocks_per_group());
        BaselineScheduler {
            book: StreamBook::new(
                catalog,
                bpg,
                config.slots_per_disk(),
                SlotRule::UntilLastRead,
            ),
            config,
            failed_disks: BTreeMap::new(),
            unread: Vec::new(),
            buffers: BufferPool::unbounded(),
            ids_scratch: Vec::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        self.book.catalog()
    }
}

/// The block `s` reads at `cycle`, if any: one per cycle, none in the
/// idle slots after a partial final group.
fn block_read_at(s: &Stream<()>, cycle: u64) -> Option<(u64, u32)> {
    s.slot_at(cycle).filter(|&(g, i)| i < s.blocks_in(g))
}

impl SchemeScheduler for BaselineScheduler {
    book_backed_methods!();

    fn scheme(&self) -> SchemeKind {
        // Reported as Non-clustered's layout kin; the distinction that
        // matters (no parity at all) shows in the metrics.
        SchemeKind::NonClustered
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.book.begin_cycle(cycle, plan);
        let layout = *self.book.layout();

        // Snapshot stream ids into the reusable scratch so the loops can
        // mutate the book without holding a borrow on it.
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        ids.extend(self.book.ids());
        // Reads: one block per stream per cycle; a block on a failed
        // disk is simply not read — the hiccup surfaces at delivery
        // time next cycle when the same placement check fails again.
        for id in ids.iter().copied() {
            let s = self.book[id];
            let Some((g, i)) = block_read_at(&s, cycle) else {
                continue;
            };
            let p = layout.data_placement(s.start_cluster, g, i);
            let addr = BlockAddr::data(s.object, g, i);
            if !self.failed_disks.contains_key(&p.disk) {
                plan.push_read(
                    p.disk,
                    PlannedRead {
                        stream: id,
                        addr,
                        purpose: ReadPurpose::Delivery,
                    },
                );
                self.buffers
                    .alloc(OwnerId(id.0), 1)
                    .expect("unbounded pool never refuses an allocation");
            }
        }

        // Deliveries: the block read last cycle.
        for id in ids.iter().copied() {
            let Some(s) = self.book.get(id).copied() else {
                continue;
            };
            let Some((g, i)) = cycle.checked_sub(1).and_then(|t| s.slot_at(t)) else {
                continue;
            };
            let blocks = s.blocks_in(g);
            if i < blocks {
                let addr = BlockAddr::data(s.object, g, i);
                let p = layout.data_placement(s.start_cluster, g, i);
                let st = self
                    .book
                    .get_mut(id)
                    .expect("stream id snapshot only holds live streams");
                if self.failed_disks.contains_key(&p.disk) || self.unread.contains(&id) {
                    // The read last cycle failed: hiccup, repeating every
                    // time the stream rotates back onto the dead disk.
                    plan.hiccups.push(LostBlock {
                        stream: id,
                        addr,
                        reason: LossReason::FailedDisk,
                        delivery_cycle: cycle,
                    });
                    st.lost += 1;
                } else {
                    plan.deliveries.push(Delivery {
                        stream: id,
                        addr,
                        reconstructed: false,
                    });
                    st.delivered += 1;
                    self.buffers
                        .free(OwnerId(id.0), 1)
                        .expect("every delivered block was allocated last cycle");
                }
            }
            if g + 1 == s.groups() && i + 1 >= blocks {
                plan.finished.push(id);
                self.book.retire(id, &mut self.buffers);
            }
        }
        self.unread.clear();
        self.ids_scratch = ids;
    }

    fn on_disk_failure(&mut self, disk: DiskId, _cycle: u64, _mid_cycle: bool) -> FailureReport {
        self.book.bump_epoch();
        self.failed_disks
            .entry(disk)
            .or_insert(self.book.next_cycle());
        FailureReport {
            // No parity: any data on the disk is unreadable until repair;
            // the paper calls the no-redundancy data outage what it is.
            catastrophic: true,
            ..FailureReport::default()
        }
    }

    fn on_disk_repair(&mut self, disk: DiskId, _cycle: u64) {
        self.book.bump_epoch();
        let Some(since) = self.failed_disks.remove(&disk) else {
            return;
        };
        // A read the disk missed in the last planned cycle is not
        // redone: its block is lost at the delivery due now.
        let Some(last) = self
            .book
            .next_cycle()
            .checked_sub(1)
            .filter(|&t| t >= since)
        else {
            return;
        };
        let layout = *self.book.layout();
        for (id, s) in self.book.iter() {
            if block_read_at(s, last)
                .is_some_and(|(g, i)| layout.data_placement(s.start_cluster, g, i).disk == disk)
            {
                self.unread.push(id);
            }
        }
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        let healthy = self.failed_disks.is_empty() && self.unread.is_empty();
        self.book.stability(cycle, healthy)
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed_disks.is_empty(), "fast_forward while failed");
        self.book.fast_forward(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry, MediaObject, ObjectId};

    fn make(tracks: u64) -> BaselineScheduler {
        let geo = Geometry::clustered(10, 5).unwrap();
        let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
        catalog
            .add(MediaObject::new(
                ObjectId(0),
                "m",
                tracks,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            1,
            1,
        );
        BaselineScheduler::new(cfg, catalog)
    }

    #[test]
    fn fault_free_baseline_is_identical_to_nc_normal_mode() {
        let mut s = make(16);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let mut delivered = 0;
        for t in 0..18 {
            let p = s.plan_cycle(t);
            assert!(p.hiccups.is_empty());
            delivered += p.deliveries.len();
            // One read per active stream per cycle, 2 buffers peak.
            assert!(p.total_reads() <= 1);
        }
        assert_eq!(delivered, 16);
        assert_eq!(s.buffer_high_water(), 2);
        assert!(s.stream_info(id).is_none());
    }

    #[test]
    fn failure_hiccups_repeat_every_rotation() {
        // "These hiccups will repeat at regular intervals each time an
        // object being displayed needs data from the failed disk."
        let mut s = make(40); // 10 groups, 5 on each cluster
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(1), 0, false);
        let mut hiccup_cycles = Vec::new();
        for t in 0..42 {
            let p = s.plan_cycle(t);
            if !p.hiccups.is_empty() {
                hiccup_cycles.push(t);
            }
        }
        // Disk 1 holds block 1 of every cluster-0 group: groups 0, 2, 4,
        // 6, 8 → read cycles 1, 9, 17, 25, 33 → hiccups one cycle later,
        // every 8 cycles (the rotation period over two clusters).
        assert_eq!(hiccup_cycles, vec![2, 10, 18, 26, 34]);
    }

    #[test]
    fn repair_stops_the_bleeding() {
        let mut s = make(40);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(1), 0, false);
        for t in 0..12 {
            s.plan_cycle(t);
        }
        s.on_disk_repair(DiskId(1), 12);
        let mut hiccups = 0;
        for t in 12..42 {
            hiccups += s.plan_cycle(t).hiccups.len();
        }
        assert_eq!(hiccups, 0);
    }

    #[test]
    fn a_read_skipped_on_a_failed_disk_hiccups_even_after_repair() {
        // Block 1 of group 0 is read at cycle 1 from disk 1. The disk is
        // down for that read and back before the delivery at cycle 2:
        // nothing was read, so the delivery slot is a hiccup.
        let mut s = make(40);
        s.admit(ObjectId(0), 0).unwrap();
        s.plan_cycle(0);
        s.on_disk_failure(DiskId(1), 1, false);
        s.plan_cycle(1);
        s.on_disk_repair(DiskId(1), 2);
        let p = s.plan_cycle(2);
        assert_eq!(p.hiccups.len(), 1);
        assert!(p.deliveries.is_empty());
        assert_eq!(s.buffer_in_use(), 1, "only cycle 2's read is buffered");
    }

    #[test]
    fn every_failure_is_reported_catastrophic() {
        let mut s = make(8);
        assert!(s.on_disk_failure(DiskId(0), 0, false).catastrophic);
    }
}
