//! The clustered scheduler of Section 2: Streaming RAID, Staggered-group
//! and the `k′` continuum between them.
//!
//! Section 2 generalizes the cycle: "if `k` disk storage units are read in
//! a cycle for a stream, where `k` is an integer multiple of `k′`, then
//! the data read in one 'read cycle' is delivered in the next `k/k′`
//! cycles" (Figure 2). Every clustered scheme reads a whole parity group
//! — `C−1` data tracks plus parity, so a single failure is masked on the
//! fly — once per read cycle (`k = C−1`) and differs only in `k′`:
//!
//! | Scheme | `k′` | read period `k/k′` |
//! |---|---|---|
//! | Streaming RAID (after Tobagi et al.) | `C−1` | 1 |
//! | Staggered-group | `1` | `C−1` |
//! | the GSS-style middle (the paper's reference \[3\]) | any `k′ \| C−1` | `(C−1)/k′` |
//!
//! [`GroupedScheduler`] is the one implementation of all three. Larger
//! `k′` buys slot efficiency (fewer, longer cycles amortize the seek) at
//! the price of buffer space; the `ablation_kprime` bench sweeps it.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{book_backed_methods, SlotRule, StreamBook};
use crate::traits::{
    data_tracks_on_disks, emit_mode_transition, FailureReport, PlanStability, RetireError,
    SchemeKind, SchemeScheduler,
};
use mms_buffer::{BufferPool, OwnerId};
use mms_disk::DiskId;
use mms_layout::{
    BlockAddr, Catalog, CatalogError, ClusterId, ClusteredLayout, Layout, MediaObject, ObjectId,
};
use std::collections::{BTreeMap, BTreeSet};

/// What reading one parity group left for its transmission.
#[derive(Debug, Clone, Default)]
struct GroupState {
    /// The block rebuilt from parity at read time (one failed disk in the
    /// cluster, parity live), if any.
    reconstructed: Option<u32>,
    /// Blocks that could not be read or rebuilt: each is a hiccup.
    hiccups: Vec<u32>,
    /// Whether the group's parity track still occupies a buffer. A
    /// reconstruction consumes it; a failed parity disk never fills it.
    parity_held: bool,
}

/// A stream's two groups in flight.
#[derive(Debug, Clone, Default)]
struct InFlight {
    /// The group being transmitted.
    sending: GroupState,
    /// The group read this cycle. It becomes `sending` only after this
    /// cycle's transmissions of the previous group are planned, so a
    /// group is never labelled with the state of the group read after it.
    reading: GroupState,
}

/// The clustered scheduler: whole-group reads every `k/k′` cycles, `k′`
/// tracks transmitted per stream per cycle.
///
/// Streams are assigned staggered read phases, so under `k′ < C−1` their
/// memory use is "out of phase" and the aggregate buffer demand is about
/// half of Streaming RAID's (Figure 4).
///
/// **Parity-release rule.** The scheme the scheduler is built as decides
/// when a group's parity buffer is returned. Streaming RAID holds it
/// until the group has been transmitted, which is the paper's `2C` tracks
/// per stream (Eq. 12). Every other `k′` frees it at the end of the read
/// cycle, once the group is resident: Staggered-group's `C+1` per stream
/// and `C(C+1)/2` for `C−1` phased streams (Figure 4).
#[derive(Debug)]
pub struct GroupedScheduler {
    scheme: SchemeKind,
    config: CycleConfig,
    /// A group every `k/k′` cycles; a stream holds its class slot until
    /// it finishes, or is released before its first read.
    book: StreamBook<ClusteredLayout, InFlight>,
    /// Failed disk positions per cluster.
    failed: BTreeMap<ClusterId, BTreeSet<u32>>,
    buffers: BufferPool,
}

impl GroupedScheduler {
    /// Build a scheduler for the scheme its timing names: `k′ = k` is
    /// Streaming RAID, any smaller `k′` Staggered-group.
    ///
    /// # Panics
    /// Panics unless `config.k = C−1` and `config.k_prime` divides it.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        let scheme = if config.k_prime == config.k {
            SchemeKind::StreamingRaid
        } else {
            SchemeKind::StaggeredGroup
        };
        Self::with_scheme(scheme, config, catalog)
    }

    /// Build a scheduler labelled, and charged, as `scheme`. At `C = 2`
    /// the two schedules coincide (`k = k′ = 1`) and only the label and
    /// the parity-release rule tell Streaming RAID from Staggered-group.
    ///
    /// # Panics
    /// Panics unless `scheme` is Streaming RAID or Staggered-group,
    /// `config.k = C−1`, `config.k_prime` divides it, and Streaming RAID
    /// has `k′ = C−1`.
    #[must_use]
    pub fn with_scheme(
        scheme: SchemeKind,
        config: CycleConfig,
        catalog: Catalog<ClusteredLayout>,
    ) -> Self {
        assert!(
            matches!(
                scheme,
                SchemeKind::StreamingRaid | SchemeKind::StaggeredGroup
            ),
            "{scheme} is not a grouped scheme"
        );
        let c = catalog.layout().geometry().group_size() as usize;
        assert_eq!(config.k, c - 1, "grouped scheduling reads whole groups");
        assert_eq!(
            (c - 1) % config.k_prime,
            0,
            "k' must divide C−1 so read cycles align with group boundaries"
        );
        if scheme == SchemeKind::StreamingRaid {
            assert_eq!(config.k_prime, c - 1, "Streaming RAID requires k' = C−1");
        }
        let period = config.read_period() as u64;
        GroupedScheduler {
            scheme,
            book: StreamBook::new(
                catalog,
                period,
                config.slots_per_disk(),
                SlotRule::UntilRetired,
            ),
            config,
            failed: BTreeMap::new(),
            buffers: BufferPool::unbounded(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        self.book.catalog()
    }

    /// Register a newly staged object in the catalog (the tertiary →
    /// disk load path of Figure 1).
    pub fn register_object(&mut self, object: MediaObject) -> Result<(), CatalogError> {
        self.book.register_object(object)
    }

    /// Retire an object from the catalog (the purge path), refusing while
    /// any stream is still delivering it.
    pub fn retire_object(&mut self, object: ObjectId) -> Result<(), RetireError> {
        self.book.retire_object(object)
    }
}

impl SchemeScheduler for GroupedScheduler {
    book_backed_methods!();

    fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.book.begin_cycle(cycle, plan);
        let layout = *self.book.layout();
        let geometry = *layout.geometry();
        let parity_pos = geometry.disks_per_cluster() - 1;
        let period = self.config.read_period() as u64;
        let k_prime = self.config.k_prime as u64;
        let hold_parity = self.scheme == SchemeKind::StreamingRaid;

        // Pass 1 — whole-group reads at each stream's read cycles. All of
        // a cycle's reads are in flight while the previous data is still
        // being transmitted, so allocations precede every free of the
        // same cycle; the pool's high-water mark then measures the
        // paper's start-of-cycle occupancy (2C per SR stream, Figure 4's
        // profile for SG).
        for (id, st) in self.book.iter_mut() {
            let Some(g) = st.group_read_at(cycle, period) else {
                continue;
            };
            let blocks = st.blocks_in(g);
            let failed = self.failed.get(&layout.data_cluster(st.start_cluster, g));
            let parity_ok = failed.is_none_or(|f| !f.contains(&parity_pos));
            // One failed disk and live parity: rebuild on the fly.
            let masked = parity_ok && failed.is_some_and(|f| f.len() == 1);
            let next = &mut st.ext.reading;
            next.reconstructed = None;
            next.hiccups.clear();
            let mut reads = 0usize;
            for i in 0..blocks {
                let p = layout.data_placement(st.start_cluster, g, i);
                if failed.is_some_and(|f| f.contains(&geometry.position_in_cluster(p.disk))) {
                    if masked {
                        next.reconstructed = Some(i);
                    } else {
                        next.hiccups.push(i);
                    }
                } else {
                    plan.push_read(
                        p.disk,
                        PlannedRead {
                            stream: id,
                            addr: BlockAddr::data(st.object, g, i),
                            purpose: ReadPurpose::Delivery,
                        },
                    );
                    reads += 1;
                }
            }
            if parity_ok {
                plan.push_read(
                    layout.parity_placement(st.start_cluster, g).disk,
                    PlannedRead {
                        stream: id,
                        addr: BlockAddr::parity(st.object, g),
                        purpose: ReadPurpose::Parity,
                    },
                );
                reads += 1;
            }
            // A reconstructed block materializes in the parity buffer, so
            // the group occupies `reads` tracks either way.
            next.parity_held = parity_ok && next.reconstructed.is_none();
            self.buffers
                .alloc(OwnerId(id.0), reads)
                .expect("unbounded pool never refuses an allocation");
        }

        // Pass 2 — transmit k′ tracks of the group being sent, one cycle
        // after its read cycle; then commit the group read this cycle.
        // Each stream returns its buffers in one free.
        for (id, st) in self.book.iter_mut() {
            let mut freed = 0usize;
            if let Some(rel) = cycle.checked_sub(st.start_cycle + 1) {
                let g = rel / period;
                if g < st.groups() {
                    let blocks = u64::from(st.blocks_in(g));
                    let first = (rel % period) * k_prime;
                    let end = (first + k_prime).min(blocks);
                    for i in first..end {
                        let i = i as u32;
                        let addr = BlockAddr::data(st.object, g, i);
                        if st.ext.sending.hiccups.contains(&i) {
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
                                reconstructed: st.ext.sending.reconstructed == Some(i),
                            });
                            st.delivered += 1;
                            freed += 1;
                        }
                    }
                    if g + 1 == st.groups() && first < end && end == blocks {
                        // Final block sent: the stream's buffers and slot
                        // are returned below.
                        plan.finished.push(id);
                        continue;
                    }
                    if hold_parity && st.ext.sending.parity_held {
                        // Streaming RAID (period 1) has now sent the whole
                        // group, so its parity goes with it.
                        st.ext.sending.parity_held = false;
                        freed += 1;
                    }
                }
            }
            if st.group_read_at(cycle, period).is_some() {
                let sides = &mut st.ext;
                std::mem::swap(&mut sides.sending, &mut sides.reading);
                if !hold_parity && sides.sending.parity_held {
                    // Resident now: the parity is no longer needed.
                    sides.sending.parity_held = false;
                    freed += 1;
                }
            }
            self.buffers
                .free(OwnerId(id.0), freed)
                .expect("every freed track was charged at its group's read");
        }
        for &id in &plan.finished {
            self.book.retire(id, &mut self.buffers);
        }

        // Sanity: no disk over capacity. Admission control guarantees it.
        let cap = self.config.slots_per_disk();
        debug_assert!(
            plan.reads.values().all(|v| v.len() <= cap),
            "slot overflow in {} plan",
            self.scheme
        );
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, _mid_cycle: bool) -> FailureReport {
        let geometry = *self.book.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.book.bump_epoch();
        let entry = self.failed.entry(cluster).or_default();
        entry.insert(pos);
        let catastrophic = entry.len() >= 2;
        let data_loss_tracks = if catastrophic {
            let failed = entry.iter().map(|&p| geometry.disk_at(cluster, p));
            data_tracks_on_disks(self.book.catalog(), failed)
        } else {
            0
        };
        let (from, to) = if catastrophic {
            ("degraded", "catastrophic")
        } else {
            ("normal", "degraded")
        };
        emit_mode_transition(self.scheme, cluster, cycle, from, to);
        FailureReport {
            degraded_clusters: vec![cluster],
            catastrophic,
            data_loss_tracks,
            ..FailureReport::default()
        }
    }

    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64) {
        let geometry = *self.book.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.book.bump_epoch();
        if let Some(set) = self.failed.get_mut(&cluster) {
            set.remove(&pos);
            if set.is_empty() {
                self.failed.remove(&cluster);
                emit_mode_transition(self.scheme, cluster, cycle, "degraded", "normal");
            }
        }
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        self.book.stability(cycle, self.failed.is_empty())
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed.is_empty(), "fast_forward in degraded mode");
        // The group states and the buffer charge are periodic, hence
        // unchanged.
        self.book.fast_forward(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionError;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry};

    const SR: SchemeKind = SchemeKind::StreamingRaid;
    const SG: SchemeKind = SchemeKind::StaggeredGroup;

    /// `disks` in clusters of `c`, objects `(id, tracks)`, built as the
    /// named scheme with its paper timing (SR: `k′ = C−1`, SG: `k′ = 1`).
    fn make(
        scheme: SchemeKind,
        disks: usize,
        c: usize,
        objects: &[(u64, u64)],
    ) -> GroupedScheduler {
        let k_prime = if scheme == SR { c - 1 } else { 1 };
        GroupedScheduler::with_scheme(scheme, config(c, k_prime), catalog(disks, c, objects))
    }

    fn catalog(disks: usize, c: usize, objects: &[(u64, u64)]) -> Catalog<ClusteredLayout> {
        let geo = Geometry::clustered(disks, c).unwrap();
        let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
        for &(id, tracks) in objects {
            catalog
                .add(MediaObject::new(
                    ObjectId(id),
                    format!("o{id}"),
                    tracks,
                    BandwidthClass::Mpeg1,
                ))
                .unwrap();
        }
        catalog
    }

    fn config(c: usize, k_prime: usize) -> CycleConfig {
        CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            c - 1,
            k_prime,
        )
    }

    /// C = 9 gives k' ∈ {1, 2, 4, 8}: a real sweep range.
    fn make_c9(k_prime: usize) -> GroupedScheduler {
        GroupedScheduler::new(config(9, k_prime), catalog(9, 9, &[(0, 240)]))
    }

    #[test]
    fn endpoints_match_named_schemes() {
        assert_eq!(make_c9(8).scheme(), SR);
        assert_eq!(make_c9(1).scheme(), SG);
        assert_eq!(make_c9(4).scheme(), SG);
        // At C = 2 the timing is shared; the constructor's label wins.
        assert_eq!(make(SG, 10, 2, &[(0, 8)]).scheme(), SG);
        assert_eq!(make(SR, 10, 2, &[(0, 8)]).scheme(), SR);
    }

    #[test]
    #[should_panic(expected = "Streaming RAID requires k' = C−1")]
    fn streaming_raid_requires_full_group_transmission() {
        let _ = GroupedScheduler::with_scheme(SR, config(5, 1), catalog(10, 5, &[(0, 8)]));
    }

    #[test]
    fn sr_reads_whole_groups_and_delivers_next_cycle() {
        let mut s = make(SR, 10, 5, &[(0, 8)]); // 2 full groups
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = s.plan_cycle(0);
        // Group 0: 4 data reads on disks 0..3 + parity on disk 4.
        assert_eq!(p0.total_reads(), 5);
        assert!(p0.deliveries.is_empty());
        assert_eq!(p0.reads_on(DiskId(4)).len(), 1);
        assert_eq!(p0.reads_on(DiskId(4))[0].purpose, ReadPurpose::Parity);
        let p1 = s.plan_cycle(1);
        // Group 1 read on cluster 1; group 0 delivered.
        assert_eq!(p1.total_reads(), 5);
        assert!(p1.reads.keys().all(|d| d.0 >= 5));
        assert_eq!(p1.deliveries.len(), 4);
        assert!(p1
            .deliveries
            .iter()
            .all(|d| d.stream == id && !d.reconstructed));
        let p2 = s.plan_cycle(2);
        // Nothing left to read; group 1 delivered; stream finishes.
        assert_eq!(p2.total_reads(), 0);
        assert_eq!(p2.deliveries.len(), 4);
        assert_eq!(p2.finished, vec![id]);
        assert_eq!(s.active_streams(), 0);
    }

    #[test]
    fn sg_reads_every_period_delivers_one_track_per_cycle() {
        let mut s = make(SG, 10, 5, &[(0, 8)]);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = s.plan_cycle(0);
        assert_eq!(p0.total_reads(), 5); // group 0 + parity
        assert!(p0.deliveries.is_empty());
        for t in 1..4 {
            let p = s.plan_cycle(t);
            // Group 1 is read at t = 4, not before.
            assert_eq!(p.total_reads(), 0, "t={t}");
            assert_eq!(p.deliveries.len(), 1, "t={t}");
        }
        let p4 = s.plan_cycle(4);
        assert_eq!(p4.total_reads(), 5); // group 1 read
        assert_eq!(p4.deliveries.len(), 1); // last track of group 0
        for t in 5..8 {
            let p = s.plan_cycle(t);
            assert_eq!(p.deliveries.len(), 1);
            assert!(p.finished.is_empty());
        }
        let p8 = s.plan_cycle(8);
        assert_eq!(p8.deliveries.len(), 1);
        assert_eq!(p8.finished, vec![id]);
    }

    #[test]
    fn buffer_peaks_match_the_paper() {
        // (scheme, streams at phases 0.., cycles, peak): SR's 2C = 10 per
        // stream (Eq. 12) and 40 for four streams (Figure 4); SG's C + 1
        // = 6 for one stream and C(C+1)/2 = 15 for C−1 phased streams —
        // the reading stream holds 6 while the others hold 4, 3, 2.
        let cases = [
            (SR, 1u64, 6u64, 10usize),
            (SR, 4, 10, 40),
            (SG, 1, 40, 6),
            (SG, 4, 40, 15),
        ];
        for (scheme, streams, cycles, peak) in cases {
            let mut s = make(scheme, 10, 5, &[(0, 400)]);
            for phase in 0..streams {
                let at = if scheme == SR { 0 } else { phase };
                s.admit(ObjectId(0), at).unwrap();
            }
            for t in 0..cycles {
                s.plan_cycle(t);
            }
            assert_eq!(s.buffer_high_water(), peak, "{scheme} × {streams}");
        }
    }

    #[test]
    fn sg_buffer_profile_matches_figure4_single_stream() {
        // One stream, C = 5: the first group peaks at C = 5 (no leftover
        // of a previous group); parity is released at the end of the read
        // cycle, then one track drains per cycle: 4, 3, 2, 1. From the
        // second read cycle on, the peak is C + 1 = 6.
        let mut s = make(SG, 10, 5, &[(0, 40)]);
        s.admit(ObjectId(0), 0).unwrap();
        let mut profile = Vec::new();
        for t in 0..4 {
            s.plan_cycle(t);
            profile.push(s.buffer_in_use());
        }
        assert_eq!(profile, [4, 3, 2, 1]);
        s.plan_cycle(4); // read group 1 while delivering last track of g0
        assert_eq!(s.buffer_high_water(), 6);
        assert_eq!(s.buffer_in_use(), 4);
    }

    #[test]
    fn single_failure_is_masked_with_one_reconstruction_per_group() {
        // (scheme, failed disk): a data disk in cluster 0. Group 0 reads
        // 3 data + parity; over its transmission cycles every track
        // arrives and exactly one was rebuilt from parity.
        for (scheme, disk) in [(SR, 2u32), (SG, 1)] {
            let mut s = make(scheme, 10, 5, &[(0, 16)]);
            let id = s.admit(ObjectId(0), 0).unwrap();
            let r = s.on_disk_failure(DiskId(disk), 0, false);
            assert!(!r.catastrophic);
            assert_eq!(r.degraded_clusters, vec![ClusterId(0)]);
            let p0 = s.plan_cycle(0);
            assert_eq!(p0.total_reads(), 4, "{scheme}");
            assert!(p0.reads_on(DiskId(disk)).is_empty());
            let (mut delivered, mut reconstructed) = (0, 0);
            for t in 1..=s.config().read_period() as u64 {
                let p = s.plan_cycle(t);
                assert!(p.hiccups.is_empty(), "{scheme} cycle {t}");
                assert!(p.deliveries.iter().all(|d| d.stream == id));
                delivered += p.deliveries.iter().filter(|d| d.addr.group == 0).count();
                reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
            }
            assert_eq!((delivered, reconstructed), (4, 1), "{scheme}");
        }
    }

    #[test]
    fn parity_disk_failure_is_harmless() {
        for scheme in [SR, SG] {
            let mut s = make(scheme, 10, 5, &[(0, 8)]);
            s.admit(ObjectId(0), 0).unwrap();
            let r = s.on_disk_failure(DiskId(4), 0, false);
            assert!(!r.catastrophic);
            // 4 data reads, no parity read possible.
            assert_eq!(s.plan_cycle(0).total_reads(), 4);
            let mut delivered = 0;
            for t in 1..=s.config().read_period() as u64 {
                let p = s.plan_cycle(t);
                assert!(p.hiccups.is_empty(), "{scheme}");
                delivered += p.deliveries.len();
            }
            assert_eq!(delivered, 4, "{scheme}");
        }
    }

    #[test]
    fn second_failure_in_cluster_hiccups_the_affected_blocks() {
        // (scheme, failed pair, tracks): the blocks on both failed disks
        // hiccup, the other two of group 0 deliver.
        for (scheme, pair, tracks) in [(SR, [1u32, 3], 16u64), (SG, [0, 2], 8)] {
            let mut s = make(scheme, 10, 5, &[(0, tracks)]);
            s.admit(ObjectId(0), 0).unwrap();
            assert!(!s.on_disk_failure(DiskId(pair[0]), 0, false).catastrophic);
            let r = s.on_disk_failure(DiskId(pair[1]), 0, false);
            assert!(r.catastrophic);
            assert!(r.data_loss_tracks > 0);
            s.plan_cycle(0);
            let (mut hiccups, mut delivered) = (0, 0);
            for t in 1..=s.config().read_period() as u64 {
                let p = s.plan_cycle(t);
                hiccups += p.hiccups.len();
                delivered += p.deliveries.len();
            }
            assert_eq!((hiccups, delivered), (2, 2), "{scheme}");
        }
    }

    #[test]
    fn failures_in_different_clusters_are_tolerated() {
        let mut s = make(SR, 10, 5, &[(0, 16)]);
        s.admit(ObjectId(0), 0).unwrap();
        assert!(!s.on_disk_failure(DiskId(1), 0, false).catastrophic);
        assert!(!s.on_disk_failure(DiskId(6), 0, false).catastrophic);
        let _ = s.plan_cycle(0);
        for t in 1..5 {
            let p = s.plan_cycle(t);
            assert!(p.hiccups.is_empty(), "cycle {t}");
        }
    }

    #[test]
    fn repair_restores_normal_reads() {
        let mut s = make(SR, 10, 5, &[(0, 40)]);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(0), 0, false);
        let p0 = s.plan_cycle(0);
        assert_eq!(p0.total_reads(), 4);
        s.on_disk_repair(DiskId(0), 1);
        let _p1 = s.plan_cycle(1);
        let p2 = s.plan_cycle(2); // back on cluster 0
        assert_eq!(p2.total_reads(), 5);
    }

    #[test]
    fn stream_capacity_matches_eq8_and_eq9_shapes() {
        // (scheme, disks, capacity). SR: 52 slots/disk/cycle × N_C; Eq. 8
        // with Table 1 and D = 100, C = 5 gives 1041.67, floored per
        // class to 52 × 20 = 1040. SG: slots(12) × phases(4) × clusters(2).
        for (scheme, disks, cap) in [(SR, 10, 104usize), (SR, 100, 1040), (SG, 10, 96)] {
            let s = make(scheme, disks, 5, &[(0, 40)]);
            assert_eq!(s.stream_capacity(), cap, "{scheme} D={disks}");
        }
    }

    #[test]
    fn admission_rejects_a_full_class() {
        for scheme in [SR, SG] {
            let mut s = make(scheme, 10, 5, &[(0, 400)]);
            let slots = s.config().slots_per_disk();
            // Same start cycle, same object: one class, so only `slots` fit.
            for _ in 0..slots {
                s.admit(ObjectId(0), 0).unwrap();
            }
            assert!(
                matches!(
                    s.admit(ObjectId(0), 0),
                    Err(AdmissionError::AtCapacity { .. })
                ),
                "{scheme}"
            );
            // A different phase (SG) or trajectory (SR) still has room.
            assert!(s.admit(ObjectId(0), 1).is_ok(), "{scheme}");
        }
    }

    #[test]
    fn slots_are_held_until_the_stream_finishes() {
        // A slot is returned at the final delivery, not at the final read:
        // a one-group SG stream read at cycle 0 still holds its slot while
        // its tracks drain, so a full class stays full until it finishes.
        let mut s = make(SG, 10, 5, &[(0, 4)]);
        let slots = s.config().slots_per_disk();
        for _ in 0..slots {
            s.admit(ObjectId(0), 0).unwrap();
        }
        for t in 0..4 {
            s.plan_cycle(t);
        }
        // Cycle 8 is phase 0 on the same trajectory (N_C = 2, period 4).
        assert!(s.admit(ObjectId(0), 8).is_err());
        s.plan_cycle(4);
        assert_eq!(s.active_streams(), 0);
        assert!(s.admit(ObjectId(0), 8).is_ok());
    }

    #[test]
    fn partial_final_group_delivers_short() {
        let mut s = make(SR, 10, 5, &[(0, 6)]); // groups: 4 + 2 tracks
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = s.plan_cycle(0);
        assert_eq!(p0.total_reads(), 5);
        let p1 = s.plan_cycle(1);
        assert_eq!(p1.total_reads(), 3); // 2 data + parity
        assert_eq!(p1.deliveries.len(), 4);
        let p2 = s.plan_cycle(2);
        assert_eq!(p2.deliveries.len(), 2);
        assert_eq!(p2.finished, vec![id]);
        assert_eq!(s.buffer_in_use(), 0);
    }

    #[test]
    fn every_k_prime_delivers_everything() {
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make_c9(k_prime);
            let id = s.admit(ObjectId(0), 0).unwrap();
            let mut delivered = 0u64;
            let mut t = 0;
            while s.stream_info(id).is_some() {
                delivered += s.plan_cycle(t).deliveries.len() as u64;
                t += 1;
                assert!(t < 10_000, "k'={k_prime} never finished");
            }
            assert_eq!(delivered, 240, "k'={k_prime}");
            assert_eq!(s.buffer_in_use(), 0, "k'={k_prime}");
        }
    }

    #[test]
    fn buffer_peak_grows_with_k_prime() {
        // Per stream, peak occupancy interpolates between the SG and SR
        // endpoints: more tracks per transmission cycle means more of the
        // group is resident at once for less time.
        let mut peaks = Vec::new();
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make_c9(k_prime);
            s.admit(ObjectId(0), 0).unwrap();
            for t in 0..40 {
                s.plan_cycle(t);
            }
            peaks.push(s.buffer_high_water());
        }
        for w in peaks.windows(2) {
            assert!(w[1] >= w[0], "{peaks:?}");
        }
        // SG endpoint: C + 1 = 10. SR endpoint: the paper's 2C = 18, since
        // Streaming RAID holds parity until its group is transmitted.
        assert_eq!(peaks[0], 10, "{peaks:?}");
        assert_eq!(peaks[3], 18, "{peaks:?}");
    }

    #[test]
    fn slot_efficiency_grows_with_k_prime() {
        // Longer cycles amortize the seek: slots per read-period rise
        // with k' (the §2 efficiency argument behind large k).
        let mut per_stream_capacity = Vec::new();
        for k_prime in [1usize, 2, 4, 8] {
            per_stream_capacity.push(make_c9(k_prime).stream_capacity());
        }
        for w in per_stream_capacity.windows(2) {
            assert!(w[1] >= w[0], "{per_stream_capacity:?}");
        }
    }

    #[test]
    fn failures_are_masked_at_every_k_prime() {
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make_c9(k_prime);
            let id = s.admit(ObjectId(0), 0).unwrap();
            s.on_disk_failure(DiskId(3), 0, false);
            let mut t = 0;
            let mut reconstructed = 0;
            while s.stream_info(id).is_some() {
                let p = s.plan_cycle(t);
                assert!(p.hiccups.is_empty(), "k'={k_prime} cycle {t}");
                reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
                t += 1;
                assert!(t < 10_000);
            }
            // One block per group on the failed disk: 240 / 8 groups.
            assert_eq!(reconstructed, 30, "k'={k_prime}");
        }
    }
}
