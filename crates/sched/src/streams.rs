//! Stream identity and the stream book every scheduler keeps.
//!
//! Section 2's cycle model fixes a stream's lifecycle the same way for
//! every scheme: it reads a parity group every `period` cycles, starting
//! at its admission cycle — `k/k′` for the clustered schedules, `C−1`
//! for the Non-clustered and baseline schedules (one block per cycle),
//! and 1 for Improved-bandwidth (one whole group per cycle). Its
//! admission class, the server's capacity, the cut point of an early
//! release and the quiescent window of the event-horizon fast path are
//! functions of that period, the `N_C` clusters and the slots per disk
//! alone. [`StreamBook`] holds that record once; each scheduler keeps
//! only its own per-stream planning state as the book's `X`.

use crate::plan::CyclePlan;
use crate::traits::{AdmissionError, PlanStability, RetireError};
use mms_buffer::{BufferPool, OwnerId};
use mms_layout::{Catalog, CatalogError, Layout, MediaObject, ObjectId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Index;

/// Identifier of an active stream. "We will use the term *stream* to refer
/// to the delivery of a given object at a given time. So two deliveries of
/// the same object but offset in time are two different streams."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Public snapshot of a stream's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// The stream.
    pub id: StreamId,
    /// The object being delivered.
    pub object: ObjectId,
    /// Cycle at which delivery was admitted.
    pub admitted_at: u64,
    /// Parity groups of the object in total.
    pub groups: u64,
    /// Next parity group to read (== `groups` when reading is done).
    pub next_group: u64,
    /// Data tracks delivered so far.
    pub delivered_tracks: u64,
    /// Data tracks lost to failures so far (hiccups experienced).
    pub lost_tracks: u64,
}

/// How long a stream holds its admission-class slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotRule {
    /// From admission until the stream leaves the book: it finishes, is
    /// dropped, or is released before its first read.
    UntilRetired,
    /// Only while reads remain: the slot returns once the planning
    /// cursor reaches `start + groups · period`, or when the stream
    /// leaves the book first.
    UntilLastRead,
}

/// One active stream: the lifecycle the book keeps, plus the scheduler's
/// own planning state `ext`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stream<X> {
    pub(crate) object: ObjectId,
    /// The cluster holding the object's first parity group.
    pub(crate) start_cluster: u32,
    pub(crate) tracks: u64,
    /// Cycle of the stream's first read.
    pub(crate) start_cycle: u64,
    pub(crate) delivered: u64,
    pub(crate) lost: u64,
    pub(crate) ext: X,
    /// Data blocks per full parity group.
    per_group: u64,
    /// Groups the stream will read (an early release truncates it).
    groups: u64,
    class: usize,
}

impl<X> Stream<X> {
    /// Parity groups the stream reads, after any early release.
    pub(crate) fn groups(&self) -> u64 {
        self.groups
    }

    /// Data blocks in group `g` (the final group may be partial).
    pub(crate) fn blocks_in(&self, g: u64) -> u32 {
        (self.tracks - g * self.per_group).min(self.per_group) as u32
    }

    /// The `(group, block)` slot at `cycle` of a schedule that reads one
    /// block per cycle, while the stream still has groups to read; slots
    /// past a partial final group's blocks are idle.
    pub(crate) fn slot_at(&self, cycle: u64) -> Option<(u64, u32)> {
        let rel = cycle.checked_sub(self.start_cycle)?;
        let g = rel / self.per_group;
        (g < self.groups).then_some((g, (rel % self.per_group) as u32))
    }

    /// The cycle at which a one-block-per-cycle schedule reads block `i`
    /// of group `g`.
    pub(crate) fn slot_cycle(&self, g: u64, i: u32) -> u64 {
        self.start_cycle + g * self.per_group + u64::from(i)
    }

    /// The group this stream reads at `cycle` if it reads one every
    /// `period` cycles and `cycle` is one of its read cycles.
    pub(crate) fn group_read_at(&self, cycle: u64, period: u64) -> Option<u64> {
        let rel = cycle.checked_sub(self.start_cycle)?;
        let g = rel / period;
        (rel.is_multiple_of(period) && g < self.groups).then_some(g)
    }
}

/// The record of active streams shared by every scheduler: admission
/// classes and their slots, capacity, early release, the stability
/// window and fast-forward. Owns the catalog streams are admitted from.
#[derive(Debug)]
pub(crate) struct StreamBook<L: Layout, X> {
    catalog: Catalog<L>,
    /// Cycles between a stream's group reads.
    period: u64,
    clusters: u64,
    blocks_per_group: u64,
    slots_per_class: usize,
    rule: SlotRule,
    streams: BTreeMap<StreamId, Stream<X>>,
    /// Slot-holding streams per admission class.
    class_load: Vec<usize>,
    /// `(slot end, stream, class)` of every stream holding a slot,
    /// soonest end first; a slot held until retirement never ends.
    slot_ends: BTreeSet<(u64, StreamId, usize)>,
    next_stream: u64,
    next_cycle: u64,
    /// Plan epoch (see [`SchemeScheduler::plan_epoch`](crate::SchemeScheduler::plan_epoch)).
    epoch: u64,
}

impl<L: Layout, X> StreamBook<L, X> {
    /// A book over `catalog` for streams that read a group every
    /// `period` cycles, `slots_per_class` streams per class.
    pub(crate) fn new(
        catalog: Catalog<L>,
        period: u64,
        slots_per_class: usize,
        rule: SlotRule,
    ) -> Self {
        let clusters = u64::from(catalog.layout().geometry().clusters());
        let blocks_per_group = u64::from(catalog.layout().blocks_per_group());
        assert_eq!(
            blocks_per_group % period,
            0,
            "a group's reads span whole cycles"
        );
        StreamBook {
            catalog,
            period,
            clusters,
            blocks_per_group,
            slots_per_class,
            rule,
            streams: BTreeMap::new(),
            class_load: vec![0; (period * clusters) as usize],
            slot_ends: BTreeSet::new(),
            next_stream: 0,
            next_cycle: 0,
            epoch: 0,
        }
    }

    pub(crate) fn catalog(&self) -> &Catalog<L> {
        &self.catalog
    }

    pub(crate) fn layout(&self) -> &L {
        self.catalog.layout()
    }

    /// Register a newly staged object in the catalog.
    pub(crate) fn register_object(&mut self, object: MediaObject) -> Result<(), CatalogError> {
        self.catalog.add(object).map(|_| ())
    }

    /// Retire an object from the catalog, refusing while any stream is
    /// still delivering it.
    pub(crate) fn retire_object(&mut self, object: ObjectId) -> Result<(), RetireError> {
        let streams = self.streams.values().filter(|s| s.object == object).count();
        if streams > 0 {
            return Err(RetireError::InUse { object, streams });
        }
        self.catalog
            .remove(object)
            .map(|_| ())
            .map_err(|_| RetireError::NotFound { object })
    }

    /// The next cycle to plan.
    pub(crate) fn next_cycle(&self) -> u64 {
        self.next_cycle
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidate any reported stability window (failures, repairs).
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    pub(crate) fn get(&self, id: StreamId) -> Option<&Stream<X>> {
        self.streams.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream<X>> {
        self.streams.get_mut(&id)
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams.keys().copied()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (StreamId, &Stream<X>)> {
        self.streams.iter().map(|(&id, s)| (id, s))
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (StreamId, &mut Stream<X>)> {
        self.streams.iter_mut().map(|(&id, s)| (id, s))
    }

    /// Admission class of a stream admitted at `at` whose object starts
    /// on cluster `h`: its read phase `at mod period` and the cluster it
    /// would occupy at read cycle 0, projected onto absolute time.
    /// Streams of one class occupy the same disks every cycle, forever.
    fn class_of(&self, h: u32, at: u64) -> usize {
        let (p, nc) = (self.period, self.clusters);
        let trajectory = (u64::from(h) + nc - (at / p) % nc) % nc;
        ((at % p) * nc + trajectory) as usize
    }

    /// The cycle from which `s`, reading `groups` groups, gives up its
    /// slot: `start + groups·period`, the cycle after its last read, or
    /// never.
    fn slot_end(&self, s: &Stream<X>, groups: u64) -> u64 {
        match self.rule {
            SlotRule::UntilRetired => u64::MAX,
            SlotRule::UntilLastRead => s.start_cycle + groups * self.period,
        }
    }

    /// Streams of `class` that still hold a slot at cycle `at`. An
    /// admission ahead of the planning cursor also discounts members
    /// whose reads end before `at`.
    fn load(&self, class: usize, at: u64) -> usize {
        let mut ended = 0;
        if at > self.next_cycle {
            let ending =
                (self.next_cycle + 1, StreamId(0), 0)..=(at, StreamId(u64::MAX), usize::MAX);
            ended = self
                .slot_ends
                .range(ending)
                .filter(|e| e.2 == class)
                .count();
        }
        self.class_load[class] - ended
    }

    /// Take a slot of `class` for stream `id` until `end`, unless that
    /// has already passed.
    fn hold_slot(&mut self, id: StreamId, end: u64, class: usize) {
        if end > self.next_cycle {
            self.class_load[class] += 1;
            self.slot_ends.insert((end, id, class));
        }
    }

    /// Return stream `id`'s slot of `class` if it still holds one.
    fn drop_slot(&mut self, id: StreamId, end: u64, class: usize) {
        if self.slot_ends.remove(&(end, id, class)) {
            self.class_load[class] -= 1;
        }
    }

    /// Return the slots of streams whose reads end by the cursor.
    fn expire_slots(&mut self) {
        while let Some(&(end, _, class)) = self.slot_ends.first() {
            if end > self.next_cycle {
                break;
            }
            self.slot_ends.pop_first();
            self.class_load[class] -= 1;
        }
    }

    /// Admit a stream for `object` beginning at `at` (the next unplanned
    /// cycle or later) if its class has a free slot.
    pub(crate) fn admit(
        &mut self,
        object: ObjectId,
        at: u64,
        ext: X,
    ) -> Result<StreamId, AdmissionError> {
        assert!(at >= self.next_cycle, "cannot admit into the past");
        let placed = self
            .catalog
            .get(object)
            .map_err(|_| AdmissionError::UnknownObject { object })?;
        let class = self.class_of(placed.start_cluster, at);
        if self.load(class, at) >= self.slots_per_class {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.capacity(),
            });
        }
        let stream = Stream {
            object,
            start_cluster: placed.start_cluster,
            tracks: placed.object.tracks,
            start_cycle: at,
            delivered: 0,
            lost: 0,
            ext,
            per_group: self.blocks_per_group,
            groups: placed.groups,
            class,
        };
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.epoch += 1;
        self.hold_slot(id, self.slot_end(&stream, stream.groups), class);
        self.streams.insert(id, stream);
        Ok(id)
    }

    /// Maximum concurrently active streams: slots × read phases × `N_C`
    /// cluster trajectories — Eq. 8's shape at `k′ = C−1` (one phase),
    /// Eq. 9's at `k′ = 1` (`C−1` phases).
    pub(crate) fn capacity(&self) -> usize {
        self.slots_per_class * self.class_load.len()
    }

    pub(crate) fn info(&self, id: StreamId) -> Option<StreamInfo> {
        self.streams.get(&id).map(|s| StreamInfo {
            id,
            object: s.object,
            admitted_at: s.start_cycle,
            groups: s.groups,
            next_group: (self.next_cycle.saturating_sub(s.start_cycle) / self.period).min(s.groups),
            delivered_tracks: s.delivered,
            lost_tracks: s.lost,
        })
    }

    /// Remove a stream (finished, dropped, or released unread),
    /// returning its slot and every buffer it holds in `buffers`.
    pub(crate) fn retire(&mut self, id: StreamId, buffers: &mut BufferPool) -> Option<Stream<X>> {
        let s = self.streams.remove(&id)?;
        self.drop_slot(id, self.slot_end(&s, s.groups), s.class);
        buffers.free_all(OwnerId(id.0));
        Some(s)
    }

    /// End a stream early (see
    /// [`SchemeScheduler::release`](crate::SchemeScheduler::release)):
    /// cut it to the groups already started, whose reads drain through
    /// the scheduler's normal finish path, or retire it now if it has
    /// read nothing. `false` if there is nothing to cut.
    pub(crate) fn release(&mut self, id: StreamId, buffers: &mut BufferPool) -> bool {
        let Some(s) = self.streams.get(&id) else {
            return false;
        };
        // Group g is read from `start + g·period` on, so the groups
        // started are the ceiling of the elapsed span over the period.
        let started = self
            .next_cycle
            .saturating_sub(s.start_cycle)
            .div_ceil(self.period);
        if started >= s.groups {
            return false;
        }
        self.epoch += 1;
        if started == 0 {
            self.retire(id, buffers);
            return true;
        }
        let (old_end, end, class) = (
            self.slot_end(s, s.groups),
            self.slot_end(s, started),
            s.class,
        );
        if end != old_end {
            self.drop_slot(id, old_end, class);
            self.hold_slot(id, end, class);
        }
        self.streams.get_mut(&id).expect("checked above").groups = started;
        true
    }

    /// Start planning `cycle`, which must be the next unplanned cycle:
    /// advance the cursor past it and empty `plan` for it.
    pub(crate) fn begin_cycle(&mut self, cycle: u64, plan: &mut CyclePlan) {
        assert_eq!(cycle, self.next_cycle, "cycles must be planned in order");
        self.next_cycle += 1;
        self.expire_slots();
        plan.reset(cycle);
    }

    /// The stream window of
    /// [`SchemeScheduler::plan_stability`](crate::SchemeScheduler::plan_stability)
    /// at `cycle`: the plan repeats every `period · N_C` cycles, and the
    /// window closes at the first stream still warming up (no delivery
    /// yet) or before the first read of any stream's final, possibly
    /// partial, group. `healthy` is the scheduler's own verdict that no
    /// failure or transition state is pending.
    pub(crate) fn stability(&self, cycle: u64, healthy: bool) -> PlanStability {
        let period = self.period * self.clusters;
        if !healthy {
            return PlanStability { period, stable: 0 };
        }
        let mut stable = u64::MAX;
        for s in self.streams.values() {
            if cycle <= s.start_cycle {
                return PlanStability { period, stable: 0 };
            }
            let final_read = s.start_cycle + (s.groups - 1) * self.period;
            stable = stable.min(final_read.saturating_sub(cycle));
        }
        PlanStability { period, stable }
    }

    /// Skip `cycles` steady cycles: every stream delivers `k′ =
    /// blocks per group / period` tracks per cycle.
    pub(crate) fn fast_forward(&mut self, cycles: u64) {
        debug_assert_eq!(
            cycles % (self.period * self.clusters),
            0,
            "fast_forward span must be a whole plan rotation"
        );
        self.next_cycle += cycles;
        let per_cycle = self.blocks_per_group / self.period;
        for s in self.streams.values_mut() {
            s.delivered += cycles * per_cycle;
        }
        self.expire_slots();
    }
}

/// The [`SchemeScheduler`](crate::SchemeScheduler) methods a scheduler
/// answers from its stream book and buffer pool alone, written once for
/// every scheduler. Expands inside the trait impl of a scheduler with
/// `config`, `book` and `buffers` fields; a new stream's own state starts
/// from its `Default`.
macro_rules! book_backed_methods {
    () => {
        fn config(&self) -> &crate::CycleConfig {
            &self.config
        }

        fn admit(
            &mut self,
            object: mms_layout::ObjectId,
            at_cycle: u64,
        ) -> Result<crate::StreamId, crate::AdmissionError> {
            self.book.admit(object, at_cycle, Default::default())
        }

        fn stream_capacity(&self) -> usize {
            self.book.capacity()
        }

        fn active_streams(&self) -> usize {
            self.book.len()
        }

        fn stream_info(&self, id: crate::StreamId) -> Option<crate::StreamInfo> {
            self.book.info(id)
        }

        fn release(&mut self, id: crate::StreamId) -> bool {
            self.book.release(id, &mut self.buffers)
        }

        fn buffer_in_use(&self) -> usize {
            self.buffers.in_use()
        }

        fn buffer_high_water(&self) -> usize {
            self.buffers.high_water()
        }

        fn plan_epoch(&self) -> u64 {
            self.book.epoch()
        }
    };
}
pub(crate) use book_backed_methods;

impl<L: Layout, X> Index<StreamId> for StreamBook<L, X> {
    type Output = Stream<X>;

    fn index(&self, id: StreamId) -> &Stream<X> {
        &self.streams[&id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(StreamId(42).to_string(), "s42");
    }
}
