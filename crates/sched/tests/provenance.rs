//! Plan provenance for the clustered scheduler: every delivered block
//! must trace back to reads the plans actually made.
//!
//! A delivery is sound when either
//! - the block itself was read from a live disk, and it is *not*
//!   labelled reconstructed; or
//! - it is labelled reconstructed, was not read, and every other member
//!   of its parity group plus the group's parity block were read.
//!
//! A hiccup must name a block that was never read. Both checks run for
//! every `k′ | C−1`, every failed position (parity and the last data
//! position included) and several failure cycles, so a scheduler that
//! labels a group with the state of the group read after it fails here
//! even when its byte-level oracle passes.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, BlockAddr, BlockKind, Catalog, ClusteredLayout, Geometry, Layout, MediaObject,
    ObjectId,
};
use mms_sched::{CycleConfig, GroupedScheduler, SchemeScheduler, StreamId};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Object track counts: three objects starting on alternating clusters,
/// with partial final groups at most `C`.
const TRACKS: [u64; 3] = [40, 41, 42];

fn scheduler(c: usize, k_prime: usize) -> GroupedScheduler {
    let geo = Geometry::clustered(2 * c, c).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    for (i, &tracks) in TRACKS.iter().enumerate() {
        catalog
            .add(MediaObject::new(
                ObjectId(i as u64),
                format!("m{i}"),
                tracks,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        c - 1,
        k_prime,
    );
    GroupedScheduler::new(cfg, catalog)
}

/// What one run did, per stream: the blocks read from live disks, the
/// deliveries with their labels, and the hiccups.
#[derive(Default)]
struct Trace {
    read: HashSet<(StreamId, BlockAddr)>,
    delivered: Vec<(StreamId, BlockAddr, bool)>,
    hiccups: Vec<(StreamId, BlockAddr)>,
    objects: BTreeMap<StreamId, ObjectId>,
}

/// Admit one stream per object at cycles 0, 1, 2, fail `failed` at
/// `fail_at` (before that cycle is planned), and run until every stream
/// finished. Panics on a read planned for a failed disk.
fn run(s: &mut GroupedScheduler, failed: &[DiskId], fail_at: u64) -> Trace {
    let mut trace = Trace::default();
    let mut down = BTreeSet::new();
    for t in 0..10_000u64 {
        if t < TRACKS.len() as u64 {
            let object = ObjectId(t);
            let id = s.admit(object, t).unwrap();
            trace.objects.insert(id, object);
        }
        if t == fail_at {
            for &d in failed {
                s.on_disk_failure(d, t, false);
                down.insert(d);
            }
        }
        let plan = s.plan_cycle(t);
        for (disk, reads) in &plan.reads {
            for r in reads {
                assert!(
                    !down.contains(disk),
                    "cycle {t}: read planned on failed {disk:?}"
                );
                assert!(trace.read.insert((r.stream, r.addr)), "read twice: {r:?}");
            }
        }
        for d in &plan.deliveries {
            trace.delivered.push((d.stream, d.addr, d.reconstructed));
        }
        for h in &plan.hiccups {
            trace.hiccups.push((h.stream, h.addr));
        }
        if t >= TRACKS.len() as u64 && s.active_streams() == 0 {
            return trace;
        }
    }
    panic!("streams never finished");
}

/// Assert the provenance rules over a finished run; returns how many
/// deliveries were reconstructions.
fn check_provenance(trace: &Trace, c: usize, case: &str) -> usize {
    let mut reconstructed = 0;
    for &(stream, addr, rec) in &trace.delivered {
        let was_read = trace.read.contains(&(stream, addr));
        if rec {
            assert!(
                !was_read,
                "{case}: {stream} {addr:?} labelled reconstructed but was read"
            );
            let BlockKind::Data(ix) = addr.kind else {
                panic!("{case}: parity delivered");
            };
            let blocks = group_blocks(trace.objects[&stream], addr.group, c);
            for other in (0..blocks).filter(|&j| j != ix) {
                let member = BlockAddr::data(addr.object, addr.group, other);
                assert!(
                    trace.read.contains(&(stream, member)),
                    "{case}: {stream} {addr:?} reconstructed without member {other}"
                );
            }
            assert!(
                trace
                    .read
                    .contains(&(stream, BlockAddr::parity(addr.object, addr.group))),
                "{case}: {stream} {addr:?} reconstructed without its parity"
            );
            reconstructed += 1;
        } else {
            assert!(
                was_read,
                "{case}: {stream} {addr:?} delivered but never read"
            );
        }
    }
    for &(stream, addr) in &trace.hiccups {
        assert!(
            !trace.read.contains(&(stream, addr)),
            "{case}: {stream} {addr:?} is a hiccup but was read"
        );
    }
    reconstructed
}

fn group_blocks(object: ObjectId, group: u64, c: usize) -> u32 {
    let bpg = (c - 1) as u64;
    (TRACKS[object.0 as usize] - group * bpg).min(bpg) as u32
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

#[test]
fn every_delivery_traces_to_live_reads_at_every_k_prime_and_failed_position() {
    for c in [4usize, 5, 9] {
        for k_prime in divisors(c - 1) {
            for pos in 0..c as u32 {
                for fail_at in [0u64, 1, 2, 3, 7] {
                    let case = format!("C={c} k'={k_prime} pos={pos} fail@{fail_at}");
                    let mut s = scheduler(c, k_prime);
                    let trace = run(&mut s, &[DiskId(pos)], fail_at);
                    let reconstructed = check_provenance(&trace, c, &case);
                    // One failure is always masked: nothing is lost, and a
                    // data-disk failure at cycle 0 forces reconstructions.
                    assert!(trace.hiccups.is_empty(), "{case}: {:?}", trace.hiccups);
                    let total: u64 = TRACKS.iter().sum();
                    assert_eq!(trace.delivered.len() as u64, total, "{case}");
                    if fail_at == 0 && pos + 1 < c as u32 {
                        assert!(reconstructed > 0, "{case}");
                    }
                    assert_eq!(s.buffer_in_use(), 0, "{case}: buffers leaked");
                }
            }
        }
    }
}

#[test]
fn double_fault_hiccups_exactly_the_blocks_on_the_failed_disks() {
    let c = 5usize;
    for k_prime in [1usize, c - 1] {
        for pair in [[1u32, 3], [2, 3]] {
            let failed = [DiskId(pair[0]), DiskId(pair[1])];
            let case = format!("k'={k_prime} failed={pair:?}");
            let mut s = scheduler(c, k_prime);
            let trace = run(&mut s, &failed, 0);
            check_provenance(&trace, c, &case);
            // The blocks that live on a failed disk, and only those, are
            // hiccups; no reconstruction is possible in the failed cluster
            // and none is needed in the healthy one.
            let layout = *s.catalog().layout();
            let mut expected = HashSet::new();
            for (&stream, &object) in &trace.objects {
                let placed = s.catalog().get(object).unwrap();
                for g in 0..placed.groups {
                    for i in 0..group_blocks(object, g, c) {
                        let disk = layout.data_placement(placed.start_cluster, g, i).disk;
                        if failed.contains(&disk) {
                            expected.insert((stream, BlockAddr::data(object, g, i)));
                        }
                    }
                }
            }
            let hiccups: HashSet<_> = trace.hiccups.iter().copied().collect();
            assert_eq!(
                hiccups.len(),
                trace.hiccups.len(),
                "{case}: duplicate hiccup"
            );
            assert_eq!(hiccups, expected, "{case}");
            assert!(trace.delivered.iter().all(|d| !d.2), "{case}");
            assert_eq!(s.buffer_in_use(), 0, "{case}: buffers leaked");
        }
    }
}
