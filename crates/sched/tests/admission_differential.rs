//! Differential admission test: random admit/release/fail/repair/plan
//! scripts drive every scheduler, and before each `admit` an in-test
//! reference predicts accept or reject from the admission rules written
//! out longhand. The scheduler must agree every time.
//!
//! The reference rules:
//!
//! - A stream's class is its read phase and cluster trajectory,
//!   `(at % p, (h + N_C − (at / p) % N_C) % N_C)`, where `p` is the
//!   number of cycles between its group reads and `h` its object's
//!   start cluster. A class admits at most `slots` streams (for
//!   Improved-bandwidth, the per-disk slots minus the reserve).
//! - Grouped and Improved-bandwidth streams hold their class slot from
//!   admission until they finish, are dropped, or are released before
//!   their first read.
//! - Non-clustered and baseline streams count against their class only
//!   while `start + groups · p > at`, with `groups` after any early
//!   release's truncation.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, ImprovedLayout, Layout, MediaObject,
    ObjectId,
};
use mms_sched::{
    BaselineScheduler, CycleConfig, GroupedScheduler, ImprovedScheduler, NonClusteredScheduler,
    SchemeScheduler, StreamId, TransitionPolicy,
};

const DISKS: usize = 15;
/// The improved layout has `C−1` disks per cluster.
const IB_DISKS: usize = 12;
const C: usize = 5;
/// Object lengths: whole and partial final groups, short enough that
/// streams finish and free their slots inside a script.
const LENGTHS: [u64; 6] = [3, 4, 9, 13, 20, 33];

/// A small xorshift generator: scripts are reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Which slot rule a scheduler follows.
#[derive(Clone, Copy, PartialEq)]
enum Rule {
    HeldUntilFinish,
    UntilLastRead,
}

/// A scheduler under test with what the reference needs to know of it.
struct Subject {
    name: &'static str,
    sched: Box<dyn SchemeScheduler>,
    disks: u64,
    /// Start cluster of each object, from the scheduler's own catalog.
    start_cluster: Vec<u32>,
    /// Cycles between a stream's group reads.
    period: u64,
    clusters: u64,
    slots: usize,
    rule: Rule,
}

fn objects() -> impl Iterator<Item = MediaObject> {
    LENGTHS.iter().enumerate().map(|(i, &tracks)| {
        MediaObject::new(
            ObjectId(i as u64),
            format!("o{i}"),
            tracks,
            BandwidthClass::Mpeg1,
        )
    })
}

fn clustered_catalog() -> Catalog<ClusteredLayout> {
    let mut catalog = Catalog::new(
        ClusteredLayout::new(Geometry::clustered(DISKS, C).unwrap()),
        100_000,
    );
    for o in objects() {
        catalog.add(o).unwrap();
    }
    catalog
}

fn improved_catalog() -> Catalog<ImprovedLayout> {
    let mut catalog = Catalog::new(
        ImprovedLayout::new(Geometry::improved(IB_DISKS, C).unwrap()),
        100_000,
    );
    for o in objects() {
        catalog.add(o).unwrap();
    }
    catalog
}

/// A cycle two and a half track reads long: two slots per disk at any
/// `k′`, so classes fill up and admissions get rejected.
fn config(k: usize, k_prime: usize) -> CycleConfig {
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(0.66 * k_prime as f64),
        k,
        k_prime,
    );
    assert_eq!(cfg.slots_per_disk(), 2);
    cfg
}

fn starts<L: Layout>(catalog: &Catalog<L>) -> Vec<u32> {
    (0..LENGTHS.len() as u64)
        .map(|i| catalog.get(ObjectId(i)).unwrap().start_cluster)
        .collect()
}

fn subjects() -> Vec<Subject> {
    let clusters = (DISKS / C) as u64;
    let bpg = (C - 1) as u64;
    let mut out = Vec::new();
    for k_prime in [C - 1, 2, 1] {
        let catalog = clustered_catalog();
        out.push(Subject {
            name: match k_prime {
                1 => "grouped k'=1",
                2 => "grouped k'=2",
                _ => "grouped k'=4",
            },
            start_cluster: starts(&catalog),
            disks: DISKS as u64,
            sched: Box::new(GroupedScheduler::new(config(C - 1, k_prime), catalog)),
            period: ((C - 1) / k_prime) as u64,
            clusters,
            slots: 2,
            rule: Rule::HeldUntilFinish,
        });
    }
    for reserve in [0, 1] {
        let catalog = improved_catalog();
        let ib_clusters = u64::from(catalog.layout().geometry().clusters());
        out.push(Subject {
            name: ["IB reserve 0", "IB reserve 1"][reserve],
            start_cluster: starts(&catalog),
            disks: IB_DISKS as u64,
            sched: Box::new(ImprovedScheduler::new(
                config(C - 1, C - 1),
                catalog,
                reserve,
            )),
            period: 1,
            clusters: ib_clusters,
            slots: 2 - reserve,
            rule: Rule::HeldUntilFinish,
        });
    }
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let catalog = clustered_catalog();
        out.push(Subject {
            name: ["NC simple", "NC delayed"][usize::from(policy == TransitionPolicy::Delayed)],
            start_cluster: starts(&catalog),
            disks: DISKS as u64,
            sched: Box::new(NonClusteredScheduler::new(config(1, 1), catalog, policy, 1)),
            period: bpg,
            clusters,
            slots: 2,
            rule: Rule::UntilLastRead,
        });
    }
    let catalog = clustered_catalog();
    out.push(Subject {
        name: "baseline",
        start_cluster: starts(&catalog),
        disks: DISKS as u64,
        sched: Box::new(BaselineScheduler::new(config(1, 1), catalog)),
        period: bpg,
        clusters,
        slots: 2,
        rule: Rule::UntilLastRead,
    });
    out
}

impl Subject {
    fn class(&self, object: ObjectId, at: u64) -> (u64, u64) {
        let (p, nc) = (self.period, self.clusters);
        let h = u64::from(self.start_cluster[object.0 as usize]);
        (at % p, (h + nc - (at / p) % nc) % nc)
    }

    /// The reference verdict for admitting `object` at `at`.
    fn predict(&self, live: &[StreamId], object: ObjectId, at: u64) -> bool {
        let class = self.class(object, at);
        let load = live
            .iter()
            .filter_map(|&id| self.sched.stream_info(id))
            .filter(|s| self.class(s.object, s.admitted_at) == class)
            .filter(|s| {
                self.rule == Rule::HeldUntilFinish || s.admitted_at + s.groups * self.period > at
            })
            .count();
        load < self.slots
    }
}

/// Run one script; returns (accepted, rejected) admission counts.
fn run_script(subject: &mut Subject, seed: u64) -> (usize, usize) {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut next_cycle = 0u64;
    let mut live: Vec<StreamId> = Vec::new();
    let mut failed: Vec<DiskId> = Vec::new();
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..400 {
        match rng.below(10) {
            0..=3 => {
                let object = ObjectId(rng.below(LENGTHS.len() as u64));
                // Mostly now; sometimes a few cycles ahead of planning.
                let at = next_cycle + [0, 0, 0, 1, 2, 5][rng.below(6) as usize];
                let want = subject.predict(&live, object, at);
                let got = subject.sched.admit(object, at);
                assert_eq!(
                    got.is_ok(),
                    want,
                    "{} seed {seed}: admit {object} at {at} (next cycle {next_cycle}): {got:?}",
                    subject.name
                );
                match got {
                    Ok(id) => {
                        live.push(id);
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
            4 => {
                if !live.is_empty() {
                    let id = live[rng.below(live.len() as u64) as usize];
                    subject.sched.release(id);
                }
            }
            5 => {
                if failed.len() < 2 {
                    let disk = DiskId(rng.below(subject.disks) as u32);
                    if !failed.contains(&disk) {
                        subject.sched.on_disk_failure(disk, next_cycle, false);
                        failed.push(disk);
                    }
                }
            }
            6 => {
                if let Some(disk) = failed.pop() {
                    subject.sched.on_disk_repair(disk, next_cycle);
                }
            }
            _ => {
                for _ in 0..=rng.below(4) {
                    subject.sched.plan_cycle(next_cycle);
                    next_cycle += 1;
                }
            }
        }
        live.retain(|&id| subject.sched.stream_info(id).is_some());
    }
    (accepted, rejected)
}

#[test]
fn every_scheduler_admits_exactly_as_the_reference_rules_say() {
    let names: Vec<&str> = subjects().iter().map(|s| s.name).collect();
    let mut verdicts = vec![(0, 0); names.len()];
    for seed in 0..40 {
        for (subject, tally) in subjects().iter_mut().zip(&mut verdicts) {
            let (a, r) = run_script(subject, seed);
            tally.0 += a;
            tally.1 += r;
        }
    }
    // The scripts must exercise both verdicts, or they test nothing.
    for (name, (accepted, rejected)) in names.iter().zip(verdicts) {
        assert!(
            accepted > 0 && rejected > 0,
            "{name}: {accepted} accepted, {rejected} rejected"
        );
    }
}
