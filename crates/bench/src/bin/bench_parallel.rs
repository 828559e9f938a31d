//! Measure the deterministic worker pool (`mms-exec`) on the three
//! workloads it backs — Monte-Carlo reliability trials, the design-space
//! sweep, and a batch simulation grid — at 1, 2, 4, and 8 threads, and
//! write the results to `BENCH_parallel.json`.
//!
//! Two things are recorded per workload:
//! * **wall-clock seconds** at each thread count (median of three runs);
//! * **bit_identical** — whether every thread count reproduced the
//!   1-thread result exactly. This is the pool's contract and must be
//!   `true` everywhere; the timings are honest measurements on whatever
//!   host runs the bin (`host_cores` records how many cores that was —
//!   speedups are only expected when it exceeds 1).
//!
//! Usage: `bench_parallel [output.json] [--quick]`
//!
//! `--quick` runs 8 Monte-Carlo trials instead of 48 for CI smoke runs.

use mms_bench::harness::{host_cores, parse_args, sweep, write_json, Json, Obj, Sweep};
use mms_bench::nc_transition_losses;
use mms_server::analysis::{design_space_par, CostModel, SchemeParams, SystemParams};
use mms_server::disk::ReliabilityParams;
use mms_server::reliability::{CatastropheRule, MonteCarlo};
use mms_server::sched::TransitionPolicy;
use mms_server::sim::run_batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Print a workload's sweep and render its row of `workloads`.
fn workload_json(name: &str, detail: String, runs: &Sweep<u64>) -> Obj {
    let times: Vec<String> = runs
        .seconds
        .iter()
        .map(|(t, s)| format!("{t}T {s:.3}s"))
        .collect();
    println!(
        "{name:<24} {}  bit-identical: {}",
        times.join("  "),
        runs.bit_identical
    );
    let t1 = runs.seconds[0].1;
    let best = runs.seconds.iter().map(|&(_, s)| s).fold(t1, f64::min);
    Obj::block()
        .field("detail", detail)
        .field("seconds", runs.seconds_json(4))
        .fixed("speedup_best", if best > 0.0 { t1 / best } else { 1.0 }, 2)
        .field("bit_identical", runs.bit_identical)
}

fn main() {
    let (out, quick) = parse_args("BENCH_parallel.json");
    let mc_trials: usize = if quick { 8 } else { 48 };

    let host_cores = host_cores();
    println!("host cores: {host_cores}; measuring at {THREAD_COUNTS:?} threads\n");

    let mut workloads = Obj::block();
    let mut all_identical = true;
    let mut record = |name: &str, detail: String, runs: Sweep<u64>| {
        all_identical &= runs.bit_identical;
        workloads.push(name, workload_json(name, detail, &runs));
    };

    // 1. Monte-Carlo reliability at paper scale: D = 1000, C = 10, real
    //    lifetimes — the dominant compute in the reliability pipeline.
    let mc = MonteCarlo {
        d: 1000,
        rel: ReliabilityParams::paper(),
        rule: CatastropheRule::SameCluster { c: 10 },
    };
    record(
        "montecarlo_mttf",
        format!("D=1000 C=10 same-cluster rule, {mc_trials} trials, seed 1995"),
        sweep(&THREAD_COUNTS, 3, |par| {
            let stats = mc.run_par(&mut StdRng::seed_from_u64(1995), mc_trials, par);
            stats.mean.as_secs().to_bits() ^ stats.std_error.as_secs().to_bits()
        }),
    );

    // 2. The design-space sweep. One sweep is microseconds, so time a
    //    thousand of them; the digest folds every field of every point.
    let sys = SystemParams::paper_table1();
    let model = CostModel::paper_fig9();
    const SWEEP_REPS: usize = 1000;
    record(
        "design_space_sweep",
        format!("C in 2..=10 x 4 schemes, {SWEEP_REPS} repetitions"),
        sweep(&THREAD_COUNTS, 3, |par| {
            let mut digest = 0u64;
            for _ in 0..SWEEP_REPS {
                digest = design_space_par(&sys, &model, 2..=10, SchemeParams::paper_fig9, par)
                    .iter()
                    .fold(0u64, |acc, p| {
                        acc.rotate_left(7) ^ p.cost.to_bits() ^ p.streams.to_bits() ^ (p.c as u64)
                    });
            }
            digest
        }),
    );

    // 3. A batch simulation grid: the Non-clustered transition ablation
    //    (every C x failed-disk x policy cell is an independent
    //    scheduler run).
    let grid: Vec<(usize, u32, TransitionPolicy)> = [6usize, 8, 10, 12]
        .into_iter()
        .flat_map(|c| {
            (0..(c as u32 - 1)).flat_map(move |f| {
                [TransitionPolicy::Simple, TransitionPolicy::Delayed]
                    .into_iter()
                    .map(move |p| (c, f, p))
            })
        })
        .collect();
    record(
        "sim_batch_ablation",
        format!("NC transition grid, {} scheduler runs", grid.len()),
        sweep(&THREAD_COUNTS, 3, |par| {
            run_batch(par, &grid, |&(c, f, policy)| {
                nc_transition_losses(c, f, policy) as u64
            })
            .iter()
            .fold(0u64, |acc, &l| acc.rotate_left(9) ^ l)
        }),
    );

    let note = format!(
        "wall-clock medians of 3 runs; speedup = seconds at 1 thread / best; \
         parallel speedup requires host_cores > 1{}",
        if host_cores == 1 {
            " — this run used a 1-core host, so the timings document determinism and pool \
             overhead, not speedup"
        } else {
            ""
        }
    );
    let doc = Obj::block()
        .field("host_cores", host_cores)
        .field("thread_counts", Json::list(THREAD_COUNTS))
        .field("all_bit_identical", all_identical)
        .field("note", note)
        .field("workloads", workloads);
    println!();
    write_json(&out, doc);
    assert!(
        all_identical,
        "determinism contract violated: results differ across thread counts"
    );
}
