//! Fleet-tier throughput and reliability, written to `BENCH_fleet.json`.
//!
//! One 8-node fleet (chained-declustered catalog, replicated control
//! plane) runs a "million-session day": every node drives its shard of
//! the catalog through the heavy-traffic session engine in
//! `StepMode::EventHorizon`, and the default horizon offers over a
//! million session lifecycles in a single run. The same pass is
//! executed at 1, 2, and 8 worker threads; `bit_identical` records
//! that all three produced byte-for-byte the same shard report and
//! Monte-Carlo estimates, which is the determinism contract and must
//! hold on any host.
//!
//! Alongside throughput, the bench reports the fleet's node-level
//! reliability: Monte-Carlo MTTF (chained declustering dies on an
//! adjacent node pair, the node-level image of the paper's Eq. 5
//! adjacency condition) and MTTDS (the control plane masks
//! `ceil(N/2) - 1` concurrent node failures; one more stalls decrees).
//!
//! Usage: `bench_fleet [output.json] [--quick]`
//!
//! `--quick` shrinks the horizon and trial count for CI smoke runs.

use mms_bench::harness::{parse_args, sweep, write_json, Json, Obj};
use mms_fleet::{fleet_mttds, fleet_mttf, FleetBuilder, ShardReport, ShardedLoad};
use mms_server::disk::{ReliabilityParams, Time};
use mms_server::sim::{SplitMix64, StepMode};
use mms_server::Parallelism;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 1995;
const NODES: usize = 8;
const MOVIES: usize = 32;
const TRACKS: u64 = 100;
const LOAD: f64 = 0.9;
/// Node-level reliability for the Monte-Carlo estimators. Whole nodes
/// fail far more often than the paper's disks (software, power, ops);
/// more importantly the 10:1 MTTF:MTTR ratio keeps trials tractable —
/// MTTDS needs `ceil(N/2)` *concurrent* node outages, which at
/// disk-like ratios is so rare a single trial needs ~1e8 events.
const NODE_MTTF_H: f64 = 1_000.0;
const NODE_MTTR_H: f64 = 100.0;

/// Everything one pass produces; compared verbatim across thread
/// counts (f64s via `to_bits`, so "identical" means identical).
#[derive(PartialEq)]
struct PassResult {
    report: ShardReport,
    mttf_bits: u64,
    mttds_bits: u64,
}

fn run_pass(par: Parallelism, cycles: u64, trials: usize) -> PassResult {
    let mut fleet = FleetBuilder::new(NODES)
        .catalog(MOVIES, TRACKS)
        .step_mode(StepMode::EventHorizon)
        .parallelism(par)
        .control_seed(SEED)
        .build()
        .expect("bench fleet geometry builds");
    let report = fleet
        .run_sharded_sessions(&ShardedLoad {
            cycles,
            load: LOAD,
            seed: SEED,
            ..ShardedLoad::default()
        })
        .expect("failure-free sharded run cannot error");
    let rel = ReliabilityParams {
        mttf: Time::from_hours(NODE_MTTF_H),
        mttr: Time::from_hours(NODE_MTTR_H),
    };
    let mut rng = SplitMix64::new(SEED);
    let mttf = fleet_mttf(NODES, rel, &mut rng, trials, par);
    let mttds = fleet_mttds(NODES, rel, &mut rng, trials, par);
    PassResult {
        report,
        mttf_bits: mttf.mean.as_hours().to_bits(),
        mttds_bits: mttds.mean.as_hours().to_bits(),
    }
}

fn main() {
    let (out, quick) = parse_args("BENCH_fleet.json");
    // ~30 sessions/cycle at this geometry: 50k cycles offers ~1.5M.
    let cycles: u64 = if quick { 1_500 } else { 50_000 };
    let trials: usize = if quick { 50 } else { 2_000 };
    println!(
        "fleet bench: {NODES} nodes, {MOVIES} movies x {TRACKS} tracks, load {LOAD}, \
         {cycles} cycles, {trials} Monte-Carlo trials"
    );

    let runs = sweep(&THREAD_COUNTS, 1, |par| run_pass(par, cycles, trials));
    let pass = &runs.result;
    let (r, bit_identical) = (pass.report, runs.bit_identical);
    for (threads, secs) in &runs.seconds {
        println!(
            "{threads} thread(s): {secs:.2}s, {} session(s) offered",
            r.offered
        );
    }
    let mttf_h = f64::from_bits(pass.mttf_bits);
    let mttds_h = f64::from_bits(pass.mttds_bits);
    println!("sessions offered  : {}", r.offered);
    println!("fleet MTTF        : {mttf_h:.1} h (adjacent node pair)");
    println!("fleet MTTDS       : {mttds_h:.1} h (control-plane quorum loss)");
    println!("bit-identical across {THREAD_COUNTS:?} threads: {bit_identical}");

    let doc = Obj::block()
        .field("quick", quick)
        .field("seed", SEED)
        .field("nodes", NODES)
        .field(
            "catalog",
            format!("{MOVIES} movies x {TRACKS} tracks, chained declustering"),
        )
        .field("cycles", cycles)
        .field("load", LOAD)
        .field("thread_counts", Json::list(THREAD_COUNTS))
        .field("bit_identical", bit_identical)
        .field("seconds_per_pass", runs.seconds_json(2))
        .field(
            "sessions",
            Obj::block()
                .field("offered", r.offered)
                .field("admitted", r.admitted)
                .field("rejected", r.rejected)
                .field("balked", r.balked)
                .field("released_early", r.released_early)
                .field("delivered_tracks", r.delivered)
                .field("hiccups", r.hiccups),
        )
        .field(
            "reliability",
            Obj::block()
                .field("node_mttf_hours", NODE_MTTF_H)
                .field("node_mttr_hours", NODE_MTTR_H)
                .field("trials", trials)
                .fixed("fleet_mttf_hours", mttf_h, 1)
                .fixed("fleet_mttds_hours", mttds_h, 1),
        )
        .field(
            "note",
            "one fleet-wide pass; MTTF = adjacent node pair fatal (chained declustering), \
             MTTDS = ceil(N/2) concurrent node failures stall the control plane",
        );
    write_json(&out, doc);
    if !quick {
        assert!(
            r.offered >= 1_000_000,
            "horizon must offer a million-session day (got {})",
            r.offered
        );
    }
    assert!(
        bit_identical,
        "determinism contract violated: results differ across thread counts"
    );
}
