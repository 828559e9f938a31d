//! Steady-state simulation throughput, cycle-by-cycle vs. event-horizon
//! fast-forward, written to `BENCH_steady.json`.
//!
//! Two measurements per scheme (SR/SG/NC/IB) x load point:
//!
//! * **steady** — a fixed population of streams (a fraction of the
//!   scheme's admission capacity) plays long objects with no arrivals
//!   or departures inside the horizon. Every cycle after warm-up is
//!   quiescent, so this is the fast path's best case and the
//!   acceptance gate: event-horizon mode must sustain at least 5x the
//!   cycles/sec of per-cycle stepping for every scheme.
//! * **sessions** — Poisson arrivals at a low rate (0.02-0.10 per
//!   cycle, so 90-98% of cycles are arrival-free) over a Zipf catalog
//!   of nominal-length movies, driven by a `SessionEngine` that turns
//!   blocked arrivals away and lets every viewer watch to the end,
//!   measuring sessions finished per second of wall clock as streams
//!   churn through the server.
//!
//! Both modes of every cell run from the same seed, and the bin
//! asserts the observable outcomes (tracks read, deliveries, hiccups,
//! finishes, rejections) are identical before it reports a speedup —
//! a throughput number for a run that computed something different
//! would be meaningless.
//!
//! Usage: `bench_steady [output.json] [--quick]`
//!
//! `--quick` shrinks the horizon for CI smoke runs and skips the 5x
//! assertion (sub-second cells are timing noise); the equality
//! assertions always run.

use mms_server::layout::{BandwidthClass, MediaObject, ObjectId};
use mms_server::sim::{AdmissionPolicy, ArrivalProcess, DataMode, SessionEngine, StepMode};
use mms_server::{MultimediaServer, Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SCHEMES: [(Scheme, &str); 4] = [
    (Scheme::StreamingRaid, "SR"),
    (Scheme::StaggeredGroup, "SG"),
    (Scheme::NonClustered, "NC"),
    (Scheme::ImprovedBandwidth, "IB"),
];
/// Steady-state population as a fraction of each scheme's capacity,
/// paired with the arrival rate used for the churn measurement.
const LOADS: [(f64, f64); 3] = [(0.3, 0.02), (0.6, 0.05), (0.9, 0.10)];
const SEED: u64 = 1995;
const THETA: f64 = 0.271;
const MOVIES: usize = 8;
/// Nominal catalog length for the churn cells (sessions finish and
/// free capacity); the steady cells use objects long enough that no
/// stream finishes inside the horizon.
const TRACKS: u64 = 200;

fn build(scheme: Scheme, movies: usize, tracks: u64) -> MultimediaServer {
    let disks = if scheme == Scheme::ImprovedBandwidth {
        8
    } else {
        10
    };
    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(5)
        .data_mode(DataMode::MetadataOnly);
    for m in 0..movies {
        builder = builder.object(MediaObject::new(
            ObjectId(m as u64),
            format!("movie-{m}"),
            tracks,
            BandwidthClass::Mpeg1,
        ));
    }
    builder.build().expect("bench cell builds")
}

/// What a run computed, independent of how fast it computed it.
#[derive(PartialEq, Debug)]
struct Outcome {
    cycle: u64,
    tracks_read: u64,
    delivered: u64,
    hiccups: u64,
    finished: u64,
    rejected: u64,
}

fn outcome(server: &MultimediaServer, rejected: u64) -> Outcome {
    let m = server.metrics();
    Outcome {
        cycle: server.cycle(),
        tracks_read: m.tracks_read,
        delivered: m.delivered,
        hiccups: m.total_hiccups(),
        finished: m.streams_finished,
        rejected,
    }
}

/// Fixed-population run: admit the target concurrency, then let the
/// clock spin. Returns (outcome, wall seconds).
fn run_steady(scheme: Scheme, load: f64, cycles: u64, mode: StepMode) -> (Outcome, f64) {
    // One movie, sized from the scheme's own cycle geometry so that no
    // stream finishes inside the horizon: a stream consumes `k` data
    // tracks every `read_period` cycles.
    let cfg = *build(scheme, 1, 1).cycle_config();
    let tracks = cfg.k as u64 * (cycles / cfg.read_period() as u64 + 2);
    let mut server = build(scheme, 1, tracks);
    server.set_step_mode(mode);
    let target = ((server.stream_capacity() as f64 * load) as usize).max(1);
    let objects: Vec<ObjectId> = server.objects().to_vec();
    // Best-effort fill: some schemes bound admission below the nominal
    // stream capacity (per-group or buffer constraints), so take what
    // the scheme actually grants at this load point.
    for i in 0..target {
        if server.admit(objects[i % objects.len()]).is_err() {
            break;
        }
    }
    #[allow(clippy::disallowed_methods)] // benchmark timing is wall-clock by definition
    let start = Instant::now();
    server.run(cycles).expect("steady run");
    let secs = start.elapsed().as_secs_f64();
    (outcome(&server, 0), secs)
}

/// Churn run: Poisson arrivals over a Zipf catalog of finite movies.
fn run_sessions(scheme: Scheme, rate: f64, cycles: u64, mode: StepMode) -> (Outcome, f64) {
    let mut server = build(scheme, MOVIES, TRACKS);
    server.set_step_mode(mode);
    let hold = server.cycle_config().session_cycles(TRACKS);
    let catalog = server.objects().iter().map(|&o| (o, hold)).collect();
    let mut engine = SessionEngine::new(
        catalog,
        THETA,
        ArrivalProcess::poisson(rate),
        AdmissionPolicy::Reject,
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    #[allow(clippy::disallowed_methods)] // benchmark timing is wall-clock by definition
    let start = Instant::now();
    server
        .run_sessions(cycles, &mut engine, &mut rng)
        .expect("churn run");
    let secs = start.elapsed().as_secs_f64();
    (outcome(&server, engine.stats().rejected), secs)
}

struct Cell {
    label: &'static str,
    load: f64,
    rate: f64,
    steady_slow: f64,
    steady_fast: f64,
    sessions_slow: f64,
    sessions_fast: f64,
    finished: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_steady.json".into());
    let cycles: u64 = if quick { 1_500 } else { 20_000 };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut cells: Vec<Cell> = Vec::new();
    for (scheme, label) in SCHEMES {
        for (load, rate) in LOADS {
            let (slow_out, steady_slow) = run_steady(scheme, load, cycles, StepMode::CycleByCycle);
            let (fast_out, steady_fast) = run_steady(scheme, load, cycles, StepMode::EventHorizon);
            assert_eq!(
                slow_out, fast_out,
                "{label} load {load}: steady outcomes diverged between step modes"
            );
            let (slow_out, sessions_slow) =
                run_sessions(scheme, rate, cycles, StepMode::CycleByCycle);
            let (fast_out, sessions_fast) =
                run_sessions(scheme, rate, cycles, StepMode::EventHorizon);
            assert_eq!(
                slow_out, fast_out,
                "{label} rate {rate}: churn outcomes diverged between step modes"
            );
            println!(
                "{label} load {load:.1}: steady {:.0} -> {:.0} cyc/s ({:.1}x), \
                 churn {:.0} -> {:.0} cyc/s",
                cycles as f64 / steady_slow,
                cycles as f64 / steady_fast,
                steady_slow / steady_fast,
                cycles as f64 / sessions_slow,
                cycles as f64 / sessions_fast,
            );
            cells.push(Cell {
                label,
                load,
                rate,
                steady_slow,
                steady_fast,
                sessions_slow,
                sessions_fast,
                finished: fast_out.finished,
            });
        }
    }

    let min_speedup = cells
        .iter()
        .map(|c| c.steady_slow / c.steady_fast)
        .fold(f64::INFINITY, f64::min);
    println!("minimum steady-state speedup across all cells: {min_speedup:.1}x");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"cycles_per_cell\": {cycles},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(
        "  \"note\": \"single-threaded wall-clock; both step modes of every cell are asserted \
         observably identical before any speedup is reported\",\n",
    );
    json.push_str(&format!("  \"min_steady_speedup\": {min_speedup:.2},\n"));
    json.push_str("  \"schemes\": {\n");
    for (si, (_, label)) in SCHEMES.iter().enumerate() {
        json.push_str(&format!("    \"{label}\": [\n"));
        let points: Vec<&Cell> = cells.iter().filter(|c| c.label == *label).collect();
        for (pi, c) in points.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"load\": {:.2}, \"steady_cycles_per_sec\": {{\"cycle_by_cycle\": \
                 {:.1}, \"event_horizon\": {:.1}, \"speedup\": {:.2}}}, \
                 \"churn_rate_per_cycle\": {:.2}, \"quiescent_fraction\": {:.3}, \
                 \"churn_cycles_per_sec\": {{\"cycle_by_cycle\": {:.1}, \"event_horizon\": \
                 {:.1}, \"speedup\": {:.2}}}, \"sessions_per_sec\": {{\"cycle_by_cycle\": \
                 {:.1}, \"event_horizon\": {:.1}}}, \"sessions_finished\": {}}}{}\n",
                c.load,
                cycles as f64 / c.steady_slow,
                cycles as f64 / c.steady_fast,
                c.steady_slow / c.steady_fast,
                c.rate,
                (-c.rate).exp(),
                cycles as f64 / c.sessions_slow,
                cycles as f64 / c.sessions_fast,
                c.sessions_slow / c.sessions_fast,
                c.finished as f64 / c.sessions_slow,
                c.finished as f64 / c.sessions_fast,
                c.finished,
                if pi + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str(if si + 1 == SCHEMES.len() {
            "    ]\n"
        } else {
            "    ],\n"
        });
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
    if !quick {
        assert!(
            min_speedup >= 5.0,
            "acceptance: event-horizon must be >= 5x on the steady workload \
             for every scheme (got {min_speedup:.2}x)"
        );
    }
}
