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

use mms_bench::bench_server;
use mms_bench::harness::{host_cores, parse_args, timed, write_json, Json, Obj};
use mms_server::layout::ObjectId;
use mms_server::sim::{AdmissionPolicy, ArrivalProcess, SessionEngine, StepMode};
use mms_server::{MultimediaServer, Scheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let cfg = *bench_server(scheme, 1, 1).cycle_config();
    let tracks = cfg.k as u64 * (cycles / cfg.read_period() as u64 + 2);
    let mut server = bench_server(scheme, 1, tracks);
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
    let ((), secs) = timed(|| server.run(cycles).expect("steady run"));
    (outcome(&server, 0), secs)
}

/// Churn run: Poisson arrivals over a Zipf catalog of finite movies.
fn run_sessions(scheme: Scheme, rate: f64, cycles: u64, mode: StepMode) -> (Outcome, f64) {
    let mut server = bench_server(scheme, MOVIES, TRACKS);
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
    let ((), secs) = timed(|| {
        server
            .run_sessions(cycles, &mut engine, &mut rng)
            .expect("churn run")
    });
    (outcome(&server, engine.stats().rejected), secs)
}

/// Run `run` in both step modes and assert they computed the same
/// outcome. Returns it with the (cycle-by-cycle, event-horizon) seconds.
fn both_modes(what: &str, run: impl Fn(StepMode) -> (Outcome, f64)) -> (Outcome, (f64, f64)) {
    let (slow, slow_secs) = run(StepMode::CycleByCycle);
    let (fast, fast_secs) = run(StepMode::EventHorizon);
    assert_eq!(slow, fast, "{what} outcomes diverged between step modes");
    (fast, (slow_secs, fast_secs))
}

/// Measure one load point of `scheme` in both step modes, print it, and
/// return its line of the scheme's array with the steady-state speedup.
fn cell(scheme: Scheme, load: f64, rate: f64, cycles: u64) -> (Obj, f64) {
    let label = scheme.abbrev();
    let (_, steady) = both_modes(&format!("{label} load {load}: steady"), |mode| {
        run_steady(scheme, load, cycles, mode)
    });
    let (churn_out, churn) = both_modes(&format!("{label} rate {rate}: churn"), |mode| {
        run_sessions(scheme, rate, cycles, mode)
    });
    let per_sec = |secs: f64| cycles as f64 / secs;
    println!(
        "{label} load {load:.1}: steady {:.0} -> {:.0} cyc/s ({:.1}x), \
         churn {:.0} -> {:.0} cyc/s",
        per_sec(steady.0),
        per_sec(steady.1),
        steady.0 / steady.1,
        per_sec(churn.0),
        per_sec(churn.1),
    );
    let modes = |(slow, fast): (f64, f64)| {
        Obj::inline()
            .fixed("cycle_by_cycle", per_sec(slow), 1)
            .fixed("event_horizon", per_sec(fast), 1)
            .fixed("speedup", slow / fast, 2)
    };
    let finished = churn_out.finished;
    let row = Obj::inline()
        .fixed("load", load, 2)
        .field("steady_cycles_per_sec", modes(steady))
        .fixed("churn_rate_per_cycle", rate, 2)
        .fixed("quiescent_fraction", (-rate).exp(), 3)
        .field("churn_cycles_per_sec", modes(churn))
        .field(
            "sessions_per_sec",
            Obj::inline()
                .fixed("cycle_by_cycle", finished as f64 / churn.0, 1)
                .fixed("event_horizon", finished as f64 / churn.1, 1),
        )
        .field("sessions_finished", finished);
    (row, steady.0 / steady.1)
}

fn main() {
    let (out, quick) = parse_args("BENCH_steady.json");
    let cycles: u64 = if quick { 1_500 } else { 20_000 };

    let mut schemes = Obj::block();
    let mut min_speedup = f64::INFINITY;
    for scheme in Scheme::ALL {
        let mut rows = Vec::new();
        for (load, rate) in LOADS {
            let (row, speedup) = cell(scheme, load, rate, cycles);
            min_speedup = min_speedup.min(speedup);
            rows.push(row);
        }
        schemes.push(scheme.abbrev(), Json::rows(rows));
    }
    println!("minimum steady-state speedup across all cells: {min_speedup:.1}x");

    let doc = Obj::block()
        .field("quick", quick)
        .field("seed", SEED)
        .field("cycles_per_cell", cycles)
        .field("host_cores", host_cores())
        .field(
            "note",
            "single-threaded wall-clock; both step modes of every cell are asserted \
             observably identical before any speedup is reported",
        )
        .fixed("min_steady_speedup", min_speedup, 2)
        .field("schemes", schemes);
    write_json(&out, doc);
    if !quick {
        assert!(
            min_speedup >= 5.0,
            "acceptance: event-horizon must be >= 5x on the steady workload \
             for every scheme (got {min_speedup:.2}x)"
        );
    }
}
