//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <churn|quiet_verified|fleet_failover|mttf_mc>
//!           --seed <n> --seconds <s> --trace <0|1> [--quick] [--trace-out <dir>]
//! ```
//!
//! Every workload builds its inputs from `--seed`, repeats whole passes
//! of a fixed, seeded amount of simulated work until `--seconds` have
//! passed, checks the modelled outputs, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing, `work_per_s` in reference seconds (host seconds scaled by a
//! fixed probe timed around each pass, see `probe.rs`; the host-second
//! figure is printed on the line before); with `--trace 1` they are the
//! per-layer ones, from passes driven by the benchmark's own loops with
//! a span around each call into a layer (see `trace.rs`), alternated
//! with untraced passes to measure the tracing overhead. The spans of
//! the last traced pass are written as CSV under `--trace-out` (default
//! `perfbench/traces`).
//!
//! The process exits 1 if any output check failed, 2 on bad arguments.
//! See `README.md` for the metrics and why each workload exists.

// A benchmark's timing is wall-clock by definition; the repository's
// ban on `Instant::now` guards its deterministic crates.
#![allow(clippy::disallowed_methods)]

mod fleet;
mod mc;
mod probe;
mod report;
mod sessions;
mod trace;

use mms_server::exec::SeedSequence;
use probe::HostClock;
use report::{Checks, Digest, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, Tracer, LAYERS};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["churn", "quiet_verified", "fleet_failover", "mttf_mc"];

/// Untraced (end-to-end metrics) or traced (per-layer metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Traced,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    /// Small inputs, for the benchmark's own tests.
    pub quick: bool,
    /// Worker threads of the fan-out workloads: `min(2, host cores)`.
    pub threads: usize,
    /// Extra set-ups timed (and dropped) before each timed pass's own,
    /// so `setup_s` has several samples spread over the whole run.
    pub setup_reps: usize,
    /// Run every seeded day at least once, even when `seconds` have
    /// already passed.
    pub every_day: bool,
    pub trace_out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--trace-out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut quick = false;
    let mut trace_out = PathBuf::from("perfbench/traces");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds must be in [0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value {
                    "0" => Mode::Timed,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--trace-out" => trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--trace is required")?,
        quick,
        threads: cores.min(2),
        setup_reps: if quick { 1 } else { 4 },
        every_day: !quick && mode == Some(Mode::Timed),
        trace_out,
    })
}

/// A traced pass's outcome.
pub struct Traced<R> {
    /// What the traced loops modelled; must equal the untraced pass.
    pub result: R,
    /// `(traced, untraced)` seconds of the same work, for
    /// `trace.overhead_frac`, where that is not this pass's wall time
    /// against the plain pass's.
    pub overhead: Option<(f64, f64)>,
    /// Per-layer values measured by this pass.
    pub values: Vec<(&'static str, f64)>,
}

/// One workload: a fixed, seeded pass of simulated work, run by the
/// program's own run loops (timed) or by the benchmark's (traced).
pub trait Workload {
    /// Everything a pass builds before it runs.
    type Setup;
    /// What a pass modelled: equal for equal seeds, whichever loop ran it.
    type Result: PartialEq + std::fmt::Debug;
    /// Build day `day`'s servers, engines and catalogs.
    fn setup(&self, ctx: &Ctx, day: u64) -> Self::Setup;
    /// Run day `day` with the program's own run loops.
    fn run(&self, ctx: &Ctx, day: u64, setup: Self::Setup) -> Self::Result;
    /// Distinct seeded days a timed run cycles through: timed pass `p`
    /// models day `1 + p % days` (day 0 is the warm-up). Enough of them
    /// that their sum holds about the same work for every seed.
    fn days(&self) -> u64 {
        12
    }
    /// Units of work in one pass: simulated cycles, or trials.
    fn work(&self, ctx: &Ctx) -> f64;
    /// Operations offered and refused in one pass.
    fn attempted_refused(&self, result: &Self::Result) -> (u64, u64);
    /// Digest of every modelled counter of a pass.
    fn digest(&self, result: &Self::Result) -> Digest;
    /// Output checks on a pass's result.
    fn check(&self, result: &Self::Result, checks: &mut Checks);
    /// Build and run day `day` with the benchmark's own loops,
    /// recording spans in `tr` under one root span.
    fn traced(
        &self,
        ctx: &Ctx,
        day: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Traced<Self::Result>;
    /// Per-layer measurements made once per traced run, after the passes.
    fn finish(&self, _ctx: &Ctx, _out: &mut Outcome) {}
}

impl Ctx {
    /// The seeds of day `day`: each day draws from its own stream of
    /// the run's seed.
    pub fn seeds(&self, day: u64) -> SeedSequence {
        SeedSequence::new(SeedSequence::new(self.seed).seed(day))
    }
}

/// Measure `w`: a warm-up pass (day 0, checked and digested but not
/// timed), then timed passes until `ctx.seconds` have passed — each
/// after `ctx.setup_reps` extra timed set-ups, and each followed by a
/// reference probe (see `probe.rs`) that turns its host seconds into
/// reference seconds. Timed runs cycle through days 1..=`w.days()`;
/// `work_per_s` is the days' work over the sum of each day's median
/// pass in reference seconds, and `setup_s` the median set-up in host
/// seconds (set-up barely slows with the host, see `README.md`).
/// Traced runs repeat day 1, so their modelled values depend on the
/// seed alone: each timed pass is followed by a traced run of the same
/// day, which must model exactly what the timed one did, and each
/// per-layer value is the median over the traced passes.
pub fn measure<W: Workload>(w: &W, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let warm_up = w.run(ctx, 0, w.setup(ctx, 0));
    w.check(&warm_up, &mut out.checks);
    out.digest = w.digest(&warm_up);
    (out.attempted, out.refused) = w.attempted_refused(&warm_up);

    // Set-up times in host seconds, pass times in reference and in
    // host seconds.
    let mut setup_s = Vec::new();
    let days = w.days();
    let min_passes = if ctx.every_day { days as usize } else { 1 };
    let mut pass_s = vec![Vec::new(); days as usize];
    let mut host_pass_s = vec![Vec::new(); days as usize];
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_trace = None;
    let mut clock = HostClock::new();
    let started = Instant::now();
    while out.passes < min_passes || started.elapsed().as_secs_f64() < ctx.seconds {
        let day = match ctx.mode {
            Mode::Timed => 1 + out.passes as u64 % days,
            Mode::Traced => 1,
        };
        for _ in 0..ctx.setup_reps {
            let t0 = Instant::now();
            let s = w.setup(ctx, day);
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(std::hint::black_box(s));
        }
        let t0 = Instant::now();
        let s = w.setup(ctx, day);
        let t1 = Instant::now();
        let r = w.run(ctx, day, s);
        let t2 = Instant::now();
        let scale = clock.scale();
        setup_s.push((t1 - t0).as_secs_f64());
        let run_s = (t2 - t1).as_secs_f64();
        pass_s[(day - 1) as usize].push(run_s * scale);
        host_pass_s[(day - 1) as usize].push(run_s);
        w.check(&r, &mut out.checks);
        let (attempted, refused) = w.attempted_refused(&r);
        out.attempted += attempted;
        out.refused += refused;
        if ctx.mode == Mode::Traced {
            let mut tr = Tracer::default();
            let t3 = Instant::now();
            let t = w.traced(ctx, day, &mut tr, &mut out.checks);
            let outside_ns = t3.elapsed().as_nanos() as u64;
            out.checks.equal(
                "the traced loops reproduce the program's run loops",
                &t.result,
                &r,
            );
            let (traced, plain) = t
                .overhead
                .unwrap_or((tr.wall_ns() as f64 * 1e-9, (t2 - t0).as_secs_f64()));
            traced_s.push(traced);
            plain_s.push(plain);
            for (key, value) in t.values {
                traced_values.entry(key).or_default().push(value);
            }
            last_trace = Some((tr, outside_ns));
        }
        out.passes += 1;
    }
    out.values.insert("setup_s", median(&setup_s));
    let work = w.work(ctx);
    out.values.insert("work_per_s", work_per_s(work, &pass_s));
    out.values
        .insert("host.work_per_s", work_per_s(work, &host_pass_s));
    out.values
        .insert("host.probe_ms", median(&clock.probes_ns) * 1e-6);
    if let Some((tr, outside_ns)) = last_trace {
        for (key, values) in traced_values {
            out.values.insert(key, median(&values));
        }
        insert_trace_totals(&mut out, &tr, outside_ns, &traced_s, &plain_s);
        write_spans(ctx, &tr);
        w.finish(ctx, &mut out);
    }
    out
}

/// Simulated work per second: each day run counts its median pass
/// (`pass_s[d]` holds day `d + 1`'s pass times), and the days together
/// average out how much work each seeded day holds.
fn work_per_s(work: f64, pass_s: &[Vec<f64>]) -> f64 {
    let days: Vec<f64> = pass_s
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| median(p))
        .collect();
    days.len() as f64 * work / days.iter().sum::<f64>()
}

/// The tracing totals every traced run reports: overhead against the
/// untraced passes, the last traced pass's wall time and its self time
/// per layer, and the span count. The self times must add up to no more
/// than the pass's wall time as timed from outside the tracer
/// (`outside_ns`).
fn insert_trace_totals(
    out: &mut Outcome,
    tr: &Tracer,
    outside_ns: u64,
    traced_s: &[f64],
    plain_s: &[f64],
) {
    let v = &mut out.values;
    v.insert(
        "trace.overhead_frac",
        median(traced_s) / median(plain_s) - 1.0,
    );
    v.insert("trace.wall_ms", tr.wall_ns() as f64 * 1e-6);
    let by_layer = tr.self_ns_by_layer();
    for (layer, key) in LAYERS {
        v.insert(key, by_layer.get(layer).copied().unwrap_or(0) as f64 * 1e-6);
    }
    v.insert("trace.spans", tr.spans().len() as f64);
    v.insert("trace.passes", traced_s.len() as f64);
    let self_total: u64 = by_layer.values().sum();
    out.checks.check(self_total <= outside_ns, || {
        format!(
            "per-layer self times ({self_total} ns) exceed the traced pass's wall time \
             ({outside_ns} ns)"
        )
    });
}

/// Write the last traced pass's spans (a failure to write is reported,
/// not fatal: the measurements stand without the file).
fn write_spans(ctx: &Ctx, tr: &Tracer) {
    let path = ctx
        .trace_out
        .join(format!("{}-seed{}.csv", ctx.workload, ctx.seed));
    if let Err(e) = tr.write_csv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Worker threads the workload runs on. `fleet_failover` hands
    // `ctx.threads` to `FleetBuilder::parallelism`, but `Fleet::step`
    // steps its nodes one after another, so it still runs on one.
    let threads = match ctx.workload {
        "mttf_mc" => ctx.threads,
        _ => 1,
    };
    let mut out = match ctx.workload {
        "churn" => measure(&sessions::CHURN, &ctx),
        "quiet_verified" => measure(&sessions::QUIET, &ctx),
        "fleet_failover" => measure(&fleet::FleetFailover, &ctx),
        "mttf_mc" => measure(&mc::MttfMc, &ctx),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    out.values.insert("peak_rss_mib", report::peak_rss_mib());
    if ctx.mode == Mode::Traced {
        out.values.insert("exec.threads", threads as f64);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} mode={} host_cores={cores} threads={threads} \
         passes={} quick={} checks={}",
        ctx.workload,
        ctx.seed,
        if ctx.mode == Mode::Traced {
            "traced"
        } else {
            "timed"
        },
        out.passes,
        ctx.quick,
        out.checks.run(),
    );
    println!(
        "digest {} seed={}: {}",
        ctx.workload,
        ctx.seed,
        out.digest.hex()
    );
    if ctx.mode == Mode::Timed {
        println!(
            "host seconds: work_per_s={} probe_ms={} (reference probe {} ms)",
            out.values["host.work_per_s"],
            out.values["host.probe_ms"],
            probe::REFERENCE_NS * 1e-6,
        );
    }
    for failure in out.checks.failures() {
        println!("check failed: {failure}");
    }
    let catalog: &[(&str, &str)] = match ctx.mode {
        Mode::Timed => &END_TO_END,
        Mode::Traced => &PER_LAYER,
    };
    println!("{}", report::result_line(&out, catalog));
    if out.checks.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
