//! The two session workloads: the four schemes in turn, each a server
//! under a `SessionEngine`, one disk failure part-way through, then a
//! parity rebuild.
//!
//! * `churn` — short movies at 0.9 × capacity with abandonment and VBR,
//!   metadata only, cycle by cycle: the session tick, planning, disk
//!   charging and the rebuild do the work; the oracle and fast-forward
//!   are bypassed.
//! * `quiet_verified` — long movies at 0.6 × capacity, every delivery
//!   verified, event-horizon stepping: fast-forward carries the healthy
//!   stretch, the oracle and XOR reconstruction the degraded tail.
//!
//! Viewers who find the server full queue (with a patience far beyond
//! any wait at these loads) instead of being turned away, so no session
//! is refused. The timed mode runs the program's own run loop
//! (`MultimediaServer::run_sessions`). The traced mode drives the same
//! calls from here — `SessionEngine::tick`, `Simulator::step`,
//! `SessionEngine::next_event_before`, `Simulator::advance_quiescent` —
//! with a span around each.

use crate::report::{Checks, Digest, Outcome};
use crate::trace::{median, quantile, Open, Tracer};
use crate::{Ctx, Traced, Workload};
use mms_server::disk::DiskId;
use mms_server::layout::{BandwidthClass, MediaObject, ObjectId};
use mms_server::sched::SchemeScheduler;
use mms_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, SessionEngine, SimError, StepMode,
};
use mms_server::telemetry::{Level, Recorder};
use mms_server::{AnyScheduler, MultimediaServer, Scheme, ServerBuilder, ServerError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

type Sim = mms_server::sim::Simulator<AnyScheduler>;

/// The disk that fails in every scheme's run.
const FAIL_DISK: DiskId = DiskId(2);
/// Zipf skew of the catalog (the repository's default).
const THETA: f64 = 0.271;
/// Queued viewers wait up to this many nominal session lengths.
const PATIENCE: u64 = 4;

/// Scheme, its tag, and its tag in the degraded phase.
const SCHEMES: [(Scheme, &str, &str); 4] = [
    (Scheme::StreamingRaid, "sr", "sr.degraded"),
    (Scheme::StaggeredGroup, "sg", "sg.degraded"),
    (Scheme::NonClustered, "nc", "nc.degraded"),
    (Scheme::ImprovedBandwidth, "ib", "ib.degraded"),
];

/// One session workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    movies: usize,
    tracks: u64,
    load: f64,
    abandon: f64,
    vbr: &'static [f64],
    data_mode: DataMode,
    step_mode: StepMode,
    /// Cycles per scheme (full size).
    cycles: u64,
    /// Cycles per scheme in quick runs.
    quick_cycles: u64,
    /// Fraction of the run after which the disk fails.
    fail_at: f64,
    /// Seeded days a timed run cycles through.
    days: u64,
}

/// `churn`: the control for the oracle and fast-forward.
pub const CHURN: Shape = Shape {
    movies: 16,
    tracks: 200,
    load: 0.9,
    abandon: 0.3,
    vbr: &[0.75, 1.0, 1.25],
    data_mode: DataMode::MetadataOnly,
    step_mode: StepMode::CycleByCycle,
    cycles: 5_000,
    quick_cycles: 400,
    fail_at: 0.4,
    days: 12,
};

/// `quiet_verified`: fast-forward, then the oracle's degraded tail.
pub const QUIET: Shape = Shape {
    movies: 8,
    tracks: 8_000,
    load: 0.6,
    abandon: 0.0,
    vbr: &[1.0],
    data_mode: DataMode::Verified { track_bytes: 512 },
    step_mode: StepMode::EventHorizon,
    cycles: 4_000,
    quick_cycles: 600,
    fail_at: 0.75,
    // A day's cost varies by about 17 % from day to day (how often
    // arrivals cut a fast-forward short), so a run sums more of them.
    days: 36,
};

/// One scheme's server, engine and arrival stream.
pub struct Node {
    server: MultimediaServer,
    engine: SessionEngine,
    rng: StdRng,
}

/// What one scheme's run modelled.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// `Metrics` and `SessionStats` renderings (neither is `PartialEq`).
    metrics: String,
    stats: String,
    offered: u64,
    admitted: u64,
    rejected: u64,
    balked: u64,
    queued_at_end: usize,
    delivered: u64,
    verified: u64,
    catastrophes: u64,
    /// Next draw of the arrival stream: equal only if both loops
    /// consumed the stream identically.
    rng_probe: u64,
    error: Option<String>,
}

impl SchemeResult {
    fn of(node: &Node, error: Option<ServerError>) -> Self {
        let s = node.engine.stats();
        let m = node.server.metrics();
        SchemeResult {
            metrics: format!("{m:?}"),
            stats: format!("{s:?}"),
            offered: s.offered,
            admitted: s.admitted,
            rejected: s.rejected,
            balked: s.balked,
            queued_at_end: node.engine.queue_len(),
            delivered: m.delivered,
            verified: m.verified,
            catastrophes: m.catastrophes,
            rng_probe: node.rng.clone().next_u64(),
            error: error.map(|e| e.to_string()),
        }
    }
}

impl Shape {
    fn cycles(&self, ctx: &Ctx) -> u64 {
        if ctx.quick {
            self.quick_cycles
        } else {
            self.cycles
        }
    }

    fn fail_cycle(&self, ctx: &Ctx) -> u64 {
        (self.cycles(ctx) as f64 * self.fail_at) as u64
    }

    fn build_server(&self, scheme: Scheme) -> MultimediaServer {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut builder = ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(5)
            .data_mode(self.data_mode)
            .step_mode(self.step_mode);
        for m in 0..self.movies {
            builder = builder.object(MediaObject::new(
                ObjectId(m as u64),
                format!("movie-{m}"),
                self.tracks,
                BandwidthClass::Mpeg1,
            ));
        }
        builder.build().expect("the workload geometry builds")
    }

    fn build_engine(&self, server: &MultimediaServer) -> SessionEngine {
        let cfg = server.cycle_config();
        let nominal = self.tracks.div_ceil(cfg.k as u64) * cfg.read_period() as u64;
        // Little's law: `load × capacity` concurrent sessions of mean
        // hold `nominal × (1 − abandon/2)` cycles (the ladders have mean 1).
        let rate = self.load * server.stream_capacity() as f64
            / (nominal as f64 * (1.0 - self.abandon / 2.0));
        let catalog: Vec<(ObjectId, u64)> =
            server.objects().iter().map(|&o| (o, nominal)).collect();
        SessionEngine::new(
            catalog,
            THETA,
            ArrivalProcess::poisson(rate),
            AdmissionPolicy::Queue {
                max_wait: PATIENCE * nominal,
            },
        )
        .with_vbr(self.vbr.to_vec())
        .with_abandonment(self.abandon)
    }

    fn node(&self, ctx: &Ctx, day: u64, ix: usize) -> Node {
        let server = self.build_server(SCHEMES[ix].0);
        let engine = self.build_engine(&server);
        Node {
            server,
            engine,
            rng: scheme_rng(ctx, day, ix),
        }
    }

    /// The program's own run loop for one scheme.
    fn run_plain(&self, ctx: &Ctx, node: &mut Node) -> Result<(), ServerError> {
        let fail_at = self.fail_cycle(ctx);
        node.server
            .run_sessions(fail_at, &mut node.engine, &mut node.rng)?;
        fail_and_rebuild(&mut node.server)?;
        node.server
            .run_sessions(self.cycles(ctx) - fail_at, &mut node.engine, &mut node.rng)
    }

    /// One scheme under the traced loop.
    fn run_traced(
        &self,
        ctx: &Ctx,
        tr: &mut Tracer,
        root: Open,
        node: &mut Node,
        tags: (&'static str, &'static str),
        b: &mut Boundary,
    ) -> Result<(), ServerError> {
        let fail_at = self.fail_cycle(ctx);
        let Node {
            server,
            engine,
            rng,
        } = node;
        let period = server
            .simulator()
            .scheduler()
            .plan_stability(server.cycle())
            .period;
        let mut healthy = Segment {
            tr: &mut *tr,
            root,
            tag: tags.0,
            period,
            b: &mut *b,
        };
        healthy.run(server.simulator_mut(), engine, rng, fail_at)?;
        let id = tr.new_trace();
        tr.time("server.fail_and_rebuild", tags.1, id, Some(root), || {
            fail_and_rebuild(server)
        })?;
        let mut degraded = Segment {
            tr,
            root,
            tag: tags.1,
            period,
            b,
        };
        degraded.run(
            server.simulator_mut(),
            engine,
            rng,
            self.cycles(ctx) - fail_at,
        )?;
        Ok(())
    }
}

/// Each scheme draws from its own stream of the day's seeds.
fn scheme_rng(ctx: &Ctx, day: u64, ix: usize) -> StdRng {
    StdRng::seed_from_u64(ctx.seeds(day).seed(ix as u64))
}

fn fail_and_rebuild(server: &mut MultimediaServer) -> Result<(), ServerError> {
    server.inject(FailureEvent::fail(server.cycle(), FAIL_DISK))?;
    server.start_parity_rebuild(FAIL_DISK)
}

/// Counts the traced loop keeps at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
struct Boundary {
    /// `advance_quiescent` calls that probed a rotation.
    probes: u64,
    /// Probes that went on to skip at least one rotation.
    probes_skipping: u64,
    /// Cycles applied in closed form.
    skipped: u64,
    /// Cycles stepped while a rebuild was running.
    rebuild_cycles: u64,
}

/// One segment of `Simulator::run_sessions`, driven from here with a
/// span around each layer call.
struct Segment<'a> {
    tr: &'a mut Tracer,
    root: Open,
    tag: &'static str,
    /// The scheme's plan rotation: a probe steps this many cycles.
    period: u64,
    b: &'a mut Boundary,
}

impl Segment<'_> {
    fn run(
        &mut self,
        sim: &mut Sim,
        engine: &mut SessionEngine,
        rng: &mut StdRng,
        cycles: u64,
    ) -> Result<(), SimError> {
        let (tr, root, tag) = (&mut *self.tr, Some(self.root), self.tag);
        let end = sim.cycle() + cycles;
        let event_horizon = sim.step_mode() == StepMode::EventHorizon;
        while sim.cycle() < end {
            let id = tr.new_trace();
            let cycle = sim.cycle();
            let (sched, _) = sim.scheduler_and_oracle();
            tr.time("session.tick", tag, id, root, || {
                engine.tick(cycle, sched, rng)
            });
            self.b.rebuild_cycles += u64::from(!sim.rebuilds().active().is_empty());
            tr.time("sim.step", tag, id, root, || sim.step())?;
            if !event_horizon {
                continue;
            }
            while sim.cycle() < end {
                let from = sim.cycle();
                let next = tr.time("session.next_event", tag, id, root, || {
                    engine.next_event_before(from, end, rng)
                });
                if next <= from {
                    break;
                }
                let advanced =
                    tr.time("ff.advance", tag, id, root, || sim.advance_quiescent(next))?;
                if advanced == 0 {
                    break;
                }
                self.b.probes += 1;
                if advanced > self.period {
                    self.b.probes_skipping += 1;
                    self.b.skipped += advanced - self.period;
                }
            }
        }
        Ok(())
    }
}

impl Workload for Shape {
    type Setup = Vec<Node>;
    type Result = Vec<SchemeResult>;

    fn setup(&self, ctx: &Ctx, day: u64) -> Vec<Node> {
        (0..SCHEMES.len())
            .map(|ix| self.node(ctx, day, ix))
            .collect()
    }

    fn run(&self, ctx: &Ctx, _day: u64, nodes: Vec<Node>) -> Vec<SchemeResult> {
        nodes
            .into_iter()
            .map(|mut node| {
                let error = self.run_plain(ctx, &mut node).err();
                SchemeResult::of(&node, error)
            })
            .collect()
    }

    fn days(&self) -> u64 {
        self.days
    }

    fn work(&self, ctx: &Ctx) -> f64 {
        (self.cycles(ctx) * SCHEMES.len() as u64) as f64
    }

    fn attempted_refused(&self, results: &Vec<SchemeResult>) -> (u64, u64) {
        let offered = results.iter().map(|r| r.offered).sum();
        let refused = results.iter().map(|r| r.rejected + r.balked).sum();
        (offered, refused)
    }

    fn digest(&self, results: &Vec<SchemeResult>) -> Digest {
        let mut d = Digest::default();
        for r in results {
            d.add(&r.metrics);
            d.add(&r.stats);
            d.add(&r.queued_at_end);
        }
        d
    }

    fn check(&self, results: &Vec<SchemeResult>, checks: &mut Checks) {
        for (r, &(_, tag, _)) in results.iter().zip(SCHEMES.iter()) {
            checks.check(r.error.is_none(), || {
                format!("{tag}: run failed: {}", r.error.as_deref().unwrap_or(""))
            });
            checks.equal(
                &format!("{tag}: offered == admitted + rejected + balked + still queued"),
                r.offered,
                r.admitted + r.rejected + r.balked + r.queued_at_end as u64,
            );
            checks.equal(
                &format!("{tag}: catastrophes after one disk failure"),
                r.catastrophes,
                0,
            );
            checks.check(r.delivered > 0, || format!("{tag}: nothing delivered"));
            if matches!(self.data_mode, DataMode::Verified { .. }) {
                checks.equal(
                    &format!("{tag}: verified == delivered"),
                    r.verified,
                    r.delivered,
                );
            }
        }
    }

    fn traced(
        &self,
        ctx: &Ctx,
        day: u64,
        tr: &mut Tracer,
        _checks: &mut Checks,
    ) -> Traced<Vec<SchemeResult>> {
        let mut b = Boundary::default();
        let mut results = Vec::new();
        let (mut verified, mut reconstructed, mut tracks, mut rebuild_reads) = (0, 0, 0, 0);
        let (mut buffer_peak, mut utilization, mut delivered, mut hiccups) = (0, 0.0, 0, 0);
        let id = tr.new_trace();
        let root = tr.open("bench.pass", "", id, None);
        for (ix, &(scheme, tag, degraded)) in SCHEMES.iter().enumerate() {
            let server = tr.time("server.build", tag, id, Some(root), || {
                self.build_server(scheme)
            });
            let engine = tr.time("engine.build", tag, id, Some(root), || {
                self.build_engine(&server)
            });
            let mut node = Node {
                server,
                engine,
                rng: scheme_rng(ctx, day, ix),
            };
            let error = self
                .run_traced(ctx, tr, root, &mut node, (tag, degraded), &mut b)
                .err();
            let m = node.server.metrics();
            verified += m.verified;
            reconstructed += m.reconstructed;
            tracks += m.tracks_read;
            rebuild_reads += m.rebuild_reads;
            buffer_peak = buffer_peak.max(m.buffer_peak);
            let disks = node.server.simulator().disks().len();
            let t_cyc = node.server.cycle_config().t_cyc();
            utilization += m.utilization(t_cyc, disks) / SCHEMES.len() as f64;
            delivered += m.delivered;
            hiccups += m.total_hiccups();
            results.push(SchemeResult::of(&node, error));
        }
        tr.close(root);

        let mut v = Vec::new();
        let tick = tr.durations("session.tick", |_| true);
        v.push(("session.tick_ns.p50", quantile(&tick, 0.5)));
        v.push(("session.tick_ns.p99", quantile(&tick, 0.99)));
        for (p50, p99, scheme) in [
            ("sim.step_ns.p50.sr", "sim.step_ns.p99.sr", "sr"),
            ("sim.step_ns.p50.sg", "sim.step_ns.p99.sg", "sg"),
            ("sim.step_ns.p50.nc", "sim.step_ns.p99.nc", "nc"),
            ("sim.step_ns.p50.ib", "sim.step_ns.p99.ib", "ib"),
        ] {
            let steps = tr.durations("sim.step", |t| t.starts_with(scheme));
            v.push((p50, quantile(&steps, 0.5)));
            v.push((p99, quantile(&steps, 0.99)));
        }
        let healthy = tr.durations("sim.step", |t| !t.ends_with(".degraded"));
        let degraded = tr.durations("sim.step", |t| t.ends_with(".degraded"));
        v.push(("sim.step_ns.p50.healthy", quantile(&healthy, 0.5)));
        v.push(("sim.step_ns.p50.degraded", quantile(&degraded, 0.5)));
        let track_bytes = match self.data_mode {
            DataMode::Verified { track_bytes } => track_bytes as u64,
            DataMode::MetadataOnly => 0,
        };
        v.push(("oracle.verified", verified as f64));
        v.push(("oracle.reconstructed", reconstructed as f64));
        v.push(("oracle.bytes_verified", (verified * track_bytes) as f64));
        let ff = tr.durations("ff.advance", |_| true);
        v.push(("ff.call_ns.p50", quantile(&ff, 0.5)));
        v.push(("ff.skipped_fraction", b.skipped as f64 / self.work(ctx)));
        v.push((
            "ff.probe_yield",
            b.probes_skipping as f64 / b.probes.max(1) as f64,
        ));
        let build = tr.durations("server.build", |_| true);
        v.push(("server.build_ns", quantile(&build, 0.5)));
        let engine = tr.durations("engine.build", |_| true);
        v.push(("engine.build_ns", quantile(&engine, 0.5)));
        v.push(("sim.tracks_read", tracks as f64));
        v.push(("sim.rebuild_reads", rebuild_reads as f64));
        v.push(("sim.buffer_peak", buffer_peak as f64));
        v.push(("disk.utilization", utilization));
        v.push(("server.rebuild_cycles", b.rebuild_cycles as f64));
        v.push((
            "model.stall_rate",
            hiccups as f64 / (delivered + hiccups).max(1) as f64,
        ));
        v.push((
            "model.sessions_offered",
            results.iter().map(|r| r.offered).sum::<u64>() as f64,
        ));
        Traced {
            result: results,
            overhead: None,
            values: v,
        }
    }

    /// `telemetry.info_ns_per_cycle` (churn only; telemetry is off in
    /// every workload): each scheme's run again, alternately plain and
    /// with an Info-level `Recorder` installed, three times each. The
    /// recorded runs must model exactly what the plain ones do.
    fn finish(&self, ctx: &Ctx, out: &mut Outcome) {
        if self.step_mode != StepMode::CycleByCycle {
            return;
        }
        let keys = [
            "telemetry.info_ns_per_cycle.sr",
            "telemetry.info_ns_per_cycle.sg",
            "telemetry.info_ns_per_cycle.nc",
            "telemetry.info_ns_per_cycle.ib",
        ];
        let mut mean = 0.0;
        for (ix, key) in keys.into_iter().enumerate() {
            let (mut plain_ns, mut info_ns) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let mut node = self.node(ctx, 0, ix);
                let t0 = Instant::now();
                let error = self.run_plain(ctx, &mut node).err();
                plain_ns.push(t0.elapsed().as_nanos() as f64);
                let plain = SchemeResult::of(&node, error);

                let mut node = self.node(ctx, 0, ix);
                let recorder = Recorder::new(Level::Info);
                let t0 = Instant::now();
                let error = {
                    let _guard = recorder.install();
                    self.run_plain(ctx, &mut node).err()
                };
                info_ns.push(t0.elapsed().as_nanos() as f64);
                out.checks.equal(
                    "an Info recorder leaves the simulation unchanged",
                    SchemeResult::of(&node, error),
                    plain,
                );
                out.checks.check(recorder.event_count() > 0, || {
                    "the Info recorder saw no events".to_string()
                });
            }
            let per_cycle = (median(&info_ns) - median(&plain_ns)) / self.cycles(ctx) as f64;
            out.values.insert(key, per_cycle);
            mean += per_cycle / keys.len() as f64;
        }
        out.values.insert("telemetry.info_ns_per_cycle", mean);
    }
}
