//! `fleet_failover`: an 8-node chained-declustered fleet under
//! Poisson/Zipf traffic. Node 3 fails, then the leader (node 0) fails,
//! which forces an election; both are repaired later. The two nodes are
//! not ring neighbours, so every object keeps a live replica and no data
//! is lost.
//!
//! The timed mode runs the program's own run loop
//! (`Fleet::run_with_traffic`); the traced mode draws the same arrivals
//! here and calls `Fleet::admit` and `Fleet::step` with a span around
//! each.

use crate::report::{Checks, Digest};
use crate::trace::{quantile, Open, Tracer};
use crate::{Ctx, Traced, Workload};
use mms_fleet::{
    ControlStats, Fleet, FleetBuilder, FleetError, FleetEvent, FleetMetrics, RouteError,
    TrafficReport,
};
use mms_server::sim::{poisson, Zipf};
use mms_server::Parallelism;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const NODES: usize = 8;
const MOVIES: usize = 32;
const TRACKS: u64 = 200;
const THETA: f64 = 0.271;
/// Offered load as a fraction of the whole fleet's stream capacity. Low
/// enough that the busiest node still has room while it also serves
/// its failed left neighbour's share (Zipf puts 28 % of the traffic on
/// nodes 0 and 1), so no viewer is turned away.
const LOAD: f64 = 0.2;
const CYCLES: u64 = 6_000;
const QUICK_CYCLES: u64 = 400;
/// `(fraction of the run, event)`: node 3 fails, the leader fails, node
/// 3 is repaired, the leader is repaired.
const SCRIPT: [(f64, Action); 4] = [
    (0.2, Action::Fail(3)),
    (0.4, Action::Fail(0)),
    (0.6, Action::Repair(3)),
    (0.75, Action::Repair(0)),
];

#[derive(Debug, Clone, Copy)]
enum Action {
    Fail(usize),
    Repair(usize),
}

/// The workload.
pub struct FleetFailover;

/// A built fleet with its script queued, and its traffic.
pub struct Setup {
    fleet: Fleet,
    rate: f64,
    rng: StdRng,
}

/// What one fleet run modelled.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    report: TrafficReport,
    metrics: FleetMetrics,
    control: ControlStats,
    leader: usize,
    stalled_sessions: usize,
    /// Every node's simulator metrics (`Debug`; they are not `PartialEq`).
    nodes: Vec<String>,
    /// Missed over scheduled track deliveries, failover stalls included.
    stall_rate: f64,
    /// Next draw of the arrival stream: equal only if both loops
    /// consumed the stream identically.
    rng_probe: u64,
    error: Option<String>,
}

impl FleetResult {
    fn of(s: &Setup, report: TrafficReport, error: Option<FleetError>) -> Self {
        let f = &s.fleet;
        let (mut delivered, mut hiccups) = (0u64, 0u64);
        let nodes = (0..f.nodes())
            .map(|n| {
                let m = f.node(n).metrics();
                delivered += m.delivered;
                hiccups += m.total_hiccups();
                format!("{m:?}")
            })
            .collect();
        // Failover stalls are counted in stream-cycles; at k' tracks per
        // stream-cycle they are missed track deliveries.
        let k_prime = f.node(0).cycle_config().k_prime as u64;
        let missed = hiccups + f.metrics().failover_hiccup_cycles * k_prime;
        FleetResult {
            report,
            metrics: *f.metrics(),
            control: *f.control_stats(),
            leader: f.control().leader(),
            stalled_sessions: f.stalled_sessions(),
            nodes,
            stall_rate: missed as f64 / (delivered + missed).max(1) as f64,
            rng_probe: s.rng.clone().next_u64(),
            error: error.map(|e| e.to_string()),
        }
    }
}

fn cycles(ctx: &Ctx) -> u64 {
    if ctx.quick {
        QUICK_CYCLES
    } else {
        CYCLES
    }
}

fn build(ctx: &Ctx, day: u64) -> Setup {
    let seeds = ctx.seeds(day);
    let mut fleet = FleetBuilder::new(NODES)
        .catalog(MOVIES, TRACKS)
        .parallelism(Parallelism::threads(ctx.threads))
        .control_seed(seeds.seed(0))
        .build()
        .expect("the fleet builds");
    for (at, action) in SCRIPT {
        let cycle = (cycles(ctx) as f64 * at) as u64;
        let event = match action {
            Action::Fail(n) => FleetEvent::fail_node(cycle, n),
            Action::Repair(n) => FleetEvent::repair_node(cycle, n),
        };
        fleet.inject(event).expect("a future event is queued");
    }
    let node = fleet.node(0);
    let cfg = node.cycle_config();
    let hold = TRACKS.div_ceil(cfg.k as u64) * cfg.read_period() as u64;
    let rate = LOAD * (NODES * node.stream_capacity()) as f64 / hold as f64;
    Setup {
        fleet,
        rate,
        rng: StdRng::seed_from_u64(seeds.seed(1)),
    }
}

/// `Fleet::run_with_traffic`, driven from here with a span around each
/// `admit` and `step`. Also returns the live nodes summed over steps.
fn run_traced(s: &mut Setup, n: u64, tr: &mut Tracer, root: Open) -> (FleetResult, u64) {
    let zipf = Zipf::new(s.fleet.placement().objects().len(), THETA);
    let mut report = TrafficReport::default();
    let mut live_node_steps = 0u64;
    let mut error = None;
    'cycles: for _ in 0..n {
        let id = tr.new_trace();
        for _ in 0..poisson(s.rate, &mut s.rng) {
            let object = s.fleet.placement().objects()[zipf.sample(&mut s.rng)];
            report.offered += 1;
            let fleet = &mut s.fleet;
            match tr.time("fleet.admit", "", id, Some(root), || fleet.admit(object)) {
                Ok(_) => report.admitted += 1,
                Err(FleetError::Admission { .. }) => report.rejected += 1,
                Err(FleetError::Route(RouteError::Unavailable(_))) => report.unavailable += 1,
                Err(e) => {
                    error = Some(e);
                    break 'cycles;
                }
            }
        }
        live_node_steps += (0..NODES).filter(|&n| s.fleet.node_up(n)).count() as u64;
        let fleet = &mut s.fleet;
        match tr.time("fleet.step", "", id, Some(root), || fleet.step()) {
            Ok(()) => {}
            Err(FleetError::DataLoss { tracks }) => report.tracks_lost += tracks,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    (FleetResult::of(s, report, error), live_node_steps)
}

impl Workload for FleetFailover {
    type Setup = Setup;
    type Result = FleetResult;

    fn setup(&self, ctx: &Ctx, day: u64) -> Setup {
        build(ctx, day)
    }

    fn run(&self, ctx: &Ctx, _day: u64, mut s: Setup) -> FleetResult {
        match s
            .fleet
            .run_with_traffic(cycles(ctx), s.rate, THETA, &mut s.rng)
        {
            Ok(report) => FleetResult::of(&s, report, None),
            Err(e) => FleetResult::of(&s, TrafficReport::default(), Some(e)),
        }
    }

    fn work(&self, ctx: &Ctx) -> f64 {
        cycles(ctx) as f64
    }

    fn attempted_refused(&self, r: &FleetResult) -> (u64, u64) {
        let refused = r.report.rejected + r.report.unavailable + r.metrics.dropped_on_failover;
        (r.report.offered, refused)
    }

    fn digest(&self, r: &FleetResult) -> Digest {
        let mut d = Digest::default();
        d.add(&r.report);
        d.add(&r.metrics);
        d.add(&r.control);
        d.add(&r.leader);
        d.add(&r.nodes);
        d
    }

    fn check(&self, r: &FleetResult, checks: &mut Checks) {
        checks.check(r.error.is_none(), || {
            format!("fleet run failed: {}", r.error.as_deref().unwrap_or(""))
        });
        let m = &r.metrics;
        checks.equal("tracks lost", r.report.tracks_lost, 0);
        checks.equal("failovers that lost data", m.data_loss_events, 0);
        checks.equal(
            "offered == admitted + rejected + unavailable",
            r.report.offered,
            r.report.admitted + r.report.rejected + r.report.unavailable,
        );
        checks.equal("node failures", m.node_failures, 2);
        checks.equal("node repairs", m.node_repairs, 2);
        checks.equal("failovers executed", m.failovers, 2);
        checks.check(r.control.elections >= 1, || {
            "the leader's failure forced no election".to_string()
        });
        checks.equal("sessions stuck in failover", r.stalled_sessions, 0);
        checks.check(r.report.admitted > 0, || "no session admitted".to_string());
    }

    fn traced(
        &self,
        ctx: &Ctx,
        day: u64,
        tr: &mut Tracer,
        _checks: &mut Checks,
    ) -> Traced<FleetResult> {
        let id = tr.new_trace();
        let root = tr.open("bench.pass", "", id, None);
        let mut s = tr.time("fleet.build", "", id, Some(root), || build(ctx, day));
        let (r, live_node_steps) = run_traced(&mut s, cycles(ctx), tr, root);
        tr.close(root);

        let admit = tr.durations("fleet.admit", |_| true);
        let step = tr.durations("fleet.step", |_| true);
        let c = &r.control;
        let values = vec![
            ("fleet.admit_ns.p50", quantile(&admit, 0.5)),
            ("fleet.admit_ns.p99", quantile(&admit, 0.99)),
            ("fleet.step_ns.p50", quantile(&step, 0.5)),
            ("fleet.step_ns.p99", quantile(&step, 0.99)),
            (
                "fleet.step_ns.per_live_node",
                step.iter().sum::<u64>() as f64 / live_node_steps.max(1) as f64,
            ),
            (
                "fleet.build_ns",
                quantile(&tr.durations("fleet.build", |_| true), 0.5),
            ),
            ("control.decrees", c.decrees as f64),
            ("control.elections", c.elections as f64),
            ("control.messages", c.messages as f64),
            ("control.retries", c.retries as f64),
            (
                "control.retry_ratio",
                c.retries as f64 / c.messages.max(1) as f64,
            ),
            ("fleet.failover_gap_max", r.metrics.max_failover_gap as f64),
            (
                "fleet.re_routed_admissions",
                r.metrics.re_routed_admissions as f64,
            ),
            ("model.stall_rate", r.stall_rate),
            ("model.sessions_offered", r.report.offered as f64),
        ];
        Traced {
            result: r,
            overhead: None,
            values,
        }
    }
}
