//! `mttf_mc`: Monte-Carlo mean time to catastrophic failure of a
//! D = 1000, C = 10 farm under the paper's disk figures, for the
//! same-cluster rule (Eq. 4: SR, SG, NC) and the same-or-adjacent-cluster
//! rule (Eq. 5: IB), fanned out on `min(2, cores)` threads by
//! `MonteCarlo::run_par`: the only user of `mms-reliability`'s trials
//! and of the `mms-exec` pool.
//!
//! Set-up builds the farm's server, whose geometry sizes both
//! experiments. The traced mode runs the program's one-thread path
//! (`run_par` with `Parallelism::Sequential`) untraced, then times
//! `run_par` on the pool as a whole, then re-runs its trials one by one
//! here with a span around each `MonteCarlo::trial`; all three must give
//! bit-identical `TrialStats`.

use crate::report::{Checks, Digest};
use crate::trace::{quantile, Open, Tracer};
use crate::{Ctx, Traced, Workload};
use mms_server::disk::{ReliabilityParams, Time};
use mms_server::exec::SeedSequence;
use mms_server::layout::BandwidthClass;
use mms_server::reliability::{formulas, CatastropheRule, MonteCarlo, TrialStats};
use mms_server::sim::DataMode;
use mms_server::{MultimediaServer, Parallelism, Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const DISKS: usize = 1000;
const GROUP: usize = 10;
/// Trials per rule and pass.
const TRIALS: usize = 256;
const QUICK_TRIALS: usize = 48;

/// The two rules, with their tags and the closed form each should
/// approach: MTTF(disk)² / (D · E · MTTR(disk)) for a rule that exposes
/// a failed disk to E others.
fn rules() -> [(CatastropheRule, &'static str, Time); 2] {
    let rel = ReliabilityParams::paper();
    // Eq. 5 counts 2C − 1 exposed disks; the simulated rule exposes a
    // failed disk to its own (C − 1)-wide cluster and both neighbours,
    // 3(C − 1) − 1 disks.
    let eq5 = formulas::mttf_improved(DISKS, GROUP, rel).as_secs();
    let adjacent = eq5 * (2 * GROUP - 1) as f64 / (3 * (GROUP - 1) - 1) as f64;
    [
        (
            CatastropheRule::SameCluster { c: GROUP },
            "same_cluster",
            formulas::mttf_raid(DISKS, GROUP, rel),
        ),
        (
            CatastropheRule::SameOrAdjacentCluster { c: GROUP },
            "adjacent_cluster",
            Time::from_secs(adjacent),
        ),
    ]
}

/// The workload.
pub struct MttfMc;

fn trials(ctx: &Ctx) -> usize {
    if ctx.quick {
        QUICK_TRIALS
    } else {
        TRIALS
    }
}

fn build_farm() -> MultimediaServer {
    ServerBuilder::new(Scheme::StreamingRaid)
        .disks(DISKS)
        .parity_group(GROUP)
        .data_mode(DataMode::MetadataOnly)
        .movie("feature", 90.0, BandwidthClass::Mpeg1)
        .build()
        .expect("the 1000-disk farm builds")
}

fn experiment(farm: &MultimediaServer, rule: CatastropheRule) -> MonteCarlo {
    MonteCarlo {
        d: farm.simulator().disks().len(),
        rel: ReliabilityParams::paper(),
        rule,
    }
}

/// Each rule draws from its own stream of the day's seeds.
fn rule_rng(ctx: &Ctx, day: u64, ix: usize) -> StdRng {
    StdRng::seed_from_u64(ctx.seeds(day).seed(ix as u64))
}

/// Both rules' `TrialStats` on `par`, as exact bit patterns.
fn run_rules(ctx: &Ctx, day: u64, farm: &MultimediaServer, par: Parallelism) -> Vec<Stats> {
    rules()
        .iter()
        .enumerate()
        .map(|(ix, &(rule, _, _))| {
            let mc = experiment(farm, rule);
            Stats::of(&mc.run_par(&mut rule_rng(ctx, day, ix), trials(ctx), par))
        })
        .collect()
}

/// A `TrialStats` as bit patterns, for exact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    trials: usize,
    mean_bits: u64,
    std_error_bits: u64,
}

impl Stats {
    fn of(s: &TrialStats) -> Self {
        Stats {
            trials: s.trials,
            mean_bits: s.mean.as_secs().to_bits(),
            std_error_bits: s.std_error.as_secs().to_bits(),
        }
    }

    fn mean_secs(&self) -> f64 {
        f64::from_bits(self.mean_bits)
    }
}

/// `run_par`'s trials, one by one on this thread with a span around each
/// `MonteCarlo::trial`: the same per-trial seeding and the same summary
/// (mean and standard error, summed in trial order), so the result must
/// match `run_par` bit for bit.
fn traced_trials(
    mc: &MonteCarlo,
    rng: &mut StdRng,
    n: usize,
    tr: &mut Tracer,
    root: Open,
    tag: &'static str,
) -> Stats {
    let seeds = SeedSequence::from_rng(rng);
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let mut trial_rng = StdRng::seed_from_u64(seeds.seed(i as u64));
            let id = tr.new_trace();
            tr.time("mc.trial", tag, id, Some(root), || mc.trial(&mut trial_rng))
                .as_secs()
        })
        .collect();
    let count = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / count;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1.0);
    Stats::of(&TrialStats {
        trials: samples.len(),
        mean: Time::from_secs(mean),
        std_error: Time::from_secs((var / count).sqrt()),
    })
}

impl Workload for MttfMc {
    type Setup = MultimediaServer;
    type Result = Vec<Stats>;

    fn setup(&self, _ctx: &Ctx, _day: u64) -> MultimediaServer {
        build_farm()
    }

    fn run(&self, ctx: &Ctx, day: u64, farm: MultimediaServer) -> Vec<Stats> {
        run_rules(ctx, day, &farm, Parallelism::threads(ctx.threads))
    }

    fn work(&self, ctx: &Ctx) -> f64 {
        (trials(ctx) * rules().len()) as f64
    }

    fn attempted_refused(&self, stats: &Vec<Stats>) -> (u64, u64) {
        (stats.iter().map(|s| s.trials as u64).sum(), 0)
    }

    fn digest(&self, stats: &Vec<Stats>) -> Digest {
        let mut d = Digest::default();
        d.add(stats);
        d
    }

    fn check(&self, stats: &Vec<Stats>, checks: &mut Checks) {
        for (s, (_, tag, reference)) in stats.iter().zip(rules()) {
            // A loose sanity band around the closed form: at 256 trials
            // the standard error is about 6 %, so this never trips by
            // chance.
            let ratio = s.mean_secs() / reference.as_secs();
            checks.check((0.7..1.4).contains(&ratio), || {
                format!("{tag}: Monte-Carlo MTTF is {ratio:.3} × the closed form")
            });
        }
    }

    fn traced(
        &self,
        ctx: &Ctx,
        day: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Traced<Vec<Stats>> {
        // The program's one-thread path, untraced: the baseline for the
        // tracing overhead of the trial loop below.
        let farm = build_farm();
        let t0 = Instant::now();
        let one_thread = run_rules(ctx, day, &farm, Parallelism::Sequential);
        let untraced_s = t0.elapsed().as_secs_f64();

        let id = tr.new_trace();
        let root = tr.open("bench.pass", "", id, None);
        let farm = tr.time("server.build", "", id, Some(root), build_farm);
        let par = Parallelism::threads(ctx.threads);
        let mut pooled = Vec::new();
        let (mut pool_ns, mut loop_ns) = (0, 0);
        for (ix, &(rule, tag, _)) in rules().iter().enumerate() {
            let mc = experiment(&farm, rule);
            let span = tr.open("exec.run_par", tag, id, Some(root));
            let stats = mc.run_par(&mut rule_rng(ctx, day, ix), trials(ctx), par);
            pool_ns += tr.close(span);
            pooled.push(Stats::of(&stats));
            let t0 = Instant::now();
            let mut rng = rule_rng(ctx, day, ix);
            let traced = traced_trials(&mc, &mut rng, trials(ctx), tr, root, tag);
            loop_ns += t0.elapsed().as_nanos() as u64;
            checks.equal(
                &format!("{tag}: the traced trial loop reproduces run_par"),
                traced,
                pooled[ix],
            );
        }
        tr.close(root);
        checks.equal(
            &format!("TrialStats at 1 and {} threads", ctx.threads),
            &one_thread,
            &pooled,
        );

        let trial = tr.durations("mc.trial", |_| true);
        let trial_ns: u64 = trial.iter().sum();
        let values = vec![
            ("mc.trial_ns.p50", quantile(&trial, 0.5)),
            ("mc.trial_ns.p99", quantile(&trial, 0.99)),
            (
                "exec.pool_efficiency",
                trial_ns as f64 / (ctx.threads as f64 * pool_ns as f64),
            ),
            (
                "server.build_ns",
                quantile(&tr.durations("server.build", |_| true), 0.5),
            ),
        ];
        Traced {
            result: pooled,
            overhead: Some((loop_ns as f64 * 1e-9, untraced_s)),
            values,
        }
    }
}
