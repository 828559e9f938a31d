//! Metric catalog, output checks, digests and the result line.

use std::collections::BTreeMap;
use std::fmt::Debug;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that does not reach a layer prints 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("session.tick_ns.p50", "ns"),
    ("session.tick_ns.p99", "ns"),
    ("sim.step_ns.p50.sr", "ns"),
    ("sim.step_ns.p50.sg", "ns"),
    ("sim.step_ns.p50.nc", "ns"),
    ("sim.step_ns.p50.ib", "ns"),
    ("sim.step_ns.p99.sr", "ns"),
    ("sim.step_ns.p99.sg", "ns"),
    ("sim.step_ns.p99.nc", "ns"),
    ("sim.step_ns.p99.ib", "ns"),
    ("sim.step_ns.p50.healthy", "ns"),
    ("sim.step_ns.p50.degraded", "ns"),
    ("oracle.verified", "count"),
    ("oracle.reconstructed", "count"),
    ("oracle.bytes_verified", "B"),
    ("ff.call_ns.p50", "ns"),
    ("ff.skipped_fraction", "fraction"),
    ("ff.probe_yield", "fraction"),
    ("server.build_ns", "ns"),
    ("fleet.build_ns", "ns"),
    ("engine.build_ns", "ns"),
    ("sim.tracks_read", "count"),
    ("sim.rebuild_reads", "count"),
    ("sim.buffer_peak", "tracks"),
    ("disk.utilization", "fraction"),
    ("server.rebuild_cycles", "cycles"),
    ("model.stall_rate", "fraction"),
    ("model.sessions_offered", "count"),
    ("fleet.admit_ns.p50", "ns"),
    ("fleet.admit_ns.p99", "ns"),
    ("fleet.step_ns.p50", "ns"),
    ("fleet.step_ns.p99", "ns"),
    ("fleet.step_ns.per_live_node", "ns"),
    ("control.decrees", "count"),
    ("control.elections", "count"),
    ("control.messages", "count"),
    ("control.retries", "count"),
    ("control.retry_ratio", "fraction"),
    ("fleet.failover_gap_max", "cycles"),
    ("fleet.re_routed_admissions", "count"),
    ("mc.trial_ns.p50", "ns"),
    ("mc.trial_ns.p99", "ns"),
    ("exec.pool_efficiency", "fraction"),
    ("exec.threads", "count"),
    ("telemetry.info_ns_per_cycle", "ns"),
    ("telemetry.info_ns_per_cycle.sr", "ns"),
    ("telemetry.info_ns_per_cycle.sg", "ns"),
    ("telemetry.info_ns_per_cycle.nc", "ns"),
    ("telemetry.info_ns_per_cycle.ib", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("trace.wall_ms", "ms"),
    ("self_ms.bench", "ms"),
    ("self_ms.mms-server", "ms"),
    ("self_ms.mms-sim", "ms"),
    ("self_ms.mms-fleet", "ms"),
    ("self_ms.mms-reliability", "ms"),
    ("self_ms.mms-exec", "ms"),
    ("self_ms.mms-telemetry", "ms"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
];

/// Output checks of one run. A failed check makes the run incorrect,
/// counts as one failed operation, and makes the process exit nonzero.
#[derive(Debug, Default)]
pub struct Checks {
    run: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record that two values, which must be equal, are equal.
    pub fn equal<T: PartialEq + Debug>(&mut self, what: &str, a: T, b: T) {
        let ok = a == b;
        self.check(ok, || format!("{what}: {a:?} != {b:?}"));
    }

    /// Checks run so far.
    pub fn run(&self) -> usize {
        self.run
    }

    /// Descriptions of the checks that failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a digest over the `Debug` renderings of modelled counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one value's `Debug` rendering into the digest.
    pub fn add<T: Debug + ?Sized>(&mut self, value: &T) {
        for b in format!("{value:?}").bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Everything a workload hands back to the command line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered: sessions (simulation workloads) or trials.
    pub attempted: u64,
    /// Operations refused: rejected, balked, unavailable or dropped
    /// sessions.
    pub refused: u64,
    /// Digest of every modelled counter of one pass.
    pub digest: Digest,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub checks: Checks,
    /// Whole workload passes measured.
    pub passes: usize,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, listing `catalog` in order (0 where the
/// workload measured nothing).
pub fn result_line(out: &Outcome, catalog: &[(&str, &str)]) -> String {
    let failed = out.refused + out.checks.failures().len() as u64;
    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.checks.failures().is_empty(),
        out.attempted.max(1),
        metrics.join(", ")
    )
}

/// Peak resident set size of this process in MiB: the kernel's
/// `VmHWM`, which (unlike `getrusage`) starts afresh at `exec`, so it
/// never reports a parent process's memory. 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_catalog_in_order() {
        let mut out = Outcome::default();
        out.values.insert("work_per_s", 12.5);
        out.refused = 2;
        let line = result_line(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 2,"));
        assert!(line.contains("\"work_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn digest_depends_on_every_value() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(&(1u64, 2u64));
        b.add(&(1u64, 3u64));
        assert_ne!(a, b);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
