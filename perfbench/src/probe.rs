//! The reference probe that `work_per_s` is scaled by.
//!
//! On a shared host the same pass of simulated work runs at two speeds:
//! for stretches of a fraction of a second up to minutes, other
//! tenants' load makes the simulator's branchy, allocating code run 1.2
//! to 1.5 times slower. Such a stretch can outlast a whole run, and a
//! whole set of runs, so no choice of pass (fastest, median) filters it
//! out. The probe is fixed code of the same kind that slows down with
//! the host and never changes with the program: it builds a `BTreeMap`
//! from fixed keys and looks keys up in it, sorts a fixed 2 MiB array,
//! and updates random words of a 3 MiB table (about the size of a
//! core's L2 cache, which `fleet_failover` leans on). Timed just before
//! and just after each pass, it tells how fast the host ran that pass;
//! scaling the pass's host seconds by [`REFERENCE_NS`] over the probe's
//! time gives *reference seconds*: the time the pass would have taken
//! on the host in its fast state. See `README.md` for how well this
//! tracks.

use std::collections::BTreeMap;
use std::time::Instant;

/// The probe's time, in nanoseconds, on the host the benchmark was
/// built on (a 2-vCPU KVM guest on a 2.1 GHz Xeon) in its fast state.
/// A constant, so reference seconds keep the scale of host seconds.
pub const REFERENCE_NS: f64 = 16e6;

/// Keys inserted and then looked up per probe.
const KEYS: u64 = 30_000;
/// Elements of the array sorted per probe.
const SORTED: usize = 1 << 18;
/// Words of the table updated at random (3 MiB).
const TABLE: usize = 3 << 17;
/// Random updates per probe.
const UPDATES: usize = 600_000;

/// xorshift64: the same sequence on every call.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Converts host seconds to reference seconds around each pass.
#[derive(Debug)]
pub struct HostClock {
    /// The probe's table, allocated once so that no probe pays for
    /// fresh pages.
    table: Vec<u64>,
    /// The probe's time just before the pass being measured.
    before_ns: f64,
    /// Every probe time taken, for the report.
    pub probes_ns: Vec<f64>,
}

impl HostClock {
    /// Start with a probe, to be taken just before the first pass.
    pub fn new() -> Self {
        let mut clock = HostClock {
            table: vec![1; TABLE],
            before_ns: 0.0,
            probes_ns: Vec::new(),
        };
        clock.before_ns = clock.probe_ns();
        clock
    }

    /// Time one probe, in nanoseconds.
    fn probe_ns(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut map = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..KEYS {
            map.insert(next(&mut x) % 100_000, i);
        }
        let hits: u64 = (0..KEYS).filter_map(|k| map.get(&(k * 3))).sum();
        let mut sorted: Vec<u64> = (0..SORTED).map(|_| next(&mut x)).collect();
        sorted.sort_unstable();
        let mut y = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..UPDATES {
            let to = next(&mut x) as usize % TABLE;
            let from = next(&mut y) as usize % TABLE;
            self.table[to] = self.table[to].wrapping_add(self.table[from] | 1);
        }
        std::hint::black_box((hits, sorted, &self.table));
        let ns = t0.elapsed().as_nanos() as f64;
        self.probes_ns.push(ns);
        ns
    }

    /// Call right after a pass: probes again and returns the factor
    /// that turns the pass's host seconds into reference seconds,
    /// from the probes on either side of it.
    pub fn scale(&mut self) -> f64 {
        let after_ns = self.probe_ns();
        let host_ns = (self.before_ns * after_ns).sqrt();
        self.before_ns = after_ns;
        REFERENCE_NS / host_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_reference_over_probe_time() {
        let mut clock = HostClock::new();
        let s = clock.scale();
        let [a, b] = [clock.probes_ns[0], clock.probes_ns[1]];
        assert!((s - REFERENCE_NS / (a * b).sqrt()).abs() < 1e-9 * s);
        assert!(s > 0.0 && s.is_finite());
    }
}
