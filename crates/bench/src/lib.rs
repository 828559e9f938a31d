//! # mms-bench — benchmark and reproduction harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run -p mms-bench --bin <name>`), plus Criterion benches for the
//! performance-critical substrate paths (`cargo bench -p mms-bench`).
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `section2_table` | §2 in-text streams/disk table |
//! | `table2` / `table3` | Tables 2 and 3 (all six metrics, four schemes) |
//! | `fig2_schedule` | Figure 2 (k/k′ read vs transmission cycles) |
//! | `fig3_layout` | Figure 3 (Streaming RAID layout) |
//! | `fig4_memory` | Figure 4 (staggered-group memory profile) |
//! | `fig5_schedule` | Figure 5 (NC normal-mode schedule) |
//! | `fig6_transition` | Figure 6 (NC simple transition) |
//! | `fig7_transition` | Figure 7 (NC delayed transition) |
//! | `fig8_layout` | Figure 8 (improved-bandwidth layout) |
//! | `fig9_cost` | Figure 9(a)+(b) cost and stream sweeps |
//! | `reliability_mc` | §2/§3/§4 MTTF quotes, formula vs Monte Carlo |
//! | `baseline_vs_schemes` | §1's no-fault-tolerance motivation, measured |
//! | `ablation_transition` | NC transition losses across C × failed disk × policy |
//! | `ablation_ib_reserve` | IB reserved capacity vs dropped streams at full load |
//! | `ablation_kprime` | the k′ continuum between SR and SG |
//! | `design_space` | §5 design exercise + §1 mixed-class farm split |
//!
//! The five timing bins each write one committed JSON file; they share
//! [`harness`] for their `[output.json] [--quick]` command line, wall
//! clock, thread-count sweep and JSON layout.
//!
//! | Binary | Writes | Measures |
//! |---|---|---|
//! | `bench_datapath` | `BENCH_datapath.json` | XOR kernel, heap allocations per verified delivery and per simulator cycle |
//! | `bench_fleet` | `BENCH_fleet.json` | 8-node fleet session throughput, node-level MTTF/MTTDS |
//! | `bench_parallel` | `BENCH_parallel.json` | the `mms-exec` pool on Monte Carlo, design sweep and a batch grid |
//! | `bench_steady` | `BENCH_steady.json` | cycle-by-cycle vs. event-horizon stepping |
//! | `bench_workload` | `BENCH_workload.json` | stall rate vs. utilization under the session engine |

#![forbid(unsafe_code)]

pub mod harness;

use mms_server::disk::{Bandwidth, DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, BlockKind, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{
    CycleConfig, CyclePlan, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};
use mms_server::sim::DataMode;
use mms_server::{MultimediaServer, Scheme, ServerBuilder};
use std::collections::BTreeMap;

/// The server the bench bins measure: ten disks (eight for
/// Improved-bandwidth), parity groups of C = 5, `DataMode::MetadataOnly`,
/// and `movies` MPEG-1 objects of `tracks` tracks named `movie-0`, ….
#[must_use]
pub fn bench_server(scheme: Scheme, movies: usize, tracks: u64) -> MultimediaServer {
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
        let name = format!("movie-{m}");
        builder = builder.object(MediaObject::new(
            ObjectId(m as u64),
            name,
            tracks,
            BandwidthClass::Mpeg1,
        ));
    }
    builder.build().expect("bench server builds")
}

/// Stream names of the Figure 5/6/7 scenario; stream `i` (object id
/// `i`) is admitted at cycle `i + 1`, which maps the figures' cycle 1 to
/// scheduler cycle 4.
pub const FIGURE_NAMES: [&str; 8] = ["U", "W", "Y", "A", "C", "E", "G", "I"];

/// The cycle at which disk 2 fails in the figure scenario (the figures'
/// "just before the start of cycle 1").
pub const FIGURE_FAIL_CYCLE: u64 = 4;

/// A Non-clustered scheduler over one `c`-disk cluster, one slot per
/// disk per cycle, holding a `tracks`-track object per name (ids in
/// order).
fn nc_scheduler(
    c: usize,
    names: impl IntoIterator<Item = impl Into<String>>,
    tracks: u64,
    policy: TransitionPolicy,
) -> NonClusteredScheduler {
    let geo = Geometry::clustered(c, c).expect("square clustered geometry is valid for c >= 2");
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    let class = BandwidthClass::Custom(Bandwidth::from_megabytes(1.0));
    for (id, name) in names.into_iter().enumerate() {
        catalog
            .add(MediaObject::new(ObjectId(id as u64), name, tracks, class))
            .expect("scenario objects fit the catalog and have unique ids");
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    NonClusteredScheduler::new(cfg, catalog, policy, 1)
}

/// Build the Figures 5–7 Non-clustered scenario: one cluster of five
/// disks, one slot per disk per cycle, four-track objects.
#[must_use]
pub fn figure_scheduler(policy: TransitionPolicy) -> NonClusteredScheduler {
    nc_scheduler(5, FIGURE_NAMES, 4, policy)
}

/// Tracks lost during the Non-clustered degraded-mode transition: one
/// fully-loaded cluster of size `c` with one stream per phase, disk `f`
/// failing while each phase is mid-group. Used by the
/// `ablation_transition` grid and the `bench_parallel` harness.
#[must_use]
pub fn nc_transition_losses(c: usize, f: u32, policy: TransitionPolicy) -> usize {
    let bpg = c - 1;
    let names = (0..3 * bpg).map(|i| format!("s{i}"));
    let mut sched = nc_scheduler(c, names, bpg as u64, policy);
    let fail_at = bpg as u64;
    let mut next_obj = 0u64;
    let mut lost = 0usize;
    for t in 0..(4 * bpg as u64) {
        // One new stream starts every cycle from cycle 1 on, keeping
        // every phase busy by the time the failure strikes.
        if t >= 1 && next_obj < (3 * bpg) as u64 {
            sched
                .admit(ObjectId(next_obj), t)
                .expect("one stream per phase stays within admission capacity");
            next_obj += 1;
        }
        if t == fail_at {
            sched.on_disk_failure(DiskId(f), t, false);
        }
        lost += sched.plan_cycle(t).hiccups.len();
    }
    lost
}

/// Plan cycles `0..cycles` of the Figures 5–7 scenario under `policy`:
/// each stream is admitted at its [`FIGURE_NAMES`] cycle and, if
/// `fail`, disk 2 fails at [`FIGURE_FAIL_CYCLE`]. Returns the plans and
/// the lost data tracks, labelled like the figures (`Y1 (reason)`).
#[must_use]
pub fn figure_plans(
    policy: TransitionPolicy,
    cycles: u64,
    fail: bool,
) -> (Vec<CyclePlan>, Vec<String>) {
    let mut sched = figure_scheduler(policy);
    let names = figure_name_map();
    let mut lost = Vec::new();
    let plans = (0..cycles)
        .map(|t| {
            if (1..=FIGURE_NAMES.len() as u64).contains(&t) {
                sched
                    .admit(ObjectId(t - 1), t)
                    .expect("figure streams fit their cluster");
            }
            if fail && t == FIGURE_FAIL_CYCLE {
                sched.on_disk_failure(DiskId(2), t, false);
            }
            let plan = sched.plan_cycle(t);
            for h in &plan.hiccups {
                if let BlockKind::Data(ix) = h.addr.kind {
                    lost.push(format!("{}{} ({})", names[&h.addr.object.0], ix, h.reason));
                }
            }
            plan
        })
        .collect();
    (plans, lost)
}

/// The figure name map for trace rendering.
#[must_use]
pub fn figure_name_map() -> BTreeMap<u64, &'static str> {
    (0..).zip(FIGURE_NAMES).collect()
}

/// Print a Table 2/3-style metrics table for parity-group size `c` to
/// stdout, returning the rows.
pub fn print_scheme_table(c: usize) -> Vec<mms_server::analysis::TableRow> {
    use mms_server::analysis::{table_rows, SchemeParams, SystemParams};
    let sys = SystemParams::paper_table1();
    let rows = table_rows(&sys, &SchemeParams::paper_tables(c));
    println!(
        "{:<20} {:>9} {:>9} {:>12} {:>14} {:>8} {:>9}",
        "scheme", "stor ovhd", "bw ovhd", "MTTF (yr)", "MTTDS (yr)", "streams", "buffers"
    );
    for row in &rows {
        println!(
            "{:<20} {:>8.1}% {:>8.1}% {:>12.1} {:>14.1} {:>8} {:>9}",
            row.scheme.to_string(),
            row.storage_overhead * 100.0,
            row.bandwidth_overhead * 100.0,
            row.mttf_years,
            row.mttds_years,
            row.streams,
            row.buffers_tracks
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_server::sched::SchemeScheduler;

    #[test]
    fn figure_scenario_builds() {
        let mut s = figure_scheduler(TransitionPolicy::Simple);
        for t in 1..=3 {
            s.admit(ObjectId(t - 1), t).unwrap();
        }
        assert_eq!(s.active_streams(), 3);
        assert_eq!(s.config().slots_per_disk(), 1);
    }
}
