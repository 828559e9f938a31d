//! Quantifies Section 1's motivating claim: "without some form of fault
//! tolerance, such a system is not likely to be acceptable."
//!
//! The same movie plays through the same disk failure (repaired after the
//! paper's one-hour MTTR worth of cycles) on the unprotected baseline and
//! on all four schemes; hiccups per viewer-hour tell the story.

use mms_bench::bench_server;
use mms_server::disk::{DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{BaselineScheduler, CycleConfig};
use mms_server::sim::{DataMode, FailureEvent, ObjectDirectory, Simulator};
use mms_server::Scheme;

const TRACKS: u64 = 2_000;
const FAIL_AT: u64 = 100;
const REPAIR_AT: u64 = 1_600; // ≳ 1 hour of MPEG-1 cycles (267 ms each)

fn baseline_run() -> (u64, u64) {
    let geo = Geometry::clustered(10, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    catalog
        .add(MediaObject::new(
            ObjectId(0),
            "m",
            TRACKS,
            BandwidthClass::Mpeg1,
        ))
        .unwrap();
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        mms_server::disk::Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    let sched = BaselineScheduler::new(cfg, catalog);
    let dir = ObjectDirectory::new([(ObjectId(0), TRACKS)], 4);
    let mut sim = Simulator::new(
        sched,
        DiskParams::paper_table1(),
        10,
        DataMode::MetadataOnly,
        dir,
    );
    for _ in 0..4 {
        sim.admit(ObjectId(0)).unwrap();
        sim.step().unwrap();
    }
    for t in 4..2_600u64 {
        if t == FAIL_AT {
            sim.fail_disk_now(DiskId(1), false).unwrap();
        }
        if t == REPAIR_AT {
            sim.repair_disk_now(DiskId(1)).unwrap();
        }
        sim.step().unwrap();
    }
    (sim.metrics().delivered, sim.metrics().total_hiccups())
}

fn scheme_run(scheme: Scheme) -> (u64, u64) {
    let mut server = bench_server(scheme, 1, TRACKS);
    // Normalize to the baseline's wall clock: its cycle is B/b0; SR and
    // IB cycles are (C−1)x longer, so they run proportionally fewer
    // cycles and the failure window lands at the same simulated time.
    let stretch = {
        let base = DiskParams::paper_table1()
            .cycle_time(1, mms_server::disk::Bandwidth::from_megabits(1.5));
        (server.cycle_config().t_cyc().as_secs() / base.as_secs()).round() as u64
    };
    for _ in 0..4 {
        server.admit(ObjectId(0)).unwrap();
        server.step().unwrap();
    }
    let cycles = 2_600 / stretch;
    let fail_at = (FAIL_AT / stretch).max(5);
    let repair_at = REPAIR_AT / stretch;
    for t in 4..cycles {
        if t == fail_at {
            server
                .inject(FailureEvent::fail(server.cycle(), DiskId(1)))
                .unwrap();
        }
        if t == repair_at {
            server
                .inject(FailureEvent::repair(server.cycle(), DiskId(1)))
                .unwrap();
        }
        server.step().unwrap();
    }
    (server.metrics().delivered, server.metrics().total_hiccups())
}

fn main() {
    println!(
        "One disk fails at cycle {FAIL_AT} and is repaired ~1 h later; four\n\
         viewers stream a {TRACKS}-track movie throughout.\n"
    );
    println!(
        "{:<26} {:>10} {:>9} {:>12}",
        "configuration", "delivered", "hiccups", "loss rate"
    );
    let (d, h) = baseline_run();
    println!(
        "{:<26} {:>10} {:>9} {:>11.2}%",
        "no fault tolerance",
        d,
        h,
        100.0 * h as f64 / (d + h) as f64
    );
    for scheme in Scheme::ALL {
        let (d, h) = scheme_run(scheme);
        println!(
            "{:<26} {:>10} {:>9} {:>11.2}%",
            scheme.to_string(),
            d,
            h,
            100.0 * h as f64 / (d + h).max(1) as f64
        );
    }
    println!(
        "\nThe unprotected server hiccups on every rotation past the dead disk\n\
         for the entire repair window — the paper's §1 motivation, measured."
    );
}
