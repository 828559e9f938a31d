//! Reproduces Figure 4: the Staggered-group scheme's memory profile.
//!
//! (b) one stream's per-cycle occupancy is a sawtooth: C+1 tracks at its
//!     read cycle, draining one per cycle until the next read.
//! (a) C−1 staggered streams interleave those sawtooths "out of phase",
//!     peaking at C(C+1)/2 = 15 tracks — versus 2C per stream (40 for
//!     four streams) under Streaming RAID.

use mms_bench::bench_server;
use mms_server::Scheme;

/// One movie, long enough that no stream finishes inside the figure.
const TRACKS: u64 = 400;

fn main() {
    // (b) One stream's sawtooth (end-of-cycle occupancy).
    let mut single = bench_server(Scheme::StaggeredGroup, 1, TRACKS);
    let m = single.objects()[0];
    single.admit(m).unwrap();
    for _ in 0..20 {
        single.step().unwrap();
    }
    println!("Figure 4(b) — one staggered-group stream (end-of-cycle tracks):\n");
    println!("cycle  tracks");
    for (t, v) in single.metrics().buffer_series.iter().enumerate().take(16) {
        println!("{t:>5}  {v:>6} {}", "#".repeat(*v));
    }
    println!(
        "\npeak within a read cycle: {} tracks (C+1 = 6: the new group incl.\nparity plus the previous group's last track in transmission)",
        single.metrics().buffer_peak
    );

    // (a) Four streams, staggered vs Streaming RAID.
    let mut sg = bench_server(Scheme::StaggeredGroup, 1, TRACKS);
    let m = sg.objects()[0];
    for _ in 0..4 {
        sg.admit(m).unwrap();
        sg.step().unwrap(); // stagger phases
    }
    for _ in 0..24 {
        sg.step().unwrap();
    }
    let mut sr = bench_server(Scheme::StreamingRaid, 1, TRACKS);
    let m = sr.objects()[0];
    for _ in 0..4 {
        sr.admit(m).unwrap();
    }
    for _ in 0..24 {
        sr.step().unwrap();
    }
    let (sg_peak, sr_peak) = (sg.metrics().buffer_peak, sr.metrics().buffer_peak);
    println!("\nFigure 4(a) — four streams, aggregate peak buffer demand:");
    println!("  Staggered-group : {sg_peak} tracks  (paper: C(C+1)/2 = 15)");
    println!("  Streaming RAID  : {sr_peak} tracks  (paper: 2C per stream = 40)");
    println!(
        "  ratio           : {:.2} — \"approximately 1/2 the memory\"",
        sg_peak as f64 / sr_peak as f64
    );
    assert_eq!(sg_peak, 15);
    assert_eq!(sr_peak, 40);
}
