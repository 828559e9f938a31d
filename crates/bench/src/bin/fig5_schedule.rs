//! Reproduces Figure 5: the Non-clustered scheme's normal-mode disk read
//! schedule — one track per stream per cycle, rotating across the data
//! disks, no parity reads.

use mms_bench::{figure_name_map, figure_plans};
use mms_server::sched::TransitionPolicy;
use mms_server::sim::trace;

fn main() {
    let (plans, _) = figure_plans(TransitionPolicy::Simple, 9, false);
    println!("Figure 5 — Non-clustered scheme under normal operation\n");
    println!("{}", trace::render_schedule(&plans, 5, &figure_name_map()));
    println!("Disk 4 (the parity disk) is never read in normal mode; each");
    println!("stream reads one track per cycle from consecutive data disks.");
}
