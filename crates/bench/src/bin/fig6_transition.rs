//! Reproduces Figure 6: the Non-clustered scheme's *simple* transition to
//! degraded mode after disk 2 fails. The paper's lost-track set is
//! {Y1, W2, Y2, U3, W3, Y3} — six tracks: two on the failed disk, four
//! displaced by the shift.

use mms_bench::{figure_name_map, figure_plans};
use mms_server::sched::TransitionPolicy;
use mms_server::sim::trace;

fn main() {
    let (plans, lost) = figure_plans(TransitionPolicy::Simple, 12, true);
    println!("Figure 6 — Non-clustered simple transition (disk 2 fails before cycle 4)\n");
    println!("{}", trace::render_schedule(&plans, 5, &figure_name_map()));
    println!("lost tracks ({}): {}", lost.len(), lost.join(", "));
    println!("\npaper's Figure 6 loses exactly: Y1, W2, Y2, U3, W3, Y3 (6 tracks)");
    assert_eq!(lost.len(), 6, "must reproduce the paper's six lost tracks");
}
