//! Reproduces Figure 7: the Non-clustered scheme's *delayed* transition
//! after disk 2 fails. The paper loses only {W2, Y2} (unreconstructable)
//! plus {Y3} (displaced by A3's moved-up read) — half the simple
//! transition's damage.

use mms_bench::{figure_name_map, figure_plans};
use mms_server::sched::TransitionPolicy;
use mms_server::sim::trace;

fn main() {
    let (plans, lost) = figure_plans(TransitionPolicy::Delayed, 12, true);
    println!("Figure 7 — Non-clustered delayed transition (disk 2 fails before cycle 4)\n");
    println!("{}", trace::render_schedule(&plans, 5, &figure_name_map()));
    println!("lost tracks ({}): {}", lost.len(), lost.join(", "));
    println!("\npaper's Figure 7 loses exactly: W2, Y2, Y3 (3 tracks)");
    assert_eq!(
        lost.len(),
        3,
        "must reproduce the paper's three lost tracks"
    );
}
