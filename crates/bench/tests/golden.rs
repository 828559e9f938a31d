//! Golden outputs of the untimed paper bins: each bin's stdout must match
//! its committed transcript byte for byte, so a refactor that claims
//! identical figures and tables is checked here rather than by hand.
//!
//! After an intended change to a figure, regenerate its transcript with
//! `cargo run --release -p mms-bench --bin <name> > crates/bench/tests/golden/<name>.txt`
//! and say why in the commit.

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("bin runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&golden).expect("golden transcript");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{name} differs from {} at {line}:\n{got}", golden.display());
    }
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {
        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*
    };
}

golden!(
    fig2_schedule,
    fig4_memory,
    table2,
    table3,
    section2_table,
    baseline_vs_schemes,
    ablation_kprime,
    fig5_schedule,
    fig6_transition,
    fig7_transition,
    ablation_transition,
    ablation_ib_reserve,
);
