//! Schema of the committed `BENCH_*.json` files: each `bench_*` bin's
//! `--quick` output must have the same key skeleton as the committed
//! file — the same keys in the same order, the same nesting, and the
//! same line breaks — with every scalar masked, since quick runs measure
//! smaller workloads on a different host.
//!
//! The five quick runs take about 15 s in total in a debug build on a
//! 2-core host, dominated by `bench_steady` and `bench_workload`.

use std::path::Path;
use std::process::Command;

/// `json` with every scalar value replaced by `_`: strings that are not
/// keys, numbers, `true`, `false` and `null`. Keys, punctuation and
/// whitespace are kept.
fn skeleton(json: &str) -> String {
    let mut out = String::new();
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut lit = String::from('"');
                while let Some(c) = chars.next() {
                    lit.push(c);
                    match c {
                        '\\' => lit.extend(chars.next()),
                        '"' => break,
                        _ => {}
                    }
                }
                if chars.peek() == Some(&':') {
                    out.push_str(&lit);
                } else {
                    out.push('_');
                }
            }
            c if c.is_ascii_alphanumeric() || c == '-' => {
                while chars
                    .peek()
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || "+-.".contains(c))
                {
                    chars.next();
                }
                out.push('_');
            }
            c => out.push(c),
        }
    }
    out
}

fn check(name: &str, exe: &str) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}_quick.json"));
    let run = Command::new(exe)
        .arg(&out)
        .arg("--quick")
        .output()
        .expect("bin runs");
    assert!(
        run.status.success(),
        "{name} --quick exited with {}",
        run.status
    );
    let got = std::fs::read_to_string(&out).expect("quick output");
    let file = name.replace("bench_", "BENCH_") + ".json";
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(&file);
    let want = std::fs::read_to_string(&committed).expect("committed bench file");
    let (got, want) = (skeleton(&got), skeleton(&want));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{name} --quick skeleton differs from {file} at {line}:\n{got}\n---\n{want}");
    }
}

#[test]
fn skeleton_masks_scalars_but_keeps_keys_and_layout() {
    assert_eq!(
        skeleton(
            "{\n  \"a\": 1.50,\n  \"b\": [true, -2e-3, \"x\\\"y\"],\n  \"c\": {\"d\": null}\n}\n"
        ),
        "{\n  \"a\": _,\n  \"b\": [_, _, _],\n  \"c\": {\"d\": _}\n}\n"
    );
}

macro_rules! schema {
    ($($bin:ident),* $(,)?) => {
        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*
    };
}

schema!(
    bench_datapath,
    bench_fleet,
    bench_parallel,
    bench_steady,
    bench_workload,
);
