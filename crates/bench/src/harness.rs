//! The machinery the `bench_*` bins share: the `[output.json] [--quick]`
//! command line, the wall clock, the thread-count sweep that asserts
//! bit-identical results, and an ordered JSON writer. Callers choose key
//! order, block vs. one-line layout and per-key decimals; only this
//! module writes JSON punctuation.
//!
//! `timed` is the workspace's only wall-clock read outside `mms-exec`'s
//! trace-only diagnostics; deterministic crates never call it.

use mms_server::telemetry::json::{write_f64, write_str};
use mms_server::Parallelism;
use std::time::Instant;

/// Parse `[output.json] [--quick]` from the command line into the
/// output path (default `default_out`) and the quick flag. Anything
/// else exits with status 2 and a usage line.
#[must_use]
pub fn parse_args(default_out: &str) -> (String, bool) {
    parse(std::env::args().skip(1), default_out).unwrap_or_else(|bad| {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("unexpected argument {bad:?}\nusage: {bin} [output.json] [--quick]");
        std::process::exit(2)
    })
}

fn parse(args: impl Iterator<Item = String>, default_out: &str) -> Result<(String, bool), String> {
    let (mut out, mut quick) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if arg.starts_with("--") || out.is_some() => return Err(arg),
            _ => out = Some(arg),
        }
    }
    Ok((out.unwrap_or_else(|| default_out.to_string()), quick))
}

/// Run `f` and return its result with the wall-clock seconds it took.
/// Allocation-free, so sections that count heap traffic can use it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[allow(clippy::disallowed_methods)] // benchmark timing is wall-clock by definition
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Cores the host offers.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One job run at several thread counts.
pub struct Sweep<T> {
    /// `(threads, seconds)` per thread count, in sweep order.
    pub seconds: Vec<(usize, f64)>,
    /// The first run's result.
    pub result: T,
    /// Whether every run reproduced `result` exactly.
    pub bit_identical: bool,
}

impl<T> Sweep<T> {
    /// The seconds as a one-line `{"1": …, "2": …}` map.
    #[must_use]
    pub fn seconds_json(&self, decimals: usize) -> Obj {
        self.seconds.iter().fold(Obj::inline(), |o, &(t, s)| {
            o.fixed(t.to_string(), s, decimals)
        })
    }
}

/// Run `job` `reps` times at each of `thread_counts`, comparing every
/// result with the first. A thread count's time is the median of its
/// `reps` runs.
pub fn sweep<T: PartialEq>(
    thread_counts: &[usize],
    reps: usize,
    mut job: impl FnMut(Parallelism) -> T,
) -> Sweep<T> {
    assert!(reps > 0, "a sweep needs at least one run per thread count");
    let mut first: Option<T> = None;
    let mut bit_identical = true;
    let mut seconds = Vec::new();
    for &threads in thread_counts {
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let (result, secs) = timed(|| job(Parallelism::threads(threads)));
                match &first {
                    Some(r) => bit_identical &= *r == result,
                    None => first = Some(result),
                }
                secs
            })
            .collect();
        times.sort_by(f64::total_cmp);
        seconds.push((threads, times[reps / 2]));
    }
    let result = first.expect("a sweep runs at least once");
    Sweep {
        seconds,
        result,
        bit_identical,
    }
}

/// Write `doc` to `path` as JSON and say so on stdout.
pub fn write_json(path: &str, doc: impl Into<Json>) {
    std::fs::write(path, doc.into().render()).expect("write benchmark json");
    println!("wrote {path}");
}

/// A JSON value with its layout and number formatting fixed when built.
/// Block containers put one entry per line, indented two spaces per
/// level; inline ones put all entries on one line.
pub struct Json(Value);

enum Value {
    /// A scalar, already rendered: strings quoted and escaped.
    Raw(String),
    Obj(Obj),
    /// An array: whether it is inline, and its items.
    Arr(bool, Vec<Json>),
}

impl Json {
    /// `items`, one per line.
    pub fn rows<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        let items = items.into_iter().map(Into::into).collect();
        Json(Value::Arr(false, items))
    }

    /// `items` on one line.
    pub fn list<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        let items = items.into_iter().map(Into::into).collect();
        Json(Value::Arr(true, items))
    }

    /// The document: `self` plus a final newline.
    fn render(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, 0);
        out.push(b'\n');
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>, indent: usize) {
        let (inline, entries, brackets): (_, Vec<_>, _) = match &self.0 {
            Value::Raw(s) => return out.extend_from_slice(s.as_bytes()),
            Value::Obj(o) => (
                o.inline,
                o.fields.iter().map(|(k, v)| (Some(k), v)).collect(),
                b"{}",
            ),
            Value::Arr(inline, items) => {
                (*inline, items.iter().map(|v| (None, v)).collect(), b"[]")
            }
        };
        out.push(brackets[0]);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(if inline { b", " } else { b"," });
            }
            if !inline {
                out.push(b'\n');
                out.resize(out.len() + indent + 2, b' ');
            }
            if let Some(key) = key {
                write_str(out, key).expect("writing to a Vec cannot fail");
                out.extend_from_slice(b": ");
            }
            value.write(out, indent + 2);
        }
        if !inline && !entries.is_empty() {
            out.push(b'\n');
            out.resize(out.len() + indent, b' ');
        }
        out.push(brackets[1]);
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(Value::Raw(v.to_string()))
            }
        })*
    };
}
display_json!(bool, u64, usize);

/// Shortest round-trip form (`0.9`, `1000`); [`Obj::fixed`] pins the
/// decimals instead. Non-finite values, which JSON cannot hold, become
/// the strings `"inf"`, `"-inf"` and `"nan"`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        let mut out = Vec::new();
        write_f64(&mut out, v).expect("writing to a Vec cannot fail");
        raw(out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        let mut out = Vec::new();
        write_str(&mut out, s).expect("writing to a Vec cannot fail");
        raw(out)
    }
}

/// A scalar that `mms_telemetry::json` rendered into `bytes`.
fn raw(bytes: Vec<u8>) -> Json {
    let text = String::from_utf8(bytes).expect("rendered JSON is UTF-8");
    Json(Value::Raw(text))
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::from(s.as_str())
    }
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Json {
        Json(Value::Obj(o))
    }
}

/// A JSON object whose keys render in insertion order.
pub struct Obj {
    inline: bool,
    fields: Vec<(String, Json)>,
}

impl Obj {
    /// An empty object, one field per line.
    #[must_use]
    pub fn block() -> Obj {
        Obj::new(false)
    }

    /// An empty object on one line.
    #[must_use]
    pub fn inline() -> Obj {
        Obj::new(true)
    }

    fn new(inline: bool) -> Obj {
        let fields = Vec::new();
        Obj { inline, fields }
    }

    /// Append `key: value`.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Obj {
        self.push(key, value);
        self
    }

    /// Append `key: value` in place.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.fields.push((key.into(), value.into()));
    }

    /// Append `key: v` with `decimals` digits after the point.
    #[must_use]
    pub fn fixed(self, key: impl Into<String>, v: f64, decimals: usize) -> Obj {
        if v.is_finite() {
            self.field(key, Json(Value::Raw(format!("{v:.decimals$}"))))
        } else {
            self.field(key, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<(String, bool), String> {
        parse(list.iter().map(|s| s.to_string()), "BENCH_x.json")
    }

    fn render(v: impl Into<Json>) -> String {
        v.into().render()
    }

    #[test]
    fn cli_takes_an_output_path_and_quick_in_any_order() {
        assert_eq!(args(&[]), Ok(("BENCH_x.json".into(), false)));
        assert_eq!(args(&["--quick", "o.json"]), Ok(("o.json".into(), true)));
        assert_eq!(args(&["o.json", "--quick"]), Ok(("o.json".into(), true)));
    }

    #[test]
    fn cli_rejects_unknown_flags_and_extra_positionals() {
        assert_eq!(args(&["--fast"]), Err("--fast".into()));
        assert_eq!(args(&["a.json", "48"]), Err("48".into()));
    }

    #[test]
    fn commas_separate_entries_but_never_trail() {
        let doc = Obj::block().field("a", 1u64).field("b", 2u64);
        assert_eq!(render(doc), "{\n  \"a\": 1,\n  \"b\": 2\n}\n");
        let row = Obj::inline().field("a", 1u64).field("b", true);
        assert_eq!(render(row), "{\"a\": 1, \"b\": true}\n");
        assert_eq!(render(Json::list([1u64])), "[1]\n");
        assert_eq!(render(Obj::block()), "{}\n");
        assert_eq!(render(Json::rows(Vec::<u64>::new())), "[]\n");
    }

    #[test]
    fn block_nesting_indents_and_inline_stays_on_one_line() {
        let doc = Obj::block()
            .field("thread_counts", Json::list([1usize, 2, 8]))
            .field(
                "schemes",
                Obj::block().field(
                    "SR",
                    Json::rows([
                        Obj::inline().field("x", Obj::inline().field("y", 1u64)),
                        Obj::inline().field("x", Obj::inline()),
                    ]),
                ),
            );
        assert_eq!(
            render(doc),
            "{\n  \"thread_counts\": [1, 2, 8],\n  \"schemes\": {\n    \"SR\": [\n      \
             {\"x\": {\"y\": 1}},\n      {\"x\": {}}\n    ]\n  }\n}\n"
        );
    }

    #[test]
    fn numbers_keep_their_chosen_decimals() {
        let row = Obj::inline()
            .fixed("a", 8.0, 2)
            .fixed("b", 0.000_011_4, 6)
            .fixed("c", 2.5, 0)
            .field("d", 0.9)
            .field("e", 1000.0)
            .fixed("f", f64::INFINITY, 2)
            .field("g", f64::NAN);
        assert_eq!(
            render(row),
            "{\"a\": 8.00, \"b\": 0.000011, \"c\": 2, \"d\": 0.9, \"e\": 1000, \
             \"f\": \"inf\", \"g\": \"nan\"}\n"
        );
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let row = Obj::inline()
            .field("note", "say \"hi\" \\ back\n\t\u{1}")
            .field("k\"ey", String::from("v"));
        assert_eq!(
            render(row),
            "{\"note\": \"say \\\"hi\\\" \\\\ back\\n\\t\\u0001\", \"k\\\"ey\": \"v\"}\n"
        );
    }

    #[test]
    fn sweep_times_each_thread_count_and_compares_results() {
        let mut calls = 0;
        let s = sweep(&[1, 2, 8], 3, |par| {
            calls += 1;
            par.thread_count().min(1)
        });
        assert_eq!(calls, 9);
        assert!(s.bit_identical);
        let threads: Vec<usize> = s.seconds.iter().map(|&(t, _)| t).collect();
        assert_eq!(threads, [1, 2, 8]);
        assert_eq!(s.seconds_json(1).fields.len(), 3);

        let s = sweep(&[1, 2], 1, Parallelism::thread_count);
        assert!(!s.bit_identical);
        assert_eq!(s.result, 1);
    }
}
