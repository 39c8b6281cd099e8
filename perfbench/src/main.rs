//! The repo benchmark: host time of the simulator's real entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid|frame|store-warm|daemon-warm> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` a run times the
//! workload's set-up and measured passes and prints the end-to-end
//! metrics (`wall_s`, `setup_s`, `peak_rss_mb`); the two times are
//! means in reference seconds, host seconds scaled by a fixed probe of
//! the host's speed timed between the passes (see `calib`), and stderr
//! lists the host times and probes. With `--trace 1` it
//! runs the same workload untraced and then as a traced replay that
//! calls each layer's public functions directly, and prints the
//! per-layer metrics computed from the spans (see `traced`). Either way
//! every pass's simulated output is digested and checked against
//! `digests.json`; a mismatch, panic, daemon error or warm-pass miss is
//! a failed kernel request. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the run context. Spans go to `.bench_out/`.
//!
//! `--record` re-derives `digests.json` for the current `SIM_VERSION`
//! (one pass per workload and id combination).

mod calib;
mod check;
mod spans;
mod traced;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::workloads::{Plan, Scratch, Tally, MIN_PASSES, WORKLOADS};

/// Engine and harness knobs read from the environment. Each would change
/// what a run measures, so the benchmark refuses to run under any.
const REFUSED_ENV: [&str; 6] = [
    "ARC_STORE",
    "ARC_PASSES",
    "ARC_SIM_WORKERS",
    "ARC_FF",
    "ARC_SIM_EPOCH",
    "ARC_JOBS",
];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Output directory for spans and scratch stores, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const RECORDED: &str = include_str!("../digests.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !args.record && args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn num(x: f64) -> Value {
    Value::Float(x)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A `{"value", "unit"}` metric entry.
pub fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", num(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// Hash of the simulator sources, standing in for the commit where the
/// checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(
            f.strip_prefix(&root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    sim_service::blake2s(&bytes).to_hex()
}

/// The commit checked out in the working directory, read from `.git`
/// there (and nowhere above it); "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let resolved = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
    };
    resolved
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn context(plan: &Plan, args: &Args, recorded: bool) -> Value {
    let why = WORKLOADS
        .iter()
        .find(|d| d.name == plan.workload)
        .map_or("", |d| d.why);
    obj(vec![
        ("workload", Value::Str(plan.workload.to_string())),
        ("why", Value::Str(why.to_string())),
        ("seed", Value::UInt(plan.seed)),
        (
            "ids",
            Value::Array(plan.ids.iter().map(|i| Value::Str(i.clone())).collect()),
        ),
        ("scale", num(plan.scale)),
        ("config", Value::Str(plan.config.name.clone())),
        ("passes", Value::Str(plan.passes.key())),
        ("nproc", Value::UInt(nproc() as u64)),
        ("jobs", Value::UInt(plan.jobs as u64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("sim_version", Value::Str(gpu_sim::SIM_VERSION.to_string())),
        ("commit", Value::Str(commit())),
        ("source_digest", Value::Str(source_digest())),
        ("recorded_digest", Value::Bool(recorded)),
    ])
}

/// Runs `plan`'s untraced passes for `seconds`.
fn run_untraced(
    plan: &Plan,
    expected: &mut Option<String>,
    seconds: f64,
    min: usize,
) -> Result<Tally, String> {
    let scratch = Scratch::new(Path::new(OUT_DIR)).map_err(|e| format!("scratch dir: {e}"))?;
    Ok(match plan.workload {
        "grid" | "frame" => workloads::run_harness(plan, expected, seconds, min),
        "store-warm" => workloads::run_store_warm(plan, expected, &scratch, seconds, min),
        _ => workloads::run_daemon_warm(plan, expected, &scratch, seconds, min),
    })
}

fn record() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(check::RECORDED_FILE);
    let mut table = check::Recorded::parse(RECORDED)?;
    for def in &WORKLOADS {
        for seed in 0..workloads::combinations(def.name) {
            let plan = Plan::new(def.name, seed, nproc()).expect("known workload");
            let tally = run_untraced(&plan, &mut None, 0.0, 1)?;
            if tally.failed > 0 {
                return Err(format!("{}: {} failed requests", plan.case(), tally.failed));
            }
            let digest = tally.first_digest.ok_or("no pass completed")?;
            eprintln!("{} {digest}", plan.case());
            table.insert(gpu_sim::SIM_VERSION, &plan.case(), &digest);
        }
    }
    std::fs::write(&path, table.to_text()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "refusing to run with {var} set: it changes what is measured"
        ));
    }
    if args.record {
        return record();
    }
    let plan = Plan::new(&args.workload, args.seed, nproc())
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let table = check::Recorded::parse(RECORDED)?;
    let recorded = table.get(gpu_sim::SIM_VERSION, &plan.case());
    if recorded.is_none() {
        eprintln!(
            "perfbench: no digest recorded for `{}` under SIM_VERSION {}; passes are checked against each other only",
            plan.case(),
            gpu_sim::SIM_VERSION
        );
    }
    let mut expected = recorded.map(str::to_string);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let (tally, metrics) = if args.trace {
        let untraced = run_untraced(&plan, &mut expected, args.seconds / 2.0, MIN_PASSES)?;
        let scratch = Scratch::new(Path::new(OUT_DIR)).map_err(|e| format!("scratch dir: {e}"))?;
        let traced = traced::run(&plan, &mut expected, &scratch, args.seconds / 2.0);
        let out =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", plan.workload, plan.seed));
        let metrics = traced.per_layer(&untraced);
        let dump = obj(vec![
            ("context", context(&plan, args, recorded.is_some())),
            ("spans", traced.spans_json()),
        ]);
        std::fs::write(&out, serde_json::to_string(&dump).expect("spans serialize"))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let mut tally = untraced;
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        (tally, metrics)
    } else {
        let tally = run_untraced(&plan, &mut expected, args.seconds, MIN_PASSES)?;
        if tally.rss_mb.is_empty() {
            return Err("cannot read VmHWM from /proc/self/status".to_string());
        }
        let metrics = vec![
            ("wall_s", metric(tally.reference_s(&tally.wall_s), "s")),
            ("setup_s", metric(tally.reference_s(&tally.setup_s), "s")),
            ("peak_rss_mb", metric(median(&tally.rss_mb), "MB")),
        ];
        (tally, metrics)
    };
    if tally.attempted == 0 {
        return Err("no kernel request was attempted".to_string());
    }
    eprintln!(
        "perfbench: {} setup_s {:?} wall_s {:?} probe_s {:?} peak_rss_mb {:?}",
        plan.case(),
        tally.setup_s,
        tally.wall_s,
        tally.probe_s,
        tally.rss_mb
    );

    println!(
        "{}",
        serde_json::to_string(&obj(vec![(
            "context",
            context(&plan, args, recorded.is_some())
        )]))
        .expect("context serializes")
    );
    let result = obj(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's name and unit rules.
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.field(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |f: &str| match m.field(f).unwrap() {
                    Value::Str(s) => s.clone(),
                    other => panic!("{f}: {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_unique_and_match_benchmark_json() {
        let declared = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_units(&declared, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = traced::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_units(&declared, "per_layer"), layers);

        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(traced::PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(traced::PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
        assert!(!valid_name("_x") && !valid_name("a b") && valid_name("engine.run_s"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let declared = benchmark_json();
        let listed: Vec<(String, String)> = declared
            .field("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(
                |w| match (w.field("name").unwrap(), w.field("why").unwrap()) {
                    (Value::Str(n), Value::Str(y)) => (n.clone(), y.clone()),
                    other => panic!("{other:?}"),
                },
            )
            .collect();
        let defined: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|d| (d.name.to_string(), d.why.to_string()))
            .collect();
        assert_eq!(listed, defined);
        for (name, why) in &defined {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn recorded_digests_parse() {
        check::Recorded::parse(RECORDED).unwrap();
    }
}
