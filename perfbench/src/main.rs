//! The repository benchmark: four workloads driven through public entry
//! points, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `perfbench/README.md` for the workloads, the
//! metric tables and the layer → metric → workload predictions.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A results file with the
//! run's provenance (and, for traced runs, a span dump) is written under
//! `.bench_out/` in the working directory.

mod checks;
mod imaged;
mod json;
mod mc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::{num, obj, render, text};
use serde::Value;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["imaged_pipeline", "mc_sweep", "serve_cold", "serve_warm"];

/// End-to-end metrics of the result line (tracing off): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// End-to-end figures printed by name (or as `n/a` with the reason) and
/// kept in the results file, but left out of the result line: they exist
/// on some workloads only, or (peak RSS of the serve workloads) vary too
/// much between identical runs for any bound to hold.
pub const REPORTED: &[(&str, &str)] = &[
    ("latency_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("drift_residual_px", "px"),
    ("dim_error_pct", "%"),
];

/// Per-layer metrics of the result line (traced run): `(name, unit)`. A
/// layer the workload never calls reports 0, as does a percentile without
/// enough samples beyond it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("imaging.acquire_ms", "ms"),
    ("imaging.normalize_ms", "ms"),
    ("imaging.align_ms", "ms"),
    ("imaging.denoise_ms", "ms"),
    ("imaging.reconstruct_ms", "ms"),
    ("imaging.align_ms_per_slice", "ms"),
    ("imaging.align_search_iters", "count"),
    ("imaging.align_share", "ratio"),
    ("imaging.drift_residual_px", "px"),
    ("synth.generate_ms", "ms"),
    ("synth.voxelize_ms", "ms"),
    ("extract.crop_ms", "ms"),
    ("extract.extract_ms", "ms"),
    ("extract.measure_ms", "ms"),
    ("extract.dim_error_pct", "%"),
    ("circuit.identify_ms", "ms"),
    ("analog.activation_ms.classic", "ms"),
    ("analog.activation_ms.ocsa", "ms"),
    ("analog.steps_per_activation.classic", "count"),
    ("analog.steps_per_activation.ocsa", "count"),
    ("analog.newton_iters_per_step.classic", "ratio"),
    ("analog.newton_iters_per_step.ocsa", "ratio"),
    ("analog.us_per_newton_iter", "us"),
    ("store.get_ms_p50", "ms"),
    ("store.decode_ms_p50", "ms"),
    ("store.put_ms_p50", "ms"),
    ("store.encode_ms_p50", "ms"),
    ("store.bytes_read_per_job", "B"),
    ("store.bytes_written_per_job", "B"),
    ("store.hit_ratio", "ratio"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p90", "ms"),
    ("serve.poll_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.dedup_hits", "count"),
    ("serve.rejected_429", "count"),
    ("serve.report_bytes", "B"),
    ("core.orchestration_ms", "ms"),
    ("telemetry.instrumented_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("process.peak_rss_mib", "MiB"),
];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the working directory (stores, results).
    pub out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; a missing value carries its reason instead.
    pub values: BTreeMap<String, Result<f64, String>>,
    /// Traced-run guards: `(name, passed, detail)`.
    pub guards: Vec<(String, bool, String)>,
    /// Further facts for the results file (sample counts, resolution, …).
    pub notes: Vec<(String, Value)>,
    pub tracer: Option<Tracer>,
}

impl Run {
    /// Records metric `name`, or why it has no value.
    pub fn set(&mut self, name: &str, value: Option<f64>, why_missing: &str) {
        self.values.insert(
            name.to_string(),
            value.ok_or_else(|| why_missing.to_string()),
        );
    }

    pub fn note(&mut self, name: &str, value: Value) {
        self.notes.push((name.to_string(), value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|v| v.as_ref().ok().copied())
    }
}

/// Records a traced-run guard.
pub fn guard(run: &mut Run, name: &str, passed: bool, detail: String) {
    run.guards.push((name.to_string(), passed, detail));
}

/// Records `core.orchestration_ms` and `trace.overhead_pct` from the summed
/// untraced op wall time, the summed stage spans and the summed traced op
/// spans, and guards that the stages account for the op wall time.
///
/// Orchestration is what the program does around the stage calls
/// (`untraced − stages`). The guard asks that it stay within the tracing
/// overhead plus a tenth of the untraced time, and that the stage spans
/// cover all but a twentieth of the traced ops' time. All are sums over
/// the replayed ops.
pub fn account(run: &mut Run, untraced_ms: f64, staged_ms: f64, traced_ms: f64, ops: f64) {
    let orchestration = untraced_ms - staged_ms;
    let overhead = traced_ms - untraced_ms;
    run.set("core.orchestration_ms", Some(orchestration / ops), "");
    run.set(
        "trace.overhead_pct",
        Some(overhead / untraced_ms * 100.0),
        "",
    );
    let accounted = orchestration.abs() <= overhead.abs() + 0.1 * untraced_ms
        && traced_ms - staged_ms <= 0.05 * traced_ms;
    guard(
        run,
        "layer times plus orchestration account for op wall time",
        accounted,
        format!("untraced {untraced_ms:.1} ms, stages {staged_ms:.1} ms, traced {traced_ms:.1} ms"),
    );
}

/// Runs `body`, returning its wall time in seconds with its value.
pub fn timed<T>(body: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = body();
    (t0.elapsed().as_secs_f64(), out)
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a u64".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        out_dir: cwd.join(".bench_out"),
    })
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit(root: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

fn provenance(ctx: &Ctx) -> Value {
    let root = ctx.out_dir.parent().unwrap_or(Path::new("."));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("git_commit", text(git_commit(root))),
        ("nproc", Value::UInt(nproc as u64)),
        (
            "rayon_threads",
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        (
            "command",
            Value::Array(std::env::args().map(text).collect()),
        ),
        (
            "cargo_profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", text(ctx.workload.as_str())),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
    ])
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(REPORTED)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn execute(ctx: &Ctx) -> Result<(Run, Value), String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    let mut run = match ctx.workload.as_str() {
        "imaged_pipeline" => imaged::run(ctx),
        "mc_sweep" => mc::run(ctx),
        "serve_cold" => serve::run(ctx, false),
        "serve_warm" => serve::run(ctx, true),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    let peak = stats::peak_rss_mib();
    run.set("peak_rss_mib", peak, "no /proc/self/status");
    run.set("process.peak_rss_mib", peak, "no /proc/self/status");

    let (table, fill_missing): (&[(&str, &str)], bool) = if ctx.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match (run.value(name), fill_missing) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => {
                return Err(format!("workload produced no value for `{name}`"));
            }
        };
        metrics.push((
            name.to_string(),
            obj([("value", num(value)), ("unit", text(*unit))]),
        ));
    }
    Ok((run, Value::Object(metrics)))
}

fn main() -> ExitCode {
    // The benchmark owns every path it touches: keep the program's opt-in
    // store and trace sinks from writing outside the working directory.
    std::env::remove_var("HIFI_STORE");
    std::env::remove_var("HIFI_TRACE");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (run, metrics) = match execute(&ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };

    let guards_ok = run.guards.iter().all(|(_, ok, _)| *ok);
    let correct = run.failed == 0 && guards_ok;
    println!(
        "{} seed={} trace={} attempted={} failed={}",
        ctx.workload, ctx.seed, ctx.trace as u8, run.attempted, run.failed
    );
    let shown: Vec<&str> = if ctx.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().chain(REPORTED).map(|(n, _)| *n).collect()
    };
    for name in shown {
        match run.values.get(name) {
            Some(Ok(v)) => println!("  {name:<38} {v:>14.4} {}", unit_of(name)),
            Some(Err(why)) => println!("  {name:<38} {:>14} ({why})", "n/a"),
            None => println!("  {name:<38} {:>14} (layer not called)", "n/a"),
        }
    }
    for (name, ok, detail) in &run.guards {
        println!(
            "  guard {}: {name} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }

    let stem = format!("{}-seed{}-trace{}", ctx.workload, ctx.seed, ctx.trace as u8);
    let results = obj([
        ("provenance", provenance(&ctx)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed)),
        (
            "values",
            Value::Object(
                run.values
                    .iter()
                    .map(|(k, v)| {
                        let value = match v {
                            Ok(x) => obj([("value", num(*x)), ("unit", text(unit_of(k)))]),
                            Err(why) => obj([("value", Value::Null), ("why", text(why.as_str()))]),
                        };
                        (k.clone(), value)
                    })
                    .collect(),
            ),
        ),
        (
            "guards",
            Value::Array(
                run.guards
                    .iter()
                    .map(|(n, ok, d)| {
                        obj([
                            ("name", text(n.as_str())),
                            ("passed", Value::Bool(*ok)),
                            ("detail", text(d.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Value::Object(run.notes.clone())),
    ]);
    let write = |name: String, doc: &Value| {
        let path = ctx.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, render(doc)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    };
    write(format!("{stem}.json"), &results);
    if let Some(tracer) = &run.tracer {
        write(format!("{stem}-spans.json"), &tracer.to_json());
    }

    println!(
        "{}",
        render(&obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(run.attempted)),
            ("failed", Value::UInt(run.failed)),
            ("metrics", metrics),
        ]))
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(v: &Value) -> Vec<(String, String)> {
        match v {
            Value::Array(items) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.field(k) {
                        Ok(Value::Str(s)) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The result line and `BENCHMARK.json` must name the same metrics,
    /// units and workloads.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(doc.field("end_to_end").unwrap()), owned(END_TO_END));
        assert_eq!(names(doc.field("per_layer").unwrap()), owned(PER_LAYER));
        let workloads: Vec<String> = match doc.field("workloads").unwrap() {
            Value::Array(items) => items
                .iter()
                .map(|w| match w.field("name") {
                    Ok(Value::Str(s)) => s.clone(),
                    other => panic!("{other:?}"),
                })
                .collect(),
            other => panic!("{other:?}"),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload mc_sweep --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload mc_sweep --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload mc_sweep --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload mc_sweep --seed 7 --trace 0")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
    }
}
