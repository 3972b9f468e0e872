//! `sor-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8|models|recertify-server> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API of `sor-harness`,
//! `sor-server`, `sor-sim`, `sor-ace`, `sor-core` and `sor-regalloc` at
//! fixed coordinates (jit engine, lanes 1, one worker thread; a traced
//! run adds rounds on every core to measure the worker pool).
//! All inputs (kernel data, fault draws) derive from `--seed`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`, the end-to-end metrics with `--trace 0` and the per-layer
//! metrics with `--trace 1`. The lines before it carry the provenance
//! stamp and the exact counts; stderr carries a readable report.
//! `README.md` explains the workloads and what each metric should move.

mod campaigns;
mod certify;
mod ctx;
mod probe;
mod recert;
mod report;
mod trace;

use ctx::Ctx;
use report::{json_object, num, quoted, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

const WORKLOADS: [&str; 3] = ["fig8", "models", "recertify-server"];
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("a workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sor-perfbench: {e}");
            eprintln!(
                "usage: sor-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = WorkDir(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("sor-perfbench: cannot create {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, work.0.clone());
    match args.workload.as_str() {
        "fig8" => campaigns::run(
            &mut ctx,
            campaigns::fig8_cells(args.seed),
            campaigns::FIG8_RUNS,
        ),
        "models" => campaigns::run(
            &mut ctx,
            campaigns::models_cells(args.seed),
            campaigns::MODELS_RUNS,
        ),
        "recertify-server" => recert::run(&mut ctx),
        _ => unreachable!("validated by parse_args"),
    }
    finish(&mut ctx, &args);
}

fn finish(ctx: &mut Ctx, args: &Args) {
    // Exact counts must repeat for a seed: compare with the previous run
    // of this workload and seed in this checkout, if there was one.
    let counts = ctx.counts_json();
    let counts_path =
        Path::new(OUT_DIR).join(format!("counts-{}-{}.json", args.workload, args.seed));
    if let Ok(previous) = std::fs::read_to_string(&counts_path) {
        ctx.gate.check(previous.trim() == counts, || {
            format!(
                "exact counts differ from the previous run of this seed: {previous} vs {counts}"
            )
        });
    }
    let _ = std::fs::write(&counts_path, format!("{counts}\n"));

    if ctx.trace {
        let self_ms = ctx.tracer.self_ms_by_layer();
        for &(name, _, _) in PER_LAYER {
            if let Some(layer) = name.strip_prefix("self_ms.") {
                let v = self_ms.get(layer).copied().unwrap_or(0.0);
                ctx.set(name, v);
            }
        }
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&spans) {
            eprintln!("sor-perfbench: cannot write {}: {e}", spans.display());
        }
    }
    let failed_frac = ctx.gate.failed as f64 / ctx.gate.attempted.max(1) as f64;
    ctx.e2e.insert("ok_frac", 1.0 - failed_frac);

    let provenance = json_object([
        ("workload", quoted(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        // A run whose jit degraded to the decoded interpreter measured
        // another engine: stamp that engine, so it is never compared with
        // a native run.
        ("engine", quoted(if ctx.native { "jit" } else { "decoded" })),
        ("lanes", "1".to_string()),
        ("threads", ctx.threads.to_string()),
        // Also the worker threads of a traced run's pooled rounds.
        ("nproc", ctx.pool_threads.to_string()),
        ("cpu", quoted(&report::cpu_model())),
        ("git_rev", quoted(&report::git_rev())),
        ("native", ctx.native.to_string()),
        ("native_cells", ctx.native_cells.to_string()),
        ("rounds", ctx.rounds.to_string()),
        ("round_jobs", ctx.round_jobs.to_string()),
    ]);

    eprintln!("== sor-perfbench {} seed {} ==", args.workload, args.seed);
    eprintln!("provenance: {provenance}");
    if !ctx.native {
        eprintln!(
            "WARNING: jit degraded to the decoded interpreter; not comparable to native runs"
        );
    }
    eprintln!("end-to-end (untraced rounds):");
    for &(name, unit) in END_TO_END {
        eprintln!(
            "  {name:<14} {:>14.4} {unit}",
            ctx.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    eprintln!("  {:<14} {:>14.6} frac", "failed_frac", failed_frac);
    eprintln!(
        "correctness gate: {} of {} checks failed",
        ctx.gate.failed, ctx.gate.attempted
    );
    for f in &ctx.gate.failures {
        eprintln!("  FAILED: {f}");
    }
    if ctx.trace {
        eprintln!("per-layer (traced run; metric -> end-to-end metric it should move):");
        for &(name, unit, moves) in PER_LAYER {
            eprintln!(
                "  {name:<26} {:>14.4} {unit:<6} -> {moves}",
                ctx.layer[name]
            );
        }
        let speedup = ctx.layer["harness.pool_speedup"];
        if ctx.layer["harness.pool_anomaly"] > 0.0 {
            eprintln!(
                "ANOMALY: pool speedup {speedup:.2}x exceeds the {} worker threads",
                ctx.pool_threads
            );
        }
    }

    let metrics: Vec<(&str, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, unit, _)| (n, metric(ctx.layer[n], unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, unit)| (n, metric(ctx.e2e.get(n).copied().unwrap_or(0.0), unit)))
            .collect()
    };
    println!("{}", json_object([("provenance", provenance)]));
    println!("{}", json_object([("counts", counts)]));
    println!(
        "{}",
        json_object([
            ("correct", (ctx.gate.failed == 0).to_string()),
            ("attempted", ctx.gate.attempted.max(1).to_string()),
            ("failed", ctx.gate.failed.to_string()),
            ("metrics", json_object(metrics)),
        ])
    );
}

fn metric(value: f64, unit: &str) -> String {
    json_object([("value", num(value)), ("unit", quoted(unit))])
}
