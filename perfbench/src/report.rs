//! Metric tables, the correctness gate, provenance and the printed report.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, measured on untraced rounds. Every
/// workload reports every one of them; what a "job" is differs per
/// workload (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("inj_per_s", "1/s"),
    ("sites_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit, end-to-end metric it should move)`,
/// reported by the traced run. A workload that never calls a layer
/// reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.transform_ms", "ms", "setup_s"),
    ("core.ir_instrs", "count", "setup_s"),
    ("regalloc.lower_ms", "ms", "setup_s"),
    ("regalloc.program_instrs", "count", "setup_s; inj_per_s"),
    ("sim.decode_ms", "ms", "setup_s"),
    ("sim.jit_compile_ms", "ms", "setup_s"),
    ("sim.jit_native_cells", "count", "setup_s"),
    ("sim.golden_ms", "ms", "setup_s; job_p50_ms"),
    ("sim.checkpoint_ms", "ms", "setup_s; job_p50_ms"),
    ("sim.golden_instrs", "count", "setup_s; job_p50_ms"),
    ("sim.checkpoints", "count", "setup_s; job_p50_ms"),
    ("sim.checkpoint_pages", "count", "setup_s; job_p50_ms"),
    ("sim.inject_us.p50", "us", "inj_per_s"),
    ("sim.inject_us.p99", "us", "inj_per_s"),
    ("sim.gen_inject_us.p50", "us", "inj_per_s"),
    ("sim.gen_inject_us.p99", "us", "inj_per_s"),
    ("sim.outcomes.unace", "count", "ok_frac (must not move)"),
    ("sim.outcomes.sdc", "count", "ok_frac (must not move)"),
    ("sim.outcomes.segv", "count", "ok_frac (must not move)"),
    ("sim.outcomes.detected", "count", "ok_frac (must not move)"),
    ("sim.outcomes.hang", "count", "ok_frac (must not move)"),
    ("models.sample_ns", "ns", "inj_per_s"),
    ("harness.pool_speedup", "x", "inj_per_s"),
    ("harness.pool_anomaly", "count", "inj_per_s"),
    ("harness.artifact_hits", "count", "job_p50_ms"),
    ("harness.artifact_misses", "count", "job_p50_ms"),
    ("harness.store_open_ms", "ms", "setup_s"),
    ("harness.store_hits", "count", "sites_per_s; job_p50_ms"),
    ("harness.store_misses", "count", "sites_per_s; job_p50_ms"),
    ("harness.store_warnings", "count", "ok_frac"),
    ("harness.store_bytes", "bytes", "sites_per_s; job_p50_ms"),
    ("ace.trace_ms", "ms", "sites_per_s; job_p50_ms"),
    ("ace.plan_ms", "ms", "sites_per_s; job_p50_ms"),
    ("ace.classes", "count", "sites_per_s; job_p50_ms"),
    ("ace.injections", "count", "sites_per_s"),
    ("ace.pruned_frac", "frac", "sites_per_s"),
    ("server.submit_ms.p50", "ms", "job_p50_ms; jobs_per_s"),
    ("server.submit_ms.p99", "ms", "job_p99_ms"),
    ("server.poll_ms.p50", "ms", "job_p50_ms; jobs_per_s"),
    ("server.poll_ms.p99", "ms", "job_p99_ms"),
    ("server.result_ms.p50", "ms", "job_p50_ms; jobs_per_s"),
    ("server.queue_wait_ms.p50", "ms", "job_p50_ms"),
    ("server.job_ms.first_tenth", "ms", "job_p99_ms"),
    ("server.job_ms.last_tenth", "ms", "job_p99_ms"),
    ("server.registry_bytes", "bytes", "job_p99_ms"),
    ("server.fresh_injections", "count", "jobs_per_s"),
    ("trace.overhead_pct", "%", "all (tracing cost)"),
    ("self_ms.bench", "ms", "none (benchmark's own code)"),
    ("self_ms.core", "ms", "setup_s"),
    ("self_ms.regalloc", "ms", "setup_s"),
    ("self_ms.sim", "ms", "inj_per_s; setup_s"),
    ("self_ms.models", "ms", "inj_per_s"),
    ("self_ms.harness", "ms", "inj_per_s; sites_per_s"),
    ("self_ms.ace", "ms", "sites_per_s; job_p50_ms"),
    ("self_ms.server", "ms", "job_p50_ms; jobs_per_s"),
];

/// Per-layer metrics that are exact counts: identical in traced and
/// untraced runs and across repeated runs of one seed.
pub const EXACT_COUNTS: &[&str] = &[
    "sim.outcomes.unace",
    "sim.outcomes.sdc",
    "sim.outcomes.segv",
    "sim.outcomes.detected",
    "sim.outcomes.hang",
    "sim.golden_instrs",
    "ace.classes",
    "ace.injections",
    "ace.pruned_frac",
    "harness.store_hits",
    "harness.store_misses",
    "harness.artifact_hits",
    "harness.artifact_misses",
];

/// The correctness gate: every check is one attempted operation, every
/// failed check one failed operation.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of the middle half of the values; 0 if
/// empty. Set-up times on a shared host fall into two modes that persist
/// for seconds; a median of such samples jumps between the modes, while
/// this moves with the share of samples in each.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 if empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Host memory high-water mark of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark was built from, or `unknown` outside a git
/// checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders `(key, value)` pairs as one JSON object; values are written
/// verbatim, so strings must arrive quoted.
pub fn json_object<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push('}');
    out
}

/// A metric value as JSON: full precision, non-finite values as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
