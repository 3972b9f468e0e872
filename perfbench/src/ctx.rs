//! Run-wide state shared by the workloads, and the timed round loop.

use crate::report::{self, percentile, Gate, PER_LAYER};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Everything one benchmark run accumulates.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of the untraced rounds behind the end-to-end
    /// metrics: one, so a round never waits on a second vCPU of a shared
    /// host.
    pub threads: usize,
    /// Worker threads of the pooled rounds a traced run adds to measure
    /// the pool's speed-up: every core the host offers.
    pub pool_threads: usize,
    /// Scratch directory for result stores and the server, removed at exit.
    pub work: PathBuf,
    pub tracer: Tracer,
    pub gate: Gate,
    /// Whether every prepared program ran native jit code.
    pub native: bool,
    /// Cells whose jit compile returned `Some`.
    pub native_cells: u64,
    /// Jobs in one timed round: the samples behind the job percentiles.
    pub round_jobs: usize,
    /// Untraced timed rounds each job's fastest time is taken over.
    pub rounds: usize,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, work: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            threads: 1,
            pool_threads: sor_harness::resolve_threads(0),
            work,
            tracer: Tracer::new(trace),
            gate: Gate::default(),
            native: true,
            native_cells: 0,
            round_jobs: 0,
            rounds: 0,
            e2e: BTreeMap::new(),
            layer: PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// Adds to a per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.layer[name];
        self.set(name, v + value);
    }

    /// Sets `setup_s` to the interquartile mean of the repeated set-ups.
    pub fn set_setup(&mut self, seconds: &[f64]) {
        let all: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        eprintln!("set-up seconds: {}", all.join(" "));
        self.e2e.insert("setup_s", report::midmean(seconds));
    }

    /// Records whether a prepared program got a native image.
    pub fn note_native(&mut self, native: bool) {
        self.native &= native;
        self.native_cells += native as u64;
    }

    /// Records the outcome histogram of a set of cells as exact counts.
    pub fn set_outcomes(&mut self, c: &sor_harness::OutcomeCounts) {
        self.set("sim.outcomes.unace", c.unace as f64);
        self.set("sim.outcomes.sdc", c.sdc as f64);
        self.set("sim.outcomes.segv", c.segv as f64);
        self.set("sim.outcomes.detected", c.detected as f64);
        self.set("sim.outcomes.hang", c.hang as f64);
    }

    /// Deterministic per-seed counts, as one JSON object.
    pub fn counts_json(&self) -> String {
        report::json_object(
            report::EXACT_COUNTS
                .iter()
                .map(|&n| (n, report::num(self.layer[n]))),
        )
    }
}

/// One timed pass over a workload's jobs. Every round of a run runs the
/// same jobs in the same order, so the `i`-th job of one round is the
/// same work as the `i`-th job of any other.
#[derive(Default)]
pub struct Round {
    /// Per-job latencies in milliseconds, in the round's job order.
    pub job_ms: Vec<f64>,
    /// Injection results delivered: executed, or served from the store.
    pub injections: f64,
    /// Fault sites classified.
    pub sites: f64,
}

/// The fastest time of every job over a set of rounds.
///
/// Noise on a shared host only ever slows a job down: the same job varies
/// by tens of percent between rounds, in bursts, while its fastest time
/// over a run repeats far better from run to run. So every timing below is
/// a job's fastest, and a round's time is the sum of its jobs' fastest
/// times.
struct Fastest {
    job_ms: Vec<f64>,
    secs: f64,
}

impl Fastest {
    fn of(rounds: &[Round]) -> Fastest {
        let n = rounds[0].job_ms.len();
        assert!(
            rounds.iter().all(|r| r.job_ms.len() == n),
            "every round runs the same jobs"
        );
        let job_ms: Vec<f64> = (0..n)
            .map(|i| {
                rounds
                    .iter()
                    .map(|r| r.job_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let secs = job_ms.iter().sum::<f64>() / 1e3;
        Fastest { job_ms, secs }
    }
}

/// Records the memory high-water mark, then repeats `round` (given the
/// worker-thread count to use) until `ctx.seconds` have passed, and
/// derives the throughput and latency metrics from the untraced rounds.
/// A traced run cycles through three kinds of round: untraced, traced,
/// and untraced on `ctx.pool_threads` worker threads. Interleaving them
/// exposes all three to the same host conditions, so the run measures its
/// own tracing overhead and the worker pool's speed-up without a
/// single-shot bias.
pub fn measure(ctx: &mut Ctx, mut round: impl FnMut(&mut Ctx, usize) -> Round) {
    // Set-up and warm-up have run: this is the working set's footprint.
    // Taken here, not at exit, so it does not grow with the number of
    // rounds (or server jobs) a run manages to fit in.
    ctx.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    let trace = ctx.trace;
    let kinds = if trace { 3 } else { 1 };
    let mut rounds: [Vec<Round>; 3] = Default::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || rounds[i % kinds].len() < 2 {
        let kind = i % kinds;
        ctx.tracer.set_enabled(kind == 1);
        let threads = if kind == 2 {
            ctx.pool_threads
        } else {
            ctx.threads
        };
        let r = round(ctx, threads);
        rounds[kind].push(r);
        i += 1;
    }
    ctx.tracer.set_enabled(trace);
    let [plain, traced, pooled] = rounds;

    let best = Fastest::of(&plain);
    let first = &plain[0];
    ctx.e2e.insert("inj_per_s", first.injections / best.secs);
    ctx.e2e.insert("sites_per_s", first.sites / best.secs);
    ctx.e2e
        .insert("jobs_per_s", best.job_ms.len() as f64 / best.secs);
    ctx.e2e.insert("job_p50_ms", percentile(&best.job_ms, 50.0));
    ctx.e2e.insert("job_p99_ms", percentile(&best.job_ms, 99.0));
    ctx.round_jobs = best.job_ms.len();
    ctx.rounds = plain.len();
    let secs: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}", r.job_ms.iter().sum::<f64>() / 1e3))
        .collect();
    eprintln!("untraced round seconds: {}", secs.join(" "));
    eprintln!(
        "fastest round seconds (sum of each job's fastest): {:.4}",
        best.secs
    );
    if trace {
        let overhead = Fastest::of(&traced).secs / best.secs - 1.0;
        ctx.set("trace.overhead_pct", overhead * 100.0);
        let speedup = best.secs / Fastest::of(&pooled).secs;
        ctx.set("harness.pool_speedup", speedup);
        // More than the worker count is impossible for a sound measurement.
        let anomaly = speedup > ctx.pool_threads as f64;
        ctx.set("harness.pool_anomaly", anomaly as u8 as f64);
    }
}
