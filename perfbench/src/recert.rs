//! `recertify-server`: one closed-loop client re-certifies through an
//! in-process `sor-server` whose store the certification suite filled
//! during set-up, a freshly started server for every round. Every section
//! hits, so no job runs an injection.

use crate::certify::{self, TECHNIQUES};
use crate::ctx::{measure, Ctx, Round};
use crate::report::{median, percentile};
use sor_harness::{certified_json, ArtifactStore, ResultStore};
use sor_server::{Client, Json, Server, ServerConfig, ServerHandle};
use sor_workloads::AdpcmDec;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is their interquartile mean.
const SETUPS: usize = 3;
/// Fixed interval between a client's polls of its job.
const POLL: Duration = Duration::from_millis(1);
/// A job still pending after this long fails the gate instead of hanging
/// the run.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Jobs one timed round submits. Each round starts a fresh server on the
/// filled store, so its job registry grows over the same jobs in every
/// round and the run's length does not change what a job costs.
const ROUND_JOBS: usize = 250;

/// Filled store and what its jobs must return.
struct Filled {
    arts: ArtifactStore,
    /// Per technique: the result bytes of the suite's certification.
    expected: Vec<String>,
    /// Per technique: (injections, fault sites) one result stands for.
    served: Vec<(f64, f64)>,
    /// Time to open the filled store, in ms.
    open_ms: f64,
}

/// Certifies the suite into a store under `dir`.
fn fill(ctx: &mut Ctx, dir: &Path, kernel: &AdpcmDec) -> Filled {
    let _ = std::fs::remove_dir_all(dir);
    let arts = certify::prepare(kernel);
    let results = ResultStore::open(dir.join("store"));
    let reports = certify::certify_all(ctx, &arts, &results, kernel);
    results.flush();
    ctx.set("harness.store_bytes", certify::store_bytes(&results));
    drop(results);
    certify::set_counts(ctx, &reports);
    // The read side: what the server pays to load the filled store.
    let open = Instant::now();
    drop(ResultStore::open(dir.join("store")));
    let open_ms = open.elapsed().as_secs_f64() * 1e3;
    Filled {
        arts,
        expected: reports
            .iter()
            .map(|r| certified_json(&r.coverage))
            .collect(),
        served: reports
            .iter()
            .map(|r| {
                (
                    r.coverage.injections_executed as f64,
                    r.coverage.total_sites as f64,
                )
            })
            .collect(),
        open_ms,
    }
}

/// Starts a server (one worker) on `dir` with an empty job registry.
fn serve(dir: &Path) -> ServerHandle {
    let _ = std::fs::remove_file(dir.join("jobs.json"));
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.to_path_buf(),
        workers: 1,
    })
    .unwrap_or_else(|e| panic!("cannot start the server: {e}"))
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

fn job_spec(name: &str, kernel: &AdpcmDec) -> String {
    format!(
        "{{\"kind\": \"certify\", \"technique\": \"{name}\", \"workload\": \"adpcmdec\", \
         \"samples\": {}, \"wseed\": {}, \"engine\": \"jit\", \"threads\": 1, \"lanes\": 1}}",
        kernel.samples, kernel.seed
    )
}

/// Per-job observations beyond the turnaround time.
#[derive(Default)]
struct Jobs {
    queue_wait_ms: Vec<f64>,
    fresh_injections: u64,
}

/// Submits one job, polls it to a terminal state and fetches its result;
/// returns the turnaround in ms.
fn one_job(
    ctx: &mut Ctx,
    client: &Client,
    spec: &str,
    want: &str,
    jobs: &mut Jobs,
    id: u32,
) -> f64 {
    let start = Instant::now();
    let span = ctx.tracer.enter("bench.job", id);
    let submitted = ctx.tracer.span("server.submit", id, || client.submit(spec));
    let job = match submitted {
        Ok(job) => job,
        Err(e) => {
            ctx.tracer.exit(span);
            ctx.gate.check(false, || format!("submit failed: {e}"));
            return start.elapsed().as_secs_f64() * 1e3;
        }
    };
    let queued_at = Instant::now();
    let mut waited = None;
    let state_of = |doc: &Result<Json, String>| -> Option<String> {
        let state = doc.as_ref().ok()?.get("state")?.as_str()?;
        Some(state.to_string())
    };
    let doc = loop {
        let doc = ctx.tracer.span("server.poll", id, || client.job(job));
        let state = state_of(&doc);
        if waited.is_none() && state.as_deref() != Some("queued") {
            waited = Some(queued_at.elapsed().as_secs_f64() * 1e3);
        }
        let pending = matches!(state.as_deref(), Some("queued" | "running"));
        if !pending || queued_at.elapsed() > JOB_TIMEOUT {
            break doc;
        }
        std::thread::sleep(POLL);
    };
    jobs.queue_wait_ms.extend(waited);
    let state = state_of(&doc);
    ctx.gate.check(state.as_deref() == Some("done"), || {
        format!("job {job} ended {state:?}: {doc:?}")
    });
    let fresh = doc
        .as_ref()
        .ok()
        .and_then(|d| d.get("progress"))
        .and_then(|p| p.get("fresh_injections"))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX);
    ctx.gate.check(fresh == 0, || {
        format!("job {job} ran {fresh} injections on a warm store")
    });
    jobs.fresh_injections = jobs.fresh_injections.saturating_add(fresh);
    let got = ctx
        .tracer
        .span("server.result", id, || client.result_bytes(job));
    ctx.gate.check(got.as_deref() == Ok(want), || {
        format!("job {job}: fetched result differs from the certified bytes")
    });
    ctx.tracer.exit(span);
    start.elapsed().as_secs_f64() * 1e3
}

pub fn run(ctx: &mut Ctx) {
    let kernel = certify::kernel(ctx.seed);
    let dir = ctx.work.join("server");

    // Set-up: fill the store, start the server. Earlier set-ups are shut
    // down; the last one serves the warm-up.
    let mut setup_s = Vec::new();
    let mut open_ms = Vec::new();
    let mut started: Option<(Filled, ServerHandle)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = started.take() {
            stop(server);
        }
        let t = Instant::now();
        let filled = fill(ctx, &dir, &kernel);
        let server = serve(&dir);
        let health = Client::new(server.addr().to_string()).health();
        ctx.gate
            .check(health.is_ok(), || format!("server health: {health:?}"));
        setup_s.push(t.elapsed().as_secs_f64());
        open_ms.push(filled.open_ms);
        started = Some((filled, server));
    }
    ctx.set_setup(&setup_s);
    ctx.set("harness.store_open_ms", median(&open_ms));
    let (
        Filled {
            arts,
            expected,
            served,
            ..
        },
        server,
    ) = started.expect("at least one set-up");

    // Golden outputs and the legacy oracle on the served programs; traced,
    // also the golden run, def-use trace and plan each job recomputes
    // before it finds every section in the store.
    certify::gate_and_probe(ctx, &arts, &kernel);

    let specs: Vec<String> = TECHNIQUES
        .iter()
        .map(|(_, n)| job_spec(n, &kernel))
        .collect();
    let mut jobs = Jobs::default();
    let mut n = 0u32;

    // One cycle of jobs, one per technique, untimed: the server prepares
    // and compiles each artifact here.
    let warm_up = |ctx: &mut Ctx, server: &ServerHandle, jobs: &mut Jobs, n: &mut u32| {
        let client = Client::new(server.addr().to_string());
        for (spec, want) in specs.iter().zip(&expected) {
            one_job(ctx, &client, spec, want, jobs, *n);
            *n += 1;
        }
    };

    // The set-up server's warm-up: its store and artifact counters are the
    // run's exact counts.
    let state = server.state();
    let (hits, misses) = (state.results.hits(), state.results.misses());
    let (ahits, amisses) = (state.artifacts.hits(), state.artifacts.misses());
    warm_up(ctx, &server, &mut jobs, &mut n);
    ctx.set("harness.store_hits", (state.results.hits() - hits) as f64);
    ctx.set(
        "harness.store_misses",
        (state.results.misses() - misses) as f64,
    );
    ctx.set(
        "harness.artifact_hits",
        (state.artifacts.hits() - ahits) as f64,
    );
    ctx.set(
        "harness.artifact_misses",
        (state.artifacts.misses() - amisses) as f64,
    );
    stop(server);

    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut warnings = 0;
    // The jobs run inside the server, so the worker-thread count the
    // round is given changes nothing here.
    measure(ctx, |ctx, _threads| {
        // A fresh server and its warm-up cycle, untimed.
        let server = serve(&dir);
        warm_up(ctx, &server, &mut jobs, &mut n);
        let state = server.state();
        let misses = state.results.misses();
        let client = Client::new(server.addr().to_string());
        let mut round = Round::default();
        for i in 0..ROUND_JOBS {
            let t = i % specs.len();
            let ms = one_job(ctx, &client, &specs[t], &expected[t], &mut jobs, n);
            n += 1;
            round.job_ms.push(ms);
            round.injections += served[t].0;
            round.sites += served[t].1;
        }
        ctx.gate.check(state.results.misses() == misses, || {
            format!(
                "{} store misses on a warm store",
                state.results.misses() - misses
            )
        });
        warnings += state.results.warnings();
        rounds.push(round.job_ms.clone());
        stop(server);
        round
    });

    if ctx.trace {
        // Each job position's fastest time over the rounds: the registry
        // holds the same jobs at that position in every round.
        let fastest: Vec<f64> = (0..ROUND_JOBS)
            .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect();
        let tenth = ROUND_JOBS / 10;
        ctx.set("server.job_ms.first_tenth", median(&fastest[..tenth]));
        ctx.set(
            "server.job_ms.last_tenth",
            median(&fastest[ROUND_JOBS - tenth..]),
        );
        for (span, p50, p99) in [
            (
                "server.submit",
                "server.submit_ms.p50",
                Some("server.submit_ms.p99"),
            ),
            (
                "server.poll",
                "server.poll_ms.p50",
                Some("server.poll_ms.p99"),
            ),
            ("server.result", "server.result_ms.p50", None),
        ] {
            let ms = ctx.tracer.durations_ms(span);
            ctx.set(p50, percentile(&ms, 50.0));
            if let Some(p99) = p99 {
                ctx.set(p99, percentile(&ms, 99.0));
            }
        }
        ctx.set(
            "server.queue_wait_ms.p50",
            percentile(&jobs.queue_wait_ms, 50.0),
        );
        ctx.set("server.fresh_injections", jobs.fresh_injections as f64);
        let registry = std::fs::metadata(dir.join("jobs.json")).map_or(0.0, |m| m.len() as f64);
        ctx.set("server.registry_bytes", registry);
        ctx.set("harness.store_warnings", warnings as f64);
    }
}
