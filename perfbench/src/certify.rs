//! The certification suite `recertify-server` serves: exhaustive
//! certification of a small adpcmdec under five techniques into an
//! on-disk result store, and the checks and probes of those programs.

use crate::ctx::Ctx;
use crate::probe::{self, derive_seed, jit_config};
use sor_ace::{CertPlan, DefUseTrace};
use sor_core::{Technique, TransformConfig};
use sor_harness::{
    run_certified_campaign_stored, ArtifactStore, CertifyConfig, ExecEngine,
    IncrementalCertification, OutcomeCounts, ResultStore,
};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{GenFault, MachineConfig, Runner};
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

/// adpcmdec samples: default-size kernels take minutes to certify. At 8,
/// filling the store with the whole suite takes under a second on one
/// thread, so the set-up can be repeated within a run.
pub const SAMPLES: u64 = 8;
/// The certified techniques, with the name a server job spells each.
pub const TECHNIQUES: [(Technique, &str); 5] = [
    (Technique::Noft, "noft"),
    (Technique::Mask, "mask"),
    (Technique::Trump, "trump"),
    (Technique::TrumpSwiftR, "trumpswiftr"),
    (Technique::SwiftR, "swiftr"),
];
/// Class representatives per technique checked against the legacy stepper.
const ORACLE_FAULTS: usize = 16;

/// The certified kernel, its input data drawn from `seed`.
pub fn kernel(seed: u64) -> AdpcmDec {
    AdpcmDec {
        samples: SAMPLES,
        seed: probe::input_seed(seed, "adpcmdec"),
    }
}

/// Prepares every technique's artifact and compiles its native image.
pub fn prepare(kernel: &AdpcmDec) -> ArtifactStore {
    let arts = ArtifactStore::new();
    for (t, _) in TECHNIQUES {
        arts.get(
            kernel,
            t,
            &TransformConfig::default(),
            &LowerConfig::default(),
        )
        .jit_for(ExecEngine::Jit);
    }
    arts
}

/// Certifies every technique into `results` on `ctx.threads` threads.
pub fn certify_all(
    ctx: &mut Ctx,
    arts: &ArtifactStore,
    results: &ResultStore,
    kernel: &AdpcmDec,
) -> Vec<IncrementalCertification> {
    let cfg = CertifyConfig {
        threads: ctx.threads,
        engine: ExecEngine::Jit,
        lanes: 1,
        ..CertifyConfig::default()
    };
    TECHNIQUES
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| {
            ctx.tracer.span("harness.certify", i as u32, || {
                run_certified_campaign_stored(arts, results, kernel, t, &cfg)
            })
        })
        .collect()
}

/// Checks golden outputs against the reference and sampled class
/// representatives against the legacy stepper; with tracing on, also
/// times each layer of every technique from outside.
pub fn gate_and_probe(ctx: &mut Ctx, arts: &ArtifactStore, kernel: &AdpcmDec) {
    let reference = kernel.reference_output();
    for (i, &(t, _)) in TECHNIQUES.iter().enumerate() {
        let id = i as u32;
        let a = arts.get(
            kernel,
            t,
            &TransformConfig::default(),
            &LowerConfig::default(),
        );
        let jit = a.jit_for(ExecEngine::Jit);
        ctx.note_native(jit.is_some());
        let runner = Runner::with_images(
            &a.program,
            &jit_config(MachineConfig::AUTO_CHECKPOINT),
            Some(a.decoded.clone()),
            jit,
        );
        ctx.gate.check(runner.golden().output == reference, || {
            format!("adpcmdec/{t}: golden output differs from the reference")
        });
        let trace = DefUseTrace::record(&runner);
        let plan = CertPlan::build(&trace);
        let seed = derive_seed(ctx.seed, "oracle", i as u64);
        let faults = representatives(&plan, seed, ORACLE_FAULTS);
        probe::oracle(
            ctx,
            &format!("adpcmdec/{t}"),
            &a.program,
            &runner,
            &faults,
            true,
        );

        if !ctx.trace {
            continue;
        }
        let span = ctx.tracer.enter("bench.cell", id);
        // The server serves memoized artifacts: no preparation per job.
        let jit = a.jit_for(ExecEngine::Jit);
        let runner = probe::golden(ctx, id, &a.program, &a.decoded, &jit);
        let start = Instant::now();
        let trace = ctx
            .tracer
            .span("ace.trace", id, || DefUseTrace::record(&runner));
        ctx.add("ace.trace_ms", start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        ctx.tracer.span("ace.plan", id, || CertPlan::build(&trace));
        ctx.add("ace.plan_ms", start.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.exit(span);
    }
}

/// `n` seeded injections at class representatives of `plan`: the faults a
/// certification executes.
fn representatives(plan: &CertPlan, seed: u64, n: usize) -> Vec<GenFault> {
    let mut rng = SmallRng::seed_from_u64(seed);
    if plan.classes.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let class = rng.choose(&plan.classes);
            let bit = rng.gen_range(0, 64) as u8;
            GenFault::from_spec(sor_sim::FaultSpec::new(class.hi, class.reg, bit))
        })
        .collect()
}

/// Records the exact counts of one certification suite.
pub fn set_counts(ctx: &mut Ctx, reports: &[IncrementalCertification]) {
    let mut counts = OutcomeCounts::default();
    let (mut classes, mut injections, mut dead, mut total, mut golden) = (0, 0, 0, 0, 0);
    for r in reports {
        let c = &r.coverage;
        counts += c.counts;
        classes += c.classes;
        injections += c.injections_executed;
        dead += c.dead_sites;
        total += c.total_sites;
        golden += c.golden_instrs;
    }
    ctx.set_outcomes(&counts);
    ctx.set("ace.classes", classes as f64);
    ctx.set("ace.injections", injections as f64);
    ctx.set("ace.pruned_frac", dead as f64 / total as f64);
    ctx.set("sim.golden_instrs", golden as f64);
}

pub fn store_bytes(results: &ResultStore) -> f64 {
    results
        .path()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64)
}
