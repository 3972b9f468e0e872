//! Layer-by-layer probes and the legacy-stepper oracle.
//!
//! The probes redo, one public call at a time and each call in its own
//! span, the work that `sor-harness` does inside one opaque call:
//! transform, lower, decode, jit compile, golden run, checkpoint
//! recording and single-threaded injection.

use crate::ctx::Ctx;
use crate::report::percentile;
use sor_core::{Pipeline, Technique, TransformConfig};
use sor_harness::{FaultModel, SampleCtx};
use sor_ir::Program;
use sor_regalloc::{lower, LowerConfig};
use sor_rng::SmallRng;
use sor_sim::{DecodedProg, ExecEngine, GenFault, JitProg, MachineConfig, Runner};
use sor_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Machine configuration at the benchmark's coordinates.
pub fn jit_config(checkpoint_interval: u64) -> MachineConfig {
    MachineConfig {
        checkpoint_interval,
        engine: ExecEngine::Jit,
        ..MachineConfig::default()
    }
}

/// Derives an independent stream seed from the run seed and a label.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes().chain(index.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    SmallRng::seed_from_u64(h).next_u64()
}

/// A kernel's input-data seed: 32 bits, so a server job can carry it as
/// an exact JSON number.
pub fn input_seed(seed: u64, kernel: &str) -> u64 {
    derive_seed(seed, kernel, 0) >> 32
}

/// Draws `n` faults from `model` for a program whose golden run is
/// `golden_len` instructions long.
pub fn draw(
    model: FaultModel,
    program: &Program,
    golden_len: u64,
    seed: u64,
    n: usize,
) -> Vec<GenFault> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ctx = SampleCtx::for_program(program, golden_len);
    (0..n).map(|_| model.sample(&mut rng, &ctx)).collect()
}

/// Runs `f` in a span and returns its result with its wall time in ms.
fn timed<T>(ctx: &mut Ctx, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> (T, f64) {
    ctx.tracer.span(name, cell, || {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    })
}

/// One cell's program, prepared one layer at a time.
pub struct Prepared {
    pub program: Program,
    pub decoded: Arc<DecodedProg>,
    pub jit: Option<Arc<JitProg>>,
}

/// Transform (`sor-core`), lower (`sor-regalloc`), decode and jit compile
/// (`sor-sim`), each timed on its own.
pub fn prepare(ctx: &mut Ctx, cell: u32, kernel: &dyn Workload, technique: Technique) -> Prepared {
    let source = kernel.build();
    let (out, ms) = timed(ctx, "core.transform", cell, || {
        Pipeline::for_technique(technique).run(&source, &TransformConfig::default())
    });
    let out = out.expect("the pipeline runs without verification and cannot fail");
    ctx.add("core.transform_ms", ms);
    ctx.add("core.ir_instrs", out.module.inst_count() as f64);
    let (program, ms) = timed(ctx, "regalloc.lower", cell, || {
        lower(&out.module, &LowerConfig::default())
    });
    let program = program.unwrap_or_else(|e| panic!("{}/{technique}: {e}", kernel.name()));
    ctx.add("regalloc.lower_ms", ms);
    ctx.add("regalloc.program_instrs", program.len() as f64);
    let (decoded, ms) = timed(ctx, "sim.decode", cell, || DecodedProg::new(&program));
    ctx.add("sim.decode_ms", ms);
    let (jit, ms) = timed(ctx, "sim.jit_compile", cell, || {
        JitProg::compile(&decoded, &program)
    });
    ctx.add("sim.jit_compile_ms", ms);
    ctx.add("sim.jit_native_cells", jit.is_ok() as u8 as f64);
    Prepared {
        program,
        decoded: Arc::new(decoded),
        jit: jit.ok().map(Arc::new),
    }
}

/// Times the golden run with checkpointing off, then with automatic
/// checkpointing (golden run plus a recording pass); the difference is
/// the checkpoint cost. Returns the checkpointed runner.
pub fn golden<'p>(
    ctx: &mut Ctx,
    cell: u32,
    program: &'p Program,
    decoded: &Arc<DecodedProg>,
    jit: &Option<Arc<JitProg>>,
) -> Runner<'p> {
    let (_, plain_ms) = timed(ctx, "sim.golden", cell, || {
        Runner::with_images(
            program,
            &jit_config(0),
            Some(Arc::clone(decoded)),
            jit.clone(),
        )
    });
    let (runner, ckpt_ms) = timed(ctx, "sim.golden_checkpointed", cell, || {
        Runner::with_images(
            program,
            &jit_config(MachineConfig::AUTO_CHECKPOINT),
            Some(Arc::clone(decoded)),
            jit.clone(),
        )
    });
    ctx.add("sim.golden_ms", plain_ms);
    ctx.add("sim.checkpoint_ms", ckpt_ms - plain_ms);
    ctx.add("sim.checkpoints", runner.checkpoints().len() as f64);
    ctx.add(
        "sim.checkpoint_pages",
        runner.checkpoints().total_pages() as f64,
    );
    runner
}

/// Runs `faults` one at a time on one thread, each in its own span:
/// `sim.inject` through the SEU path, `sim.gen_inject` through the
/// generalized one.
pub fn inject(ctx: &mut Ctx, cell: u32, runner: &Runner, faults: &[GenFault], seu: bool) {
    let mut replayer = runner.replayer();
    for &f in faults {
        if seu {
            let spec = f.as_spec().expect("seu-reg draws are register SEUs");
            ctx.tracer
                .span("sim.inject", cell, || replayer.run_fault(spec));
        } else {
            ctx.tracer
                .span("sim.gen_inject", cell, || replayer.run_fault_gen(f));
        }
    }
}

/// Times `SAMPLE_DRAWS` draws from `model` and returns ns per draw.
pub fn sample_ns(
    ctx: &mut Ctx,
    cell: u32,
    model: FaultModel,
    program: &Program,
    golden_len: u64,
    seed: u64,
) -> f64 {
    const SAMPLE_DRAWS: usize = 20_000;
    let sample_ctx = SampleCtx::for_program(program, golden_len);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (draws, ms) = timed(ctx, "models.sample", cell, || {
        (0..SAMPLE_DRAWS)
            .map(|_| model.sample(&mut rng, &sample_ctx))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(draws);
    ms * 1e6 / SAMPLE_DRAWS as f64
}

/// Sets the injection-latency percentiles from the recorded spans.
pub fn finish_inject(ctx: &mut Ctx) {
    for (span, p50, p99) in [
        ("sim.inject", "sim.inject_us.p50", "sim.inject_us.p99"),
        (
            "sim.gen_inject",
            "sim.gen_inject_us.p50",
            "sim.gen_inject_us.p99",
        ),
    ] {
        let us: Vec<f64> = ctx
            .tracer
            .durations_ms(span)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        ctx.set(p50, percentile(&us, 50.0));
        ctx.set(p99, percentile(&us, 99.0));
    }
}

/// The oracle: runs `faults` on the legacy stepper and on `runner` (the
/// jit engine), untimed, and fails the gate on every differing outcome.
pub fn oracle(
    ctx: &mut Ctx,
    label: &str,
    program: &Program,
    runner: &Runner,
    faults: &[GenFault],
    seu: bool,
) {
    let legacy = Runner::new(
        program,
        &MachineConfig {
            engine: ExecEngine::Legacy,
            ..MachineConfig::default()
        },
    );
    let (mut jit, mut oracle) = (runner.replayer(), legacy.replayer());
    for &f in faults {
        let (got, want) = match f.as_spec().filter(|_| seu) {
            Some(spec) => (jit.run_fault(spec).0, oracle.run_fault(spec).0),
            None => (jit.run_fault_gen(f).0, oracle.run_fault_gen(f).0),
        };
        ctx.gate.check(got == want, || {
            format!("{label}: fault {f} is {got} on jit but {want} on the legacy stepper")
        });
    }
}
