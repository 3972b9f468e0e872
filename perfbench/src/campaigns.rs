//! `fig8` and `models`: sampled fault-injection campaigns over a matrix
//! of (kernel, technique, fault model) cells, closed-loop batch work.

use crate::ctx::{measure, Ctx, Round};
use crate::probe::{self, derive_seed, jit_config};
use crate::report::median;
use sor_core::{Technique, TransformConfig};
use sor_harness::{
    run_campaign_in, ArtifactStore, CampaignConfig, CampaignResult, ExecEngine, FaultModel,
    OutcomeCounts,
};
use sor_regalloc::LowerConfig;
use sor_sim::{MachineConfig, Runner};
use sor_workloads::{
    AdpcmDec, AdpcmEnc, Art, Equake, Mcf, Mpeg2Dec, Mpeg2Enc, Parser, Twolf, Vortex, Workload,
};
use std::rc::Rc;
use std::time::Instant;

/// Injections per `fig8` cell. The paper's 250 made a round of the 80
/// cells last 2 to 3 s on one thread; at 100 a run fits twice the rounds,
/// so each cell's fastest time is taken over twice the samples.
pub const FIG8_RUNS: u64 = 100;
/// Injections per `models` cell.
pub const MODELS_RUNS: u64 = 250;
/// Set-ups before the first round; `setup_s` is the interquartile mean of
/// these and of one more after each timed round.
const SETUPS: usize = 3;
/// Injections per cell checked against the legacy stepper.
const ORACLE_FAULTS: usize = 4;
/// Injections per cell timed one by one in the traced run.
const PROBE_FAULTS: usize = 40;

/// One campaign: a kernel under a technique and a fault model.
pub struct Cell {
    pub kernel: Rc<dyn Workload>,
    pub technique: Technique,
    pub model: FaultModel,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.kernel.name(),
            self.technique,
            self.model.slug()
        )
    }
}

/// A kernel at its default size with input data drawn from `seed`.
fn kernel(name: &str, seed: u64) -> Rc<dyn Workload> {
    let seed = probe::input_seed(seed, name);
    match name {
        "art" => Rc::new(Art {
            seed,
            ..Art::default()
        }),
        "mcf" => Rc::new(Mcf {
            seed,
            ..Mcf::default()
        }),
        "equake" => Rc::new(Equake {
            seed,
            ..Equake::default()
        }),
        "parser" => Rc::new(Parser {
            seed,
            ..Parser::default()
        }),
        "vortex" => Rc::new(Vortex {
            seed,
            ..Vortex::default()
        }),
        "twolf" => Rc::new(Twolf {
            seed,
            ..Twolf::default()
        }),
        "adpcmdec" => Rc::new(AdpcmDec {
            seed,
            ..AdpcmDec::default()
        }),
        "adpcmenc" => Rc::new(AdpcmEnc {
            seed,
            ..AdpcmEnc::default()
        }),
        "mpeg2dec" => Rc::new(Mpeg2Dec {
            seed,
            ..Mpeg2Dec::default()
        }),
        "mpeg2enc" => Rc::new(Mpeg2Enc {
            seed,
            ..Mpeg2Enc::default()
        }),
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// The Figure 8 matrix: ten kernels x the eight Figure 8 techniques,
/// register SEUs.
pub fn fig8_cells(seed: u64) -> Vec<Cell> {
    let names = [
        "art", "mcf", "equake", "parser", "vortex", "twolf", "adpcmdec", "adpcmenc", "mpeg2dec",
        "mpeg2enc",
    ];
    names
        .iter()
        .flat_map(|&n| {
            let k = kernel(n, seed);
            Technique::FIGURE8.map(|technique| Cell {
                kernel: Rc::clone(&k),
                technique,
                model: FaultModel::SeuReg,
            })
        })
        .collect()
}

/// The four generalized fault models on four kernels x three techniques.
pub fn models_cells(seed: u64) -> Vec<Cell> {
    let models = [
        FaultModel::PcCorrupt,
        FaultModel::MemBit,
        FaultModel::MultiBitUpset,
        FaultModel::TransientAlu,
    ];
    let techniques = [Technique::Noft, Technique::SwiftR, Technique::Cfcss];
    let mut cells = Vec::new();
    for n in ["adpcmdec", "mcf", "parser", "mpeg2dec"] {
        let k = kernel(n, seed);
        for technique in techniques {
            for model in models {
                cells.push(Cell {
                    kernel: Rc::clone(&k),
                    technique,
                    model,
                });
            }
        }
    }
    cells
}

fn campaign_config(ctx: &Ctx, cell: &Cell, runs: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed: derive_seed(ctx.seed, "campaign", 0),
        threads,
        engine: ExecEngine::Jit,
        lanes: 1,
        fault_model: cell.model,
        ..CampaignConfig::default()
    }
}

fn artifact(store: &ArtifactStore, cell: &Cell) -> std::sync::Arc<sor_harness::Artifact> {
    store.get(
        cell.kernel.as_ref(),
        cell.technique,
        &TransformConfig::default(),
        &LowerConfig::default(),
    )
}

/// One pass over every cell; checks each result against the warm-up's.
fn round(
    ctx: &mut Ctx,
    store: &ArtifactStore,
    cells: &[Cell],
    runs: u64,
    threads: usize,
    reference: &[CampaignResult],
) -> Round {
    let mut r = Round::default();
    for (i, (cell, want)) in cells.iter().zip(reference).enumerate() {
        let cfg = campaign_config(ctx, cell, runs, threads);
        let t = Instant::now();
        let got = ctx.tracer.span("harness.campaign", i as u32, || {
            run_campaign_in(store, cell.kernel.as_ref(), cell.technique, &cfg)
        });
        r.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.gate.check(
            got.counts == want.counts && got.golden_instrs == want.golden_instrs,
            || format!("{}: campaign result changed between rounds", cell.label()),
        );
    }
    r.injections = (runs * cells.len() as u64) as f64;
    r.sites = r.injections;
    r
}

pub fn run(ctx: &mut Ctx, cells: Vec<Cell>, runs: u64) {
    // Set-up, repeated here and again after every timed round, so that its
    // samples see the host over the whole run as the rounds do.
    // The kept store comes last, so only one is alive at a time before the
    // memory high-water mark is read.
    let mut setup_s: Vec<f64> = (1..SETUPS).map(|_| set_up(&cells).1).collect();
    let (mut store, secs) = set_up(&cells);
    setup_s.push(secs);

    // Correctness gate: golden output against the kernel's native
    // reference, sampled injections against the legacy stepper.
    for (i, cell) in cells.iter().enumerate() {
        let a = artifact(&store, cell);
        let jit = a.jit_for(ExecEngine::Jit);
        ctx.note_native(jit.is_some());
        let runner = Runner::with_images(
            &a.program,
            &jit_config(MachineConfig::AUTO_CHECKPOINT),
            Some(std::sync::Arc::clone(&a.decoded)),
            jit,
        );
        ctx.gate.check(
            runner.golden().output == cell.kernel.reference_output(),
            || format!("{}: golden output differs from the reference", cell.label()),
        );
        let seed = derive_seed(ctx.seed, "oracle", i as u64);
        let faults = probe::draw(
            cell.model,
            &a.program,
            runner.golden().dyn_instrs,
            seed,
            ORACLE_FAULTS,
        );
        probe::oracle(
            ctx,
            &cell.label(),
            &a.program,
            &runner,
            &faults,
            cell.model.is_default(),
        );
    }

    if ctx.trace {
        probe_layers(ctx, &cells);
    }

    // Warm-up round: its results are the reference every timed round must
    // reproduce exactly, and its counts are the run's exact counts.
    let (hits, misses) = (store.hits(), store.misses());
    let reference: Vec<CampaignResult> = cells
        .iter()
        .map(|cell| {
            let cfg = campaign_config(ctx, cell, runs, ctx.threads);
            run_campaign_in(&store, cell.kernel.as_ref(), cell.technique, &cfg)
        })
        .collect();
    ctx.set("harness.artifact_hits", (store.hits() - hits) as f64);
    ctx.set("harness.artifact_misses", (store.misses() - misses) as f64);
    let mut total = OutcomeCounts::default();
    for r in &reference {
        total += r.counts;
    }
    ctx.set_outcomes(&total);
    ctx.set(
        "sim.golden_instrs",
        reference.iter().map(|r| r.golden_instrs as f64).sum(),
    );

    measure(ctx, |ctx, threads| {
        let r = round(ctx, &store, &cells, runs, threads, &reference);
        // The next round runs on the artifacts this set-up prepares, made
        // while the current ones are still alive so that they land
        // elsewhere in memory: a job's fastest time is then taken over
        // several memory layouts, not the one a process happened to get.
        let (next, secs) = set_up(&cells);
        setup_s.push(secs);
        store = next;
        r
    });
    ctx.set_setup(&setup_s);
}

/// One set-up: every cell's artifact prepared and its native image
/// compiled, into a fresh store. Returns the store and the seconds taken.
fn set_up(cells: &[Cell]) -> (ArtifactStore, f64) {
    let t = Instant::now();
    let store = ArtifactStore::new();
    for cell in cells {
        artifact(&store, cell).jit_for(ExecEngine::Jit);
    }
    (store, t.elapsed().as_secs_f64())
}

/// Times each layer of every cell from outside (traced run only).
fn probe_layers(ctx: &mut Ctx, cells: &[Cell]) {
    let mut sampled = Vec::new();
    let mut sample_ns = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let id = i as u32;
        let span = ctx.tracer.enter("bench.cell", id);
        let p = probe::prepare(ctx, id, cell.kernel.as_ref(), cell.technique);
        let runner = probe::golden(ctx, id, &p.program, &p.decoded, &p.jit);
        let golden_len = runner.golden().dyn_instrs;
        let seed = derive_seed(ctx.seed, "probe", i as u64);
        let faults = probe::draw(cell.model, &p.program, golden_len, seed, PROBE_FAULTS);
        probe::inject(ctx, id, &runner, &faults, cell.model.is_default());
        if !cell.model.is_default() && !sampled.contains(&cell.model) {
            sampled.push(cell.model);
            sample_ns.push(probe::sample_ns(
                ctx, id, cell.model, &p.program, golden_len, seed,
            ));
        }
        ctx.tracer.exit(span);
    }
    probe::finish_inject(ctx);
    ctx.set("models.sample_ns", median(&sample_ns));
}
