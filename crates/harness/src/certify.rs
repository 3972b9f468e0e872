//! Exhaustive certified campaigns (the `sor-ace` execution driver).
//!
//! A certified campaign classifies *every* fault site of one fault
//! model's space — for the default `seu-reg`, the cube `golden_len x
//! injectable registers x 64 bits` — with no sampling and no confidence
//! interval. The `sor-ace` [`GenCertPlan`] prunes sites that are provably
//! unACE and collapses the rest into equivalence classes; only each
//! class's masks are executed, at its representative slot, riding the
//! same checkpoint-and-replay machines and work-stealing worker pool as
//! the sampled campaigns. The assembled [`CertifiedCoverage`] is
//! bit-for-bit what brute-force injection of every single site would
//! report (outcome histogram, per-site and per-role attribution) — the
//! oracle tests below pin exactly that.
//!
//! Every entry point runs one core, [`certify_resumable`]: golden run →
//! def-use trace → plan → sections → execute (or serve from a
//! [`ResultStore`]) each section's classes → assemble. The monolithic
//! entry points run it without a store, as one section; the incremental
//! and resumable ones run it against a store, [`CertifyConfig::sections`]
//! sections at a time.

use crate::artifact::ArtifactStore;
use crate::ctrl::RunCtrl;
use crate::pool;
use crate::store::ResultStore;
use sor_ace::{
    CertSections, CertifiedCoverage, ClassOutcome, DefUseTrace, GenCertPlan, ModelPlanError,
    SectionOutcomes,
};
use sor_core::Technique;
use sor_ir::Program;
use sor_models::FaultModel;
use sor_regalloc::LowerConfig;
use sor_sim::{DecodedProg, ExecEngine, GenFault, JitProg, MachineConfig, Runner};
use sor_stats::OutcomeCounts;
use sor_workloads::Workload;
use std::sync::Arc;

/// Certified-campaign parameters.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Golden-run checkpoint interval (see
    /// [`MachineConfig::checkpoint_interval`]).
    pub checkpoint_interval: u64,
    /// SPMD lane width for batched injection (see
    /// [`sor_sim::LaneReplayer`]): each `seu-reg` read-window class is 64
    /// same-slot faults, which lane groups of width 2/4/8/16 tile
    /// exactly. `1` (the default) runs scalar; results are bit-identical
    /// either way. Lane packs run the decoded lane interpreter, also
    /// under [`ExecEngine::Jit`]; the legacy engine and every model but
    /// `seu-reg` run scalar whatever the width.
    pub lanes: usize,
    /// Transform configuration.
    pub transform: sor_core::TransformConfig,
    /// Contiguous dynamic-slot sections the incremental path
    /// ([`certify_incremental`]) splits the plan into — the granularity of
    /// [`ResultStore`] reuse. Irrelevant to the monolithic entry points,
    /// and results are bit-identical for every value (the incremental
    /// tests pin this); more sections = finer partial reuse, slightly
    /// more store records.
    pub sections: usize,
    /// Fault model to certify (see [`FaultModel`]), default
    /// [`FaultModel::SeuReg`]. Every certifiable model runs the same
    /// path: its [`GenCertPlan`], sectioned and store-backed, each
    /// section keyed by the model's digest so models never share stored
    /// results. [`FaultModel::MemBit`] is not certifiable (no per-address
    /// liveness argument): [`certify_resumable`] and
    /// [`certify_program_with`] return [`ModelPlanError::NotCertifiable`],
    /// and the other entry points panic with its message. Use a sampled
    /// campaign for it.
    pub fault_model: FaultModel,
    /// Execution engine for the golden run and every injection (see
    /// [`ExecEngine`]). All three engines are bit-identical by contract —
    /// the differential tests pin it — so this is a throughput knob, not a
    /// semantic one; [`ExecEngine::Jit`] degrades to the decoded
    /// interpreter where native compilation is unavailable.
    pub engine: ExecEngine,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            threads: 0,
            checkpoint_interval: MachineConfig::AUTO_CHECKPOINT,
            lanes: 1,
            transform: sor_core::TransformConfig::default(),
            sections: 8,
            fault_model: FaultModel::SeuReg,
            engine: ExecEngine::default(),
        }
    }
}

/// Transforms and lowers `workload` under `technique`, then certifies its
/// entire fault space exactly.
///
/// # Panics
///
/// Panics with [`ModelPlanError`]'s message for a model that is not
/// certifiable.
pub fn run_certified_campaign(
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CertifyConfig,
) -> CertifiedCoverage {
    run_certified_campaign_in(&ArtifactStore::new(), workload, technique, cfg)
}

/// [`run_certified_campaign`] with program preparation served from a
/// shared [`ArtifactStore`].
pub fn run_certified_campaign_in(
    store: &ArtifactStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CertifyConfig,
) -> CertifiedCoverage {
    let artifact = store.get(workload, technique, &cfg.transform, &LowerConfig::default());
    certify_program_with(
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        workload.name(),
        &technique.to_string(),
        cfg,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Certifies one lowered program's full `seu-reg` fault space on the
/// default engine: see [`certify_program_with`].
pub fn certify_program(
    program: &Program,
    workload: &str,
    technique: &str,
    threads: usize,
    checkpoint_interval: u64,
) -> CertifiedCoverage {
    let cfg = CertifyConfig {
        threads,
        checkpoint_interval,
        ..CertifyConfig::default()
    };
    certify_program_with(program, None, None, workload, technique, &cfg)
        .expect("seu-reg is certifiable")
}

/// Certifies one lowered program's full fault space under
/// `cfg.fault_model`: records the def-use trace, builds the model's
/// [`GenCertPlan`], executes every class across a work-stealing worker
/// pool, and assembles the exact coverage report. `decoded` and `jit`
/// reuse already-prepared images (memoized per lowered program by the
/// artifact store) instead of translating again.
///
/// Results are independent of threads, lanes and engine: workers fill a
/// per-class result slot, and assembly walks classes in plan order.
/// `Err(ModelPlanError::NotCertifiable)` for models with no sound plan
/// ([`FaultModel::MemBit`]).
pub fn certify_program_with(
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
) -> Result<CertifiedCoverage, ModelPlanError> {
    let status = certify_resumable(
        None,
        program,
        decoded,
        jit,
        workload,
        technique,
        cfg,
        None,
        &mut |_| {},
    )?;
    match status {
        CertifyStatus::Done(inc) => Ok(inc.coverage),
        CertifyStatus::Paused(_) => unreachable!("no control, so the driver never pauses"),
    }
}

/// An incrementally assembled certification: the exact coverage report
/// plus how much of it came from the [`ResultStore`].
#[derive(Debug, Clone)]
pub struct IncrementalCertification {
    /// The assembled report — bit-identical to what the monolithic
    /// [`certify_program_with`] returns for the same program.
    pub coverage: CertifiedCoverage,
    /// Sections the plan was split into.
    pub sections_total: usize,
    /// Sections served from the store without executing anything.
    pub sections_hit: usize,
    /// Injections actually executed by *this* run (0 on a fully warm
    /// store; `coverage.injections_executed` counts the whole plan).
    pub fresh_injections: u64,
}

/// [`run_certified_campaign_in`] through the incremental path: program
/// preparation served from `artifacts`, executed section results served
/// from (and inserted into) `results`.
///
/// # Panics
///
/// Panics with [`ModelPlanError`]'s message for a model that is not
/// certifiable.
pub fn run_certified_campaign_stored(
    artifacts: &ArtifactStore,
    results: &ResultStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CertifyConfig,
) -> IncrementalCertification {
    let artifact = artifacts.get(workload, technique, &cfg.transform, &LowerConfig::default());
    certify_incremental(
        results,
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        workload.name(),
        &technique.to_string(),
        cfg,
    )
}

/// Certifies a program's full fault space, reusing previously executed
/// sections from `results` and executing only the rest.
///
/// The golden run, def-use trace and plan are always recomputed fresh —
/// they are cheap (one fault-free pass) and they are what the cached
/// results are validated *against*: the plan is partitioned into
/// [`CertSections`] whose keys digest the program, each section's def-use
/// slice and the fault model, and only a section whose key matches a
/// stored entry (and whose stored classes pass
/// [`sor_ace::CertSection::matches`] against the fresh plan) skips
/// execution. The assembled [`CertifiedCoverage`] is bit-identical to the
/// monolithic [`certify_program_with`] whatever mix of cached and fresh
/// sections it was composed from — labels (`workload`, `technique`) are
/// applied at assembly and never cached, so renames cannot poison the
/// store.
///
/// # Panics
///
/// Panics with [`ModelPlanError`]'s message for a model that is not
/// certifiable; [`certify_resumable`] returns it instead.
pub fn certify_incremental(
    results: &ResultStore,
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
) -> IncrementalCertification {
    let status = certify_resumable(
        Some(results),
        program,
        decoded,
        jit,
        workload,
        technique,
        cfg,
        None,
        &mut |_| {},
    );
    match status {
        Ok(CertifyStatus::Done(inc)) => inc,
        Ok(CertifyStatus::Paused(_)) => unreachable!("no control, so the driver never pauses"),
        Err(e) => panic!("{e}"),
    }
}

/// A snapshot of a resumable certification's position, emitted after
/// every resolved section (and carried by [`CertifyStatus::Paused`]).
///
/// `counts` aggregates the outcome histograms of every section resolved
/// so far — cached and fresh — so a client watching a campaign sees the
/// classified fraction (and its Wilson interval, via
/// [`OutcomeCounts::sdc_ci95`]) converge section by section toward the
/// exact final report.
#[derive(Debug, Clone, Default)]
pub struct CertifyProgress {
    /// Sections resolved so far (cached hits + freshly executed).
    pub sections_done: usize,
    /// Sections the plan was split into.
    pub sections_total: usize,
    /// Sections served from the store without executing anything.
    pub sections_hit: usize,
    /// Injections executed by this run so far.
    pub fresh_injections: u64,
    /// Injections represented by the resolved sections (executed now or
    /// by whichever earlier run populated the store).
    pub injections_resolved: u64,
    /// Outcome histogram aggregated over every resolved section.
    pub counts: OutcomeCounts,
}

/// What a resumable certification run ended as.
#[derive(Debug, Clone)]
pub enum CertifyStatus {
    /// Every section resolved; the assembled report is exact and
    /// bit-identical to the monolithic path.
    Done(IncrementalCertification),
    /// A stop was requested: completed sections are persisted in the
    /// store, and re-invoking with the same arguments resumes from here.
    Paused(CertifyProgress),
}

/// [`certify_incremental`], pausable at section boundaries: the one
/// certification core every entry point runs.
///
/// With a store, the plan splits into [`CertifyConfig::sections`]
/// sections. Each is probed in `results`: a cached entry must pass
/// [`sor_ace::CertSection::matches`] against the fresh plan, or it is
/// discarded as a collision, drift or forgery casualty and recomputed.
/// Missing sections execute one at a time, each persisted the moment it
/// completes, with `on_progress` fired after every resolved section. When
/// `ctrl` requests a stop the driver returns [`CertifyStatus::Paused`]
/// before starting the next section — nothing in flight is lost, and
/// calling again with the same store picks up exactly where it left off
/// (the finished sections come back as hits).
///
/// With `results = None` (the monolithic path) the whole plan is one
/// unstored section, executed as one pool run so work stealing balances
/// across every class — windows ending late in the run replay long
/// suffixes, so classes, like sampled faults, have wildly variable costs.
///
/// The composed report is bit-identical whatever the store held and
/// however many pause/resume cycles it took.
/// `Err(ModelPlanError::NotCertifiable)` for models with no sound plan,
/// before any injection runs.
#[allow(clippy::too_many_arguments)]
pub fn certify_resumable(
    results: Option<&ResultStore>,
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
    ctrl: Option<&RunCtrl>,
    on_progress: &mut dyn FnMut(&CertifyProgress),
) -> Result<CertifyStatus, ModelPlanError> {
    let runner = pool::build_runner(program, decoded, jit, cfg.checkpoint_interval, cfg.engine);
    let trace = DefUseTrace::record(&runner);
    let plan = GenCertPlan::build(cfg.fault_model, program, &trace)?;
    let golden_recoveries =
        runner.golden().probes.vote_repairs + runner.golden().probes.trump_recovers;
    let nsections = if results.is_some() { cfg.sections } else { 1 };
    let sections = CertSections::partition(program, &trace, &plan, nsections);

    let mut per_section: Vec<Option<Arc<SectionOutcomes>>> = sections
        .sections
        .iter()
        .map(|sec| results?.get_cert(&sec.key, |cached| sec.matches(&plan, cached)))
        .collect();

    let mut progress = CertifyProgress {
        sections_total: sections.sections.len(),
        ..CertifyProgress::default()
    };
    for (sec, resolved) in sections.sections.iter().zip(&per_section) {
        if let Some(resolved) = resolved {
            progress.sections_done += 1;
            progress.sections_hit += 1;
            absorb_section(&mut progress, &plan, &sec.classes, resolved);
        }
    }
    on_progress(&progress);

    for (sec, slot) in sections.sections.iter().zip(per_section.iter_mut()) {
        if slot.is_some() {
            continue;
        }
        if ctrl.is_some_and(|c| c.stop_requested()) {
            return Ok(CertifyStatus::Paused(progress));
        }
        let fresh = execute_classes(&runner, &plan, &sec.classes, cfg);
        let stored = match results {
            Some(rs) => rs.put_cert(sec.key, fresh),
            None => Arc::new(fresh),
        };
        progress.sections_done += 1;
        progress.fresh_injections += absorb_section(&mut progress, &plan, &sec.classes, &stored);
        *slot = Some(stored);
        on_progress(&progress);
    }

    let resolved: Vec<Arc<SectionOutcomes>> = per_section
        .into_iter()
        .map(|s| s.expect("every section cached or freshly executed"))
        .collect();
    let class_results = sections
        .scatter(&plan, &resolved)
        .expect("validated sections always scatter");
    let coverage = plan.assemble(
        workload,
        technique,
        program,
        &trace,
        &class_results,
        golden_recoveries,
    );
    Ok(CertifyStatus::Done(IncrementalCertification {
        coverage,
        sections_total: sections.sections.len(),
        sections_hit: progress.sections_hit,
        fresh_injections: progress.fresh_injections,
    }))
}

/// Executes the plan classes `idxs` as one work-stealing pool run and
/// returns their tagged histograms, in `idxs` order.
///
/// The classes flatten into one fault list with an owner map from fault
/// to class, so classes of any mask count share the pool — scalar, or
/// in lane groups when every fault is a register SEU. Folding by owner
/// keeps per-class slots exact, so results are identical for any thread
/// count or lane width.
fn execute_classes(
    runner: &Runner<'_>,
    plan: &GenCertPlan,
    idxs: &[usize],
    cfg: &CertifyConfig,
) -> SectionOutcomes {
    let mut faults: Vec<GenFault> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for (k, &idx) in idxs.iter().enumerate() {
        faults.extend(plan.faults(&plan.classes[idx]));
        owner.resize(faults.len(), k);
    }
    let mut counts: Vec<OutcomeCounts> = pool::inject_faults(
        runner,
        &faults,
        cfg.threads,
        cfg.lanes,
        |acc: &mut Vec<OutcomeCounts>, i, rec, res| {
            let k = owner[i];
            if acc.len() <= k {
                acc.resize(k + 1, OutcomeCounts::default());
            }
            acc[k].record(
                rec.outcome,
                res.probes.vote_repairs + res.probes.trump_recovers,
            );
        },
    );
    counts.resize(idxs.len(), OutcomeCounts::default());
    let classes = idxs
        .iter()
        .zip(counts)
        .map(|(&idx, counts)| ClassOutcome {
            reg: plan.classes[idx].reg,
            rep: plan.classes[idx].hi,
            counts,
        })
        .collect();
    SectionOutcomes { classes }
}

/// Folds one resolved section's class histograms into a progress
/// snapshot; returns the injections the section represents.
fn absorb_section(
    progress: &mut CertifyProgress,
    plan: &GenCertPlan,
    idxs: &[usize],
    section: &SectionOutcomes,
) -> u64 {
    let mut injections = 0;
    for (&idx, class) in idxs.iter().zip(&section.classes) {
        progress.counts += class.counts;
        injections += u64::from(plan.classes[idx].masks);
    }
    progress.injections_resolved += injections;
    injections
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, ProtectionRole, Width};
    use sor_regalloc::lower;
    use sor_sim::{Runner, INJECTABLE_REGS};
    use std::collections::BTreeMap;

    /// Micro workload 1: a pure arithmetic chain — registers carry live
    /// values across several instructions.
    fn chain_program(technique: Technique) -> Program {
        let mut mb = ModuleBuilder::new("chain");
        let mut f = mb.function("main");
        let a = f.movi(11);
        let b = f.mul(Width::W64, a, 3i64);
        let c = f.add(Width::W64, b, a);
        let d = f.xor(Width::W64, c, 0x5Ai64);
        f.emit(Operand::reg(d));
        f.ret(&[]);
        let id = f.finish();
        lower(&technique.apply(&mb.finish(id)), &LowerConfig::default()).unwrap()
    }

    /// Micro workload 2: memory traffic and control flow — a global
    /// round-trip plus a select, so faults can turn into SEGVs.
    fn mem_program(technique: Technique) -> Program {
        let mut mb = ModuleBuilder::new("memsel");
        let g = mb.alloc_global_u64s("g", &[9, 0]);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let x = f.load(MemWidth::B8, base, 0);
        let y = f.add(Width::W64, x, 5i64);
        f.store(MemWidth::B8, base, 8, y);
        let back = f.load(MemWidth::B8, base, 8);
        let cond = f.cmp(sor_ir::CmpOp::LtS, Width::W64, back, 100i64);
        let z = f.select(cond, back, x);
        f.emit(Operand::reg(z));
        f.ret(&[]);
        let id = f.finish();
        lower(&technique.apply(&mb.finish(id)), &LowerConfig::default()).unwrap()
    }

    /// Injects every single (slot, register, bit) site, from scratch,
    /// aggregating exactly what `CertifiedCoverage` reports.
    fn brute_force(
        program: &Program,
    ) -> (
        OutcomeCounts,
        BTreeMap<usize, OutcomeCounts>,
        BTreeMap<ProtectionRole, OutcomeCounts>,
        u64,
    ) {
        let runner = Runner::new(program, &MachineConfig::default());
        let golden_len = runner.golden().dyn_instrs;
        let mut replayer = runner.replayer();
        let mut counts = OutcomeCounts::default();
        let mut sites: BTreeMap<usize, OutcomeCounts> = BTreeMap::new();
        let mut roles: BTreeMap<ProtectionRole, OutcomeCounts> = BTreeMap::new();
        for at in 0..golden_len {
            for &reg in &INJECTABLE_REGS {
                for bit in 0..64 {
                    let (rec, res) =
                        replayer.run_fault_record(sor_sim::FaultSpec::new(at, reg, bit).into());
                    let recov = res.probes.vote_repairs + res.probes.trump_recovers;
                    counts.record(rec.outcome, recov);
                    let pc = rec.static_inst.expect("in-range faults always fire");
                    sites.entry(pc).or_default().record(rec.outcome, recov);
                    roles
                        .entry(rec.role)
                        .or_default()
                        .record(rec.outcome, recov);
                }
            }
        }
        (counts, sites, roles, golden_len)
    }

    /// The acceptance-criteria oracle: on two workloads x three
    /// techniques, the pruned + class-collapsed certification equals
    /// brute-force all-sites injection bit-for-bit — the whole outcome
    /// histogram (recoveries included), the per-site map and the per-role
    /// map — while executing >= 5x fewer injections.
    #[test]
    fn certification_equals_brute_force_bit_for_bit() {
        for technique in [Technique::SwiftR, Technique::Trump, Technique::Swift] {
            for (name, program) in [
                ("chain", chain_program(technique)),
                ("memsel", mem_program(technique)),
            ] {
                let certified = certify_program(&program, name, &technique.to_string(), 2, 3);
                let (counts, sites, roles, golden_len) = brute_force(&program);
                let label = format!("{name}/{technique}");
                assert_eq!(certified.golden_instrs, golden_len, "{label}");
                assert_eq!(
                    certified.total_sites,
                    golden_len * INJECTABLE_REGS.len() as u64 * 64,
                    "{label}"
                );
                assert_eq!(certified.counts, counts, "{label}: histogram diverged");
                assert_eq!(certified.sites, sites, "{label}: per-site map diverged");
                assert_eq!(certified.roles, roles, "{label}: per-role map diverged");
                assert!(
                    certified.injections_executed * 5 <= certified.total_sites,
                    "{label}: only {}x pruning",
                    certified.pruning_factor()
                );
            }
        }
    }

    /// Certified reports are a pure function of the program: thread count
    /// and checkpoint interval must not change a single field.
    #[test]
    fn certification_is_execution_strategy_independent() {
        let program = mem_program(Technique::SwiftR);
        let reference = certify_program(&program, "memsel", "SWIFT-R", 1, 0);
        for (threads, interval) in [(4, 0), (1, 5), (3, MachineConfig::AUTO_CHECKPOINT)] {
            let r = certify_program(&program, "memsel", "SWIFT-R", threads, interval);
            assert_eq!(r, reference, "{threads} threads / interval {interval}");
        }
    }

    /// Model-aware certification through the driver equals brute-force
    /// injection of the model's whole fault space, bit for bit — PC
    /// corruption on a register-recovery technique and on the
    /// control-flow checker it was built to exercise.
    #[test]
    fn pc_corruption_certification_equals_brute_force() {
        for technique in [Technique::SwiftR, Technique::Cfcss] {
            let program = mem_program(technique);
            let cfg = CertifyConfig {
                threads: 2,
                checkpoint_interval: 3,
                fault_model: FaultModel::PcCorrupt,
                ..CertifyConfig::default()
            };
            let certified =
                certify_program_with(&program, None, None, "memsel", &technique.to_string(), &cfg)
                    .unwrap();
            let runner = Runner::new(&program, &MachineConfig::default());
            let golden_len = runner.golden().dyn_instrs;
            let pc_bits = sor_models::SampleCtx::for_program(&program, golden_len).pc_bits();
            let mut replayer = runner.replayer();
            let mut counts = OutcomeCounts::default();
            for at in 0..golden_len {
                for bit in 0..pc_bits {
                    let (o, res) = replayer.run_fault_gen(GenFault::new(
                        at,
                        sor_sim::FaultEffect::PcXor { mask: 1u64 << bit },
                    ));
                    counts.record(o, res.probes.vote_repairs + res.probes.trump_recovers);
                }
            }
            let label = format!("memsel/{technique}");
            assert_eq!(
                certified.total_sites,
                golden_len * pc_bits as u64,
                "{label}"
            );
            assert_eq!(certified.counts, counts, "{label}: histogram diverged");
        }
    }

    /// The acceptance-criteria coordinate: `certify --fault-model
    /// pc-corrupt` on adpcmdec under SWIFT-R and CFCSS produces an exact,
    /// thread-count-independent certified report, and CFCSS converts PC
    /// upsets into detections.
    #[test]
    fn adpcmdec_pc_corruption_certifies_exactly() {
        let w = sor_workloads::AdpcmDec {
            samples: 4,
            seed: 1,
        };
        let store = ArtifactStore::new();
        for technique in [Technique::SwiftR, Technique::Cfcss] {
            let cfg = CertifyConfig {
                threads: 2,
                fault_model: FaultModel::PcCorrupt,
                ..CertifyConfig::default()
            };
            let r = run_certified_campaign_in(&store, &w, technique, &cfg);
            assert_eq!(r.workload, "adpcmdec");
            assert_eq!(r.counts.total(), r.total_sites, "{technique}");
            assert_eq!(r.dead_sites + r.live_sites, r.total_sites, "{technique}");
            let single = run_certified_campaign_in(
                &store,
                &w,
                technique,
                &CertifyConfig { threads: 1, ..cfg },
            );
            assert_eq!(r, single, "{technique}: thread count changed the report");
            if technique == Technique::Cfcss {
                assert!(r.counts.detected > 0, "CFCSS must detect wild jumps");
            }
        }
    }

    /// MemBit has no sound per-address liveness argument, so certification
    /// refuses it with actionable guidance instead of guessing.
    #[test]
    fn mem_bit_certification_is_rejected_with_guidance() {
        let program = chain_program(Technique::SwiftR);
        let cfg = CertifyConfig {
            threads: 1,
            fault_model: FaultModel::MemBit,
            ..CertifyConfig::default()
        };
        let err = certify_program_with(&program, None, None, "chain", "SWIFT-R", &cfg).unwrap_err();
        assert!(err.to_string().contains("sampled campaign"), "{err}");
    }

    /// End-to-end workload entry point: totals tile the cube, the store
    /// serves the artifact, and protection roles appear in the
    /// attribution.
    #[test]
    fn certified_campaign_runs_on_a_workload() {
        let w = sor_workloads::AdpcmDec {
            samples: 4,
            seed: 1,
        };
        let store = ArtifactStore::new();
        let cfg = CertifyConfig {
            threads: 2,
            ..CertifyConfig::default()
        };
        let r = run_certified_campaign_in(&store, &w, Technique::SwiftR, &cfg);
        assert_eq!(r.workload, "adpcmdec");
        assert_eq!(r.technique, "SWIFT-R");
        assert_eq!(r.counts.total(), r.total_sites);
        assert_eq!(r.dead_sites + r.live_sites, r.total_sites);
        assert_eq!(r.injections_executed, r.classes * 64);
        assert!(r.pruning_factor() >= 5.0, "only {}x", r.pruning_factor());
        let role_total: u64 = r.roles.values().map(|c| c.total()).sum();
        assert_eq!(role_total, r.total_sites);
        assert!(
            r.roles
                .keys()
                .any(|role| matches!(role, ProtectionRole::Redundant { .. })),
            "SWIFT-R sites must attribute to redundant copies"
        );
    }
}
