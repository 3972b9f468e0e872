//! Job execution: the bridge from registry jobs to the harness drivers.
//!
//! Each kind maps onto the resumable entry point that matches its batch
//! bin — certify → [`certify_resumable`], triage →
//! [`run_triaged_campaign_resumable`], campaign → cell-by-cell
//! [`run_campaign_in`] with completed cells persisted in the registry.
//! Result artifacts render through the *same* shared renderers the batch
//! bins use ([`certified_json`], [`triage_json`],
//! [`FigureEight::to_json`]), which is what pins server output
//! byte-identical to batch output.

use crate::jobs::{JobKind, JobSpec, JobState, Progress};
use crate::server::ServerState;
use sor_core::Technique;
use sor_harness::{
    certified_json_model, certify_resumable, result_name, run_campaign_in,
    run_triaged_campaign_resumable, triage_json_model, CampaignConfig, CampaignResult,
    CertifyConfig, CertifyStatus, FigureEight, RunCtrl, TriageStatus,
};
use sor_regalloc::LowerConfig;
use sor_workloads::{all_workloads, AdpcmDec, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// How one execution attempt ended.
enum Outcome {
    /// Finished: artifact filename + rendered bytes.
    Done { name: String, bytes: String },
    /// Stopped at a section/cell boundary; the job is resumable.
    Paused,
}

/// Resolves a workload by name. `adpcmdec` honours the job's `samples` /
/// `wseed` parameters (mirroring the batch bins); the other nine kernels
/// run at their registry defaults.
fn resolve_workload(name: &str, samples: u64, wseed: u64) -> Result<Box<dyn Workload>, String> {
    if name == "adpcmdec" {
        return Ok(Box::new(AdpcmDec {
            samples,
            seed: wseed,
        }));
    }
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Runs one queued job to its next terminal-or-paused state, updating
/// and persisting the registry at every transition. Panics inside the
/// drivers are caught and recorded as a failed job — the server never
/// dies with a job.
pub fn run_job(state: &ServerState, id: u64) {
    let Some((spec, ctrl)) = ({
        let mut reg = state.registry.lock().unwrap();
        let job = reg.job_mut(id);
        let out = job.map(|job| {
            job.state = JobState::Running;
            job.error = None;
            (job.spec.clone(), Arc::clone(&job.ctrl))
        });
        reg.persist();
        out
    }) else {
        return;
    };

    let result = catch_unwind(AssertUnwindSafe(|| execute(state, id, &spec, &ctrl)));

    // Write the artifact before taking the registry lock.
    let written = match &result {
        Ok(Ok(Outcome::Done { name, bytes })) => {
            let path = {
                let reg = state.registry.lock().unwrap();
                reg.dir().join(name)
            };
            Some(std::fs::write(&path, bytes).map(|()| name.clone()))
        }
        _ => None,
    };

    let mut reg = state.registry.lock().unwrap();
    let Some(job) = reg.job_mut(id) else { return };
    match result {
        Ok(Ok(Outcome::Done { .. })) => match written {
            Some(Ok(name)) => {
                job.state = JobState::Done;
                job.artifact = Some(name);
            }
            Some(Err(e)) => {
                job.state = JobState::Failed;
                job.error = Some(format!("could not write artifact: {e}"));
            }
            None => unreachable!("Done outcome always attempts the write"),
        },
        Ok(Ok(Outcome::Paused)) => {
            job.state = JobState::Paused;
            // The one-shot pause trigger has fired; a resumed job runs
            // to completion (and a fresh ctrl stop state).
            job.spec.pause_after = None;
            job.ctrl.clear();
        }
        Ok(Err(message)) => {
            job.state = JobState::Failed;
            job.error = Some(message);
        }
        Err(_) => {
            job.state = JobState::Failed;
            job.error = Some("job panicked; see server stderr".to_string());
        }
    }
    reg.persist();
    state.results.flush();
}

fn execute(
    state: &ServerState,
    id: u64,
    spec: &JobSpec,
    ctrl: &RunCtrl,
) -> Result<Outcome, String> {
    match spec.kind {
        JobKind::Certify => exec_certify(state, id, spec, ctrl),
        JobKind::Triage => exec_triage(state, id, spec, ctrl),
        JobKind::Campaign => exec_campaign(state, id, spec, ctrl),
    }
}

/// Publishes a progress snapshot (persisted, so progress survives a
/// kill), fires the one-shot `pause_after` trigger, and applies the
/// `section_delay_ms` test hook.
fn report(state: &ServerState, id: u64, spec: &JobSpec, ctrl: &RunCtrl, progress: Progress) {
    if spec.pause_after.is_some_and(|n| progress.done >= n) {
        ctrl.request_stop();
    }
    {
        let mut reg = state.registry.lock().unwrap();
        if let Some(job) = reg.job_mut(id) {
            job.progress = progress;
        }
        reg.persist();
    }
    if spec.section_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(spec.section_delay_ms));
    }
}

fn exec_certify(
    state: &ServerState,
    id: u64,
    spec: &JobSpec,
    ctrl: &RunCtrl,
) -> Result<Outcome, String> {
    let workload = resolve_workload(&spec.workload, spec.samples, spec.wseed)?;
    let cfg = CertifyConfig {
        threads: spec.threads,
        lanes: spec.lanes,
        sections: spec.sections,
        fault_model: spec.fault_model,
        engine: spec.engine,
        ..CertifyConfig::default()
    };
    let artifact = state.artifacts.get(
        workload.as_ref(),
        spec.technique,
        &cfg.transform,
        &LowerConfig::default(),
    );
    let status = certify_resumable(
        Some(&state.results),
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        workload.name(),
        &spec.technique.to_string(),
        &cfg,
        Some(ctrl),
        &mut |p| {
            report(
                state,
                id,
                spec,
                ctrl,
                Progress {
                    done: p.sections_done as u64,
                    total: p.sections_total as u64,
                    hits: p.sections_hit as u64,
                    fresh_injections: p.fresh_injections,
                    counts: p.counts,
                },
            )
        },
    )
    // A model with no certification plan (mem-bit) is refused verbatim.
    .map_err(|e| e.to_string())?;
    match status {
        CertifyStatus::Done(inc) => Ok(Outcome::Done {
            name: result_name("certified", spec.fault_model, spec.technique),
            bytes: certified_json_model(&inc.coverage, spec.fault_model),
        }),
        CertifyStatus::Paused(_) => Ok(Outcome::Paused),
    }
}

fn exec_triage(
    state: &ServerState,
    id: u64,
    spec: &JobSpec,
    ctrl: &RunCtrl,
) -> Result<Outcome, String> {
    let workload = resolve_workload(&spec.workload, spec.samples, spec.wseed)?;
    let cfg = CampaignConfig {
        runs: spec.runs,
        seed: spec.seed,
        threads: spec.threads,
        lanes: spec.lanes,
        fault_model: spec.fault_model,
        engine: spec.engine,
        ..CampaignConfig::default()
    };
    let status = run_triaged_campaign_resumable(
        &state.artifacts,
        &state.results,
        workload.as_ref(),
        spec.technique,
        &cfg,
        spec.sections,
        Some(ctrl),
        &mut |p| {
            report(
                state,
                id,
                spec,
                ctrl,
                Progress {
                    done: p.sections_done as u64,
                    total: p.sections_total as u64,
                    hits: p.sections_hit as u64,
                    fresh_injections: p.fresh_injections,
                    counts: p.counts,
                },
            )
        },
    );
    match status {
        TriageStatus::Done(t) => {
            let artifact = state.artifacts.get(
                workload.as_ref(),
                spec.technique,
                &cfg.transform,
                &LowerConfig::default(),
            );
            Ok(Outcome::Done {
                name: result_name("triage", spec.fault_model, spec.technique),
                bytes: triage_json_model(&t, &artifact.program, spec.runs, spec.fault_model),
            })
        }
        TriageStatus::Paused(_) => Ok(Outcome::Paused),
    }
}

fn exec_campaign(
    state: &ServerState,
    id: u64,
    spec: &JobSpec,
    ctrl: &RunCtrl,
) -> Result<Outcome, String> {
    let suite: Vec<Box<dyn Workload>> = if spec.workloads.is_empty() {
        all_workloads()
    } else {
        spec.workloads
            .iter()
            .map(|n| resolve_workload(n, spec.samples, spec.wseed))
            .collect::<Result<_, _>>()?
    };
    let techniques = Technique::FIGURE8;
    let cfg = CampaignConfig {
        runs: spec.runs,
        seed: spec.seed,
        threads: spec.threads,
        lanes: spec.lanes,
        fault_model: spec.fault_model,
        engine: spec.engine,
        ..CampaignConfig::default()
    };
    let total = (suite.len() * techniques.len()) as u64;

    // Cells completed by earlier runs of this job are the campaign
    // kind's resume grain: workload-major order is deterministic, so a
    // persisted prefix is always consistent with the suite.
    let mut cells: Vec<CampaignResult> = {
        let reg = state.registry.lock().unwrap();
        reg.job(id).map(|j| j.cells.clone()).unwrap_or_default()
    };
    let restored = cells.len() as u64;

    while (cells.len() as u64) < total {
        if ctrl.stop_requested() {
            return Ok(Outcome::Paused);
        }
        let i = cells.len();
        let w = &suite[i / techniques.len()];
        let t = techniques[i % techniques.len()];
        let cell = run_campaign_in(&state.artifacts, w.as_ref(), t, &cfg);
        {
            let mut reg = state.registry.lock().unwrap();
            if let Some(job) = reg.job_mut(id) {
                job.cells.push(cell.clone());
            }
        }
        cells.push(cell);
        let mut counts = sor_harness::OutcomeCounts::default();
        for c in &cells {
            counts += c.counts;
        }
        report(
            state,
            id,
            spec,
            ctrl,
            Progress {
                done: cells.len() as u64,
                total,
                hits: restored,
                fresh_injections: (cells.len() as u64 - restored) * spec.runs,
                counts,
            },
        );
    }

    let fig = FigureEight {
        cells,
        workloads: suite.iter().map(|w| w.name().to_string()).collect(),
        techniques: techniques.to_vec(),
    };
    let name = if spec.fault_model.is_default() {
        "fig8.json".to_string()
    } else {
        format!("fig8_{}.json", spec.fault_model.slug())
    };
    Ok(Outcome::Done {
        name,
        bytes: fig.to_json_model(spec.fault_model),
    })
}
