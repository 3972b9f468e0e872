//! # sor-harness — fault campaigns and figure regeneration
//!
//! Reproduces the paper's evaluation methodology (§7):
//!
//! * [`run_campaign`] — for one (workload, technique) pair: transform,
//!   lower, run the golden execution, then inject `runs` SEUs at uniformly
//!   random (dynamic instruction, integer register, bit) points and classify
//!   each run as unACE / SDC / SEGV (plus hang and detected, folded per the
//!   paper's three-bucket taxonomy). Runs are spread across threads.
//! * [`FigureEight`] — the full reliability matrix of Figure 8: six
//!   techniques x ten benchmarks plus the Average column.
//! * [`FigureNine`] — normalized execution time (timing model cycles,
//!   normalized to NOFT) per benchmark plus the GeoMean, Figure 9.
//! * [`headline`] — the paper's summary numbers (§1/§9): average unACE per
//!   technique, SDC+SEGV reduction vs NOFT, mean normalized runtime.
//! * [`ArtifactStore`] — the shared program-artifact store: campaigns,
//!   timing runs and the figures memoize the transform + lower preparation
//!   behind a `(source digest, technique, TransformConfig, LowerConfig)`
//!   key, so `fig8` + `fig9` + `headline` prepare each program once instead
//!   of three times. The `*_in` entry points ([`run_campaign_in`],
//!   [`measure_perf_in`], [`FigureEight::run_in`], [`FigureNine::run_in`])
//!   take an explicit store; the plain entry points use a private one.
//! * [`ResultStore`] — the two-tier (memory + on-disk) content-addressed
//!   *result* store: certification and triage outcomes keyed by
//!   `(program digest, section digest, fault-model digest)` section keys
//!   (see [`sor_ace::SectionKey`]), so re-certification after an edit
//!   re-executes only the sections whose inputs actually changed.
//!   [`certify_incremental`] / [`run_certified_campaign_stored`] and
//!   [`run_triaged_campaign_stored`] compose cached and fresh sections
//!   into results bit-identical to their monolithic counterparts
//!   (DESIGN.md §14 gives the soundness argument).
//! * [`run_triaged_campaign`] — the same campaign with per-fault
//!   attribution: every injection also feeds a
//!   `sor_triage::VulnerabilityProfile` keyed by the static instruction's
//!   provenance (pc, `ProtectionRole`), merged across worker threads.
//!   [`residual_sdc_table`] renders the cross-technique residual-SDC-by-role
//!   markdown table used by the `triage` report binary.
//! * [`run_certified_campaign`] — the exhaustive, exact counterpart to the
//!   sampled campaign: `sor_ace` liveness analysis prunes provably-unACE
//!   sites and collapses the rest into read-window equivalence classes,
//!   and only the class representatives are executed (same
//!   checkpoint-and-replay + work-stealing machinery). The resulting
//!   [`CertifiedCoverage`](sor_ace::CertifiedCoverage) covers *every*
//!   (slot, register, bit) site with exact unACE/SDC/DUE fractions and
//!   per-role attribution — no Wilson interval.

mod artifact;
mod campaign;
mod certify;
mod ctrl;
mod figures;
mod perf;
mod pool;
mod render;
mod report;
mod store;
mod triage;

pub use artifact::{Artifact, ArtifactKey, ArtifactStore};
pub use campaign::{run_campaign, run_campaign_in, CampaignConfig, CampaignResult};
pub use certify::{
    certify_incremental, certify_program, certify_program_with, certify_resumable,
    run_certified_campaign, run_certified_campaign_in, run_certified_campaign_stored,
    CertifyConfig, CertifyProgress, CertifyStatus, IncrementalCertification,
};
pub use ctrl::RunCtrl;
pub use figures::{FigureEight, FigureNine};
pub use perf::{measure_perf, measure_perf_in, PerfConfig, PerfResult};
pub use pool::{resolve_lanes, resolve_threads};
pub use render::{
    certified_json, certified_json_model, result_name, technique_slug, triage_json,
    triage_json_model,
};
pub use report::{headline, Headline};
pub use sor_models::{FaultModel, SampleCtx};
pub use sor_sim::{ExecEngine, JitProg};
pub use sor_stats::{wilson_ci, OutcomeCounts};
pub use store::{triage_section_key, ResultStore, STORE_FORMAT_VERSION};
pub use triage::{
    residual_sdc_table, run_triaged_campaign, run_triaged_campaign_in,
    run_triaged_campaign_resumable, run_triaged_campaign_stored, TriageProgress, TriageStatus,
    TriagedCampaign,
};
