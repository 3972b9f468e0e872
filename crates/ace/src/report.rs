//! The certified-coverage report: exact outcome fractions over the full
//! fault space, assembled by [`crate::GenCertPlan::assemble`] from executed
//! class representatives plus the analytically-pruned windows.

use sor_ir::ProtectionRole;
use sor_stats::OutcomeCounts;
use std::collections::BTreeMap;

/// Exact (not sampled) coverage of one (workload, technique) pair over
/// *every* fault site of one fault model's space (for the default
/// `seu-reg`, the cube `golden_len x registers x 64 bits`).
///
/// `counts.total() == total_sites`: each site contributes exactly one
/// classified outcome, either expanded from its equivalence-class
/// representative or accounted unACE by an analytic proof. The per-site
/// and per-role maps attribute every site to the static instruction (and
/// its [`ProtectionRole`]) the injection check lands on, exactly as
/// brute-force injection would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedCoverage {
    /// Workload name.
    pub workload: String,
    /// Technique display name.
    pub technique: String,
    /// Golden dynamic instruction count.
    pub golden_instrs: u64,
    /// Fault sites in the model's full fault space.
    pub total_sites: u64,
    /// Sites pruned analytically as provably unACE.
    pub dead_sites: u64,
    /// Sites covered by executed representatives.
    pub live_sites: u64,
    /// Executed equivalence classes.
    pub classes: u64,
    /// Injections actually executed (the sum of the classes' masks;
    /// `classes * 64` under `seu-reg`).
    pub injections_executed: u64,
    /// Exact outcome histogram over all sites.
    pub counts: OutcomeCounts,
    /// Exact per-static-instruction histograms.
    pub sites: BTreeMap<usize, OutcomeCounts>,
    /// Exact per-protection-role histograms.
    pub roles: BTreeMap<ProtectionRole, OutcomeCounts>,
}

impl CertifiedCoverage {
    /// How many times smaller the executed campaign is than the site cube.
    pub fn pruning_factor(&self) -> f64 {
        self.total_sites as f64 / (self.injections_executed.max(1)) as f64
    }

    /// Whether *every* fault of the certified space is benign — the claim
    /// sampling can estimate but never prove.
    pub fn fully_unace(&self) -> bool {
        self.counts.unace == self.total_sites
    }
}
