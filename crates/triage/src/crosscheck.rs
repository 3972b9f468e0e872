//! Cross-validation of sampled profiles against certified ground truth.
//!
//! A [`VulnerabilityProfile`] estimates each site's SDC rate from a random
//! sample; a [`CertifiedCoverage`] knows it exactly. Cross-validation asks
//! the only question that connects them: for every site the sampler
//! observed enough times, does the sampled 95% Wilson interval cover the
//! certified exact rate? A well-calibrated sampler covers ~95% of sites;
//! systematic misses point at a biased sampler (or a broken analysis) long
//! before either shows up in aggregate numbers.

use crate::profile::VulnerabilityProfile;
use sor_ace::CertifiedCoverage;

/// One site whose sampled interval failed to cover the exact rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossMiss {
    /// Static instruction address.
    pub pc: usize,
    /// The sampler's 95% Wilson interval on the SDC percentage.
    pub sampled_ci: (f64, f64),
    /// The certified exact SDC percentage over every site on this pc.
    pub exact_pct: f64,
    /// How many sampled injections landed on this pc.
    pub samples: u64,
}

/// The outcome of one cross-validation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossCheck {
    /// Sites with at least `min_samples` sampled injections.
    pub checked: u64,
    /// Checked sites whose sampled interval covered the exact rate.
    pub covered: u64,
    /// The checked-but-not-covered sites, in address order.
    pub misses: Vec<CrossMiss>,
}

impl CrossCheck {
    /// Fraction of checked sites whose interval covered the exact rate
    /// (`1.0` when nothing was checked).
    pub fn coverage_rate(&self) -> f64 {
        if self.checked == 0 {
            return 1.0;
        }
        self.covered as f64 / self.checked as f64
    }
}

/// Cross-validates `profile` against `certified`: every profiled site with
/// at least `min_samples` observations is checked for interval coverage of
/// the certified exact SDC percentage.
///
/// # Panics
///
/// Panics if a profiled site is absent from the certified per-site map —
/// certification covers every site a fault can land on, so a missing pc
/// means the two reports describe different programs.
pub fn cross_validate(
    profile: &VulnerabilityProfile,
    certified: &CertifiedCoverage,
    min_samples: u64,
) -> CrossCheck {
    let mut check = CrossCheck::default();
    for (pc, stats) in profile.sites() {
        if stats.counts.total() < min_samples {
            continue;
        }
        let exact = certified
            .sites
            .get(&pc)
            .unwrap_or_else(|| panic!("pc {pc} sampled but not certified: program mismatch"));
        check.checked += 1;
        let (lo, hi) = stats.counts.sdc_ci95();
        let exact_pct = exact.pct_sdc();
        if lo <= exact_pct && exact_pct <= hi {
            check.covered += 1;
        } else {
            check.misses.push(CrossMiss {
                pc,
                sampled_ci: (lo, hi),
                exact_pct,
                samples: stats.counts.total(),
            });
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{adaptive_profile, AdaptiveConfig};
    use sor_ace::{DefUseTrace, GenCertPlan};
    use sor_core::Technique;
    use sor_ir::{ModuleBuilder, Operand, Width};
    use sor_models::FaultModel;
    use sor_regalloc::{lower, LowerConfig};
    use sor_sim::{MachineConfig, Runner};
    use sor_stats::OutcomeCounts;

    fn program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("xchk");
        let mut f = mb.function("main");
        let a = f.movi(21);
        let b = f.mul(Width::W64, a, 5i64);
        let c = f.add(Width::W64, b, a);
        let d = f.xor(Width::W64, c, 0x33i64);
        f.emit(Operand::reg(d));
        f.ret(&[]);
        let id = f.finish();
        lower(
            &Technique::SwiftR.apply(&mb.finish(id)),
            &LowerConfig::default(),
        )
        .unwrap()
    }

    /// Single-threaded certification, exactly `sor_harness::certify_program`
    /// minus the worker pool (which this crate cannot depend on without a
    /// cycle — sor-harness depends on sor-triage).
    fn certify(runner: &Runner, program: &sor_ir::Program) -> CertifiedCoverage {
        let trace = DefUseTrace::record(runner);
        let plan = GenCertPlan::build(FaultModel::SeuReg, program, &trace).unwrap();
        let golden = runner.golden();
        let golden_recoveries = golden.probes.vote_repairs + golden.probes.trump_recovers;
        let mut replayer = runner.replayer();
        let class_results: Vec<OutcomeCounts> = plan
            .classes
            .iter()
            .map(|class| {
                let mut agg = OutcomeCounts::default();
                for fault in plan.faults(class) {
                    let (outcome, res) = replayer.run_fault_gen(fault);
                    agg.record(outcome, res.probes.vote_repairs + res.probes.trump_recovers);
                }
                agg
            })
            .collect();
        plan.assemble(
            "xchk",
            "SWIFT-R",
            program,
            &trace,
            &class_results,
            golden_recoveries,
        )
    }

    /// The sampler's intervals must cover the certified exact rates: on
    /// this seed every well-sampled site is covered, and the result is
    /// deterministic.
    #[test]
    fn sampled_intervals_cover_certified_exact_rates() {
        let program = program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let certified = certify(&runner, &program);
        let cfg = AdaptiveConfig {
            pilot: 150,
            budget: 900,
            threshold_pct: 20.0,
            seed: 0xC0FE,
            ..Default::default()
        };
        let sampled = adaptive_profile(&runner, &cfg);
        let check = cross_validate(&sampled.profile, &certified, 10);
        assert!(check.checked > 0, "nothing was well-sampled");
        assert_eq!(
            check.covered, check.checked,
            "interval misses: {:?}",
            check.misses
        );
        assert_eq!(check, cross_validate(&sampled.profile, &certified, 10));
    }

    /// An over-strict `min_samples` checks nothing and reports full
    /// coverage rather than dividing by zero.
    #[test]
    fn unchecked_profiles_report_full_coverage() {
        let program = program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let certified = certify(&runner, &program);
        let sampled = adaptive_profile(
            &runner,
            &AdaptiveConfig {
                pilot: 10,
                budget: 10,
                threshold_pct: 100.0,
                ..Default::default()
            },
        );
        let check = cross_validate(&sampled.profile, &certified, u64::MAX);
        assert_eq!(check.checked, 0);
        assert_eq!(check.coverage_rate(), 1.0);
        assert!(check.misses.is_empty());
    }
}
