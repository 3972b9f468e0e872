//! ZOFI-style adaptive statistical sampling.
//!
//! Exhaustive injection over every (dynamic slot, register, bit) point is
//! quadratic-ish in program size; uniform sampling wastes most of its
//! budget re-confirming sites that are already statistically settled. The
//! adaptive sampler spends a small stratified *pilot* pass discovering
//! which static instructions faults land on, then directs every further
//! injection at sites whose SDC confidence interval still straddles the
//! decision threshold — the sites where more data can actually change the
//! verdict — until the interval resolves or a fixed budget runs out.
//! Optionally ([`AdaptiveConfig::rank_k`]) leftover budget then races the
//! top-k ranking boundary: the weakest current member of the top-k and the
//! strongest outsider are sampled head-to-head until their intervals
//! separate, concentrating the remaining injections on exactly the
//! membership question a vulnerability report ranks sites by.
//!
//! Targeting is exact because the dynamic-slot → static-instruction map is
//! deterministic: the golden run fixes which instruction executes at each
//! slot, so re-injecting a slot (with fresh register/bit draws) always
//! lands on the same site.

use crate::profile::{SiteStats, VulnerabilityProfile};
use sor_rng::SmallRng;
use sor_sim::{FaultSpec, Replayer, Runner, INJECTABLE_REGS};
use std::collections::BTreeMap;

/// Adaptive-sampling parameters.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Pilot injections, stratified uniformly over the dynamic run.
    pub pilot: u64,
    /// Injections added per straddling site per refinement round.
    pub batch: u64,
    /// SDC-percentage decision threshold: a site is settled once its 95%
    /// Wilson interval lies entirely on one side of this value.
    pub threshold_pct: f64,
    /// Hard cap on total injections, pilot included — the stop rule.
    pub budget: u64,
    /// RNG seed.
    pub seed: u64,
    /// Registers to draw from; empty means all of
    /// [`INJECTABLE_REGS`](sor_sim::INJECTABLE_REGS). Restricting this lets
    /// the sampler share a fault space with an exhaustive grid, so their
    /// per-site rates estimate the same quantity.
    pub regs: Vec<u8>,
    /// Bit positions to draw from; empty means all 64.
    pub bits: Vec<u8>,
    /// When non-zero, leftover budget after threshold refinement is spent
    /// racing the top-`rank_k` boundary: each round samples the weakest
    /// member of the current top-k (lowest interval bound) and the
    /// strongest outsider (highest interval bound) until their intervals
    /// separate — the extra injections go exactly to the sites that decide
    /// the top-k membership, not to sites whose rank is already settled.
    pub rank_k: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            pilot: 200,
            batch: 8,
            threshold_pct: 10.0,
            budget: 1000,
            seed: 0x5EED,
            regs: Vec::new(),
            bits: Vec::new(),
            rank_k: 0,
        }
    }
}

/// What the sampler produced.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The accumulated profile.
    pub profile: VulnerabilityProfile,
    /// Injections actually spent (`<= budget`).
    pub injections: u64,
    /// Refinement rounds run after the pilot.
    pub rounds: u64,
    /// Sites whose SDC interval still straddled the threshold when the
    /// budget ran out (empty when every site resolved).
    pub unresolved: Vec<usize>,
}

/// Sites whose 95% SDC interval straddles the threshold strictly.
fn straddling(profile: &VulnerabilityProfile, threshold_pct: f64) -> Vec<usize> {
    profile
        .sites()
        .filter(|(_, s)| {
            let (lo, hi) = s.counts.sdc_ci95();
            lo < threshold_pct && threshold_pct < hi
        })
        .map(|(pc, _)| pc)
        .collect()
}

/// Draws a (register, bit) pair from the configured fault space. The
/// unrestricted case delegates to [`FaultSpec::sample_point`] — the
/// sampling routine shared with the campaign harness — which draws
/// register-then-bit in the same order as the restricted arms, so
/// sequences are stable whichever arms a config restricts.
fn draw_point(rng: &mut SmallRng, cfg: &AdaptiveConfig) -> (u8, u8) {
    if cfg.regs.is_empty() && cfg.bits.is_empty() {
        return FaultSpec::sample_point(rng);
    }
    let reg = if cfg.regs.is_empty() {
        *rng.choose(&INJECTABLE_REGS)
    } else {
        *rng.choose(&cfg.regs)
    };
    let bit = if cfg.bits.is_empty() {
        rng.gen_range(0, 64) as u8
    } else {
        *rng.choose(&cfg.bits)
    };
    (reg, bit)
}

fn inject_one(
    replayer: &mut Replayer<'_, '_>,
    profile: &mut VulnerabilityProfile,
    slots: &mut BTreeMap<usize, Vec<u64>>,
    fault: FaultSpec,
) {
    let (rec, res) = replayer.run_fault_record(fault.into());
    profile.record(&rec, res.probes.vote_repairs + res.probes.trump_recovers);
    if let Some(pc) = rec.static_inst {
        slots.entry(pc).or_default().push(fault.at_instr);
    }
}

/// Runs the adaptive sampler against `runner`'s program.
pub fn adaptive_profile(runner: &Runner, cfg: &AdaptiveConfig) -> AdaptiveResult {
    let golden_len = runner.golden().dyn_instrs.max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut replayer = runner.replayer();
    let mut profile = VulnerabilityProfile::new();
    // Dynamic slots observed to land on each site; drawing from this list
    // re-targets the site with probability proportional to how often it
    // executes.
    let mut slots: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let budget = cfg.budget.max(1);
    let mut injections = 0u64;

    // Pilot: one draw per stratum so every region of the run is observed
    // even when the pilot is much smaller than the run.
    let pilot = cfg.pilot.clamp(1, budget);
    for i in 0..pilot {
        let lo = i * golden_len / pilot;
        let hi = ((i + 1) * golden_len / pilot).max(lo + 1);
        let at = rng.gen_range(lo, hi);
        let (reg, bit) = draw_point(&mut rng, cfg);
        inject_one(
            &mut replayer,
            &mut profile,
            &mut slots,
            FaultSpec::new(at, reg, bit),
        );
        injections += 1;
    }

    // Refinement: batch extra injections onto straddling sites only.
    let mut rounds = 0u64;
    while injections < budget {
        let pending = straddling(&profile, cfg.threshold_pct);
        if pending.is_empty() {
            break;
        }
        rounds += 1;
        for pc in pending {
            // At least one injection per pending site per round, so the
            // budget always makes progress toward the stop rule.
            for _ in 0..cfg.batch.max(1) {
                if injections >= budget {
                    break;
                }
                let at = *rng.choose(&slots[&pc]);
                let (reg, bit) = draw_point(&mut rng, cfg);
                inject_one(
                    &mut replayer,
                    &mut profile,
                    &mut slots,
                    FaultSpec::new(at, reg, bit),
                );
                injections += 1;
            }
        }
    }

    // Top-k boundary racing: with the threshold question settled (or the
    // straddlers exhausted), leftover budget goes to the sites that decide
    // top-k membership. Each round ranks sites by point estimate, finds the
    // weakest member of the top-k (lowest interval lower bound) and the
    // strongest outsider (highest upper bound) and samples both; it stops
    // when their intervals separate — the membership boundary is then
    // statistically settled — or when the budget runs out.
    if cfg.rank_k > 0 {
        while injections < budget {
            let ranked = profile.top_vulnerable(usize::MAX);
            if ranked.len() <= cfg.rank_k {
                break;
            }
            let (inside, outside) = ranked.split_at(cfg.rank_k);
            let lo = |s: &SiteStats| s.counts.sdc_ci95().0;
            let hi = |s: &SiteStats| s.counts.sdc_ci95().1;
            let weakest = inside
                .iter()
                .min_by(|a, b| lo(&a.1).partial_cmp(&lo(&b.1)).expect("bounds are finite"))
                .expect("top-k is non-empty");
            let strongest = outside
                .iter()
                .max_by(|a, b| hi(&a.1).partial_cmp(&hi(&b.1)).expect("bounds are finite"))
                .expect("outsiders are non-empty");
            if lo(&weakest.1) >= hi(&strongest.1) {
                break;
            }
            rounds += 1;
            for pc in [weakest.0, strongest.0] {
                for _ in 0..cfg.batch.max(1) {
                    if injections >= budget {
                        break;
                    }
                    let at = *rng.choose(&slots[&pc]);
                    let (reg, bit) = draw_point(&mut rng, cfg);
                    inject_one(
                        &mut replayer,
                        &mut profile,
                        &mut slots,
                        FaultSpec::new(at, reg, bit),
                    );
                    injections += 1;
                }
            }
        }
    }

    let unresolved = straddling(&profile, cfg.threshold_pct);
    AdaptiveResult {
        profile,
        injections,
        rounds,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{ModuleBuilder, Operand, Width};
    use sor_regalloc::{lower, LowerConfig};
    use sor_sim::MachineConfig;

    fn tiny_program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("tiny");
        let mut f = mb.function("main");
        let a = f.movi(5);
        let b = f.mul(Width::W64, a, 3i64);
        let c = f.add(Width::W64, b, a);
        f.emit(Operand::reg(c));
        f.ret(&[]);
        let id = f.finish();
        lower(&mb.finish(id), &LowerConfig::default()).unwrap()
    }

    /// The sampling-dedupe pin: the unrestricted [`draw_point`] path (now
    /// delegating to [`FaultSpec::sample_point`]) must draw the exact
    /// sequence the pre-dedupe inline code drew — register via `choose`
    /// over [`INJECTABLE_REGS`], then bit via `gen_range` — so adaptive
    /// profiles recorded before the refactor stay reproducible.
    #[test]
    fn draw_point_sequence_is_pinned_to_the_historical_draws() {
        let cfg = AdaptiveConfig::default();
        let mut rng = SmallRng::seed_from_u64(0xADA9);
        let drawn: Vec<(u8, u8)> = (0..500).map(|_| draw_point(&mut rng, &cfg)).collect();
        let mut rng = SmallRng::seed_from_u64(0xADA9);
        let expected: Vec<(u8, u8)> = (0..500)
            .map(|_| {
                let reg = *rng.choose(&INJECTABLE_REGS);
                let bit = rng.gen_range(0, 64) as u8;
                (reg, bit)
            })
            .collect();
        assert_eq!(drawn, expected);
    }

    /// Restricting either arm keeps drawing from the restricted lists.
    #[test]
    fn draw_point_respects_restrictions() {
        let cfg = AdaptiveConfig {
            regs: vec![8, 9],
            bits: vec![0, 63],
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let (reg, bit) = draw_point(&mut rng, &cfg);
            assert!(cfg.regs.contains(&reg));
            assert!(cfg.bits.contains(&bit));
        }
    }

    #[test]
    fn pilot_only_when_nothing_straddles_and_no_race() {
        let program = tiny_program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let cfg = AdaptiveConfig {
            pilot: 40,
            budget: 400,
            // A 95% interval can never straddle 100, and rank_k = 0
            // disables the race, so the sampler stops after the pilot.
            threshold_pct: 100.0,
            ..Default::default()
        };
        let r = adaptive_profile(&runner, &cfg);
        assert_eq!(r.injections, 40);
        assert_eq!(r.rounds, 0);
        assert!(r.unresolved.is_empty());
        assert_eq!(r.profile.injections(), 40);
    }

    #[test]
    fn threshold_refinement_spends_budget_on_straddlers() {
        let program = tiny_program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let cfg = AdaptiveConfig {
            pilot: 30,
            budget: 300,
            // Sits inside every site's initial interval, so refinement
            // must run past the pilot.
            threshold_pct: 20.0,
            ..Default::default()
        };
        let r = adaptive_profile(&runner, &cfg);
        assert!(r.rounds > 0, "threshold refinement never ran");
        assert!(r.injections > 30, "no injections beyond the pilot");
        assert!(r.injections <= 300, "budget exceeded: {}", r.injections);
    }

    #[test]
    fn sampler_is_deterministic_for_a_fixed_seed() {
        let program = tiny_program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let cfg = AdaptiveConfig {
            pilot: 25,
            budget: 200,
            threshold_pct: 15.0,
            rank_k: 2,
            ..Default::default()
        };
        let a = adaptive_profile(&runner, &cfg);
        let b = adaptive_profile(&runner, &cfg);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.unresolved, b.unresolved);
    }

    #[test]
    fn rank_race_stays_within_budget() {
        let program = tiny_program();
        let runner = Runner::new(&program, &MachineConfig::default());
        let cfg = AdaptiveConfig {
            pilot: 30,
            budget: 250,
            threshold_pct: 100.0,
            rank_k: 2,
            ..Default::default()
        };
        let r = adaptive_profile(&runner, &cfg);
        assert!(r.injections <= 250, "budget exceeded: {}", r.injections);
        assert!(
            r.rounds > 0,
            "a tiny program's top-2 boundary should need racing"
        );
    }
}
