//! SWIFT-R: triple-modular redundancy in software with majority-vote
//! recovery (paper §3).

use crate::config::TransformConfig;
use sor_ir::Module;

/// Applies the SWIFT-R recovery transform: integer computation is
/// *triplicated* (original + two shadows) and majority votes before loads,
/// stores, branches, calls and returns repair any single corrupted copy
/// in place, letting the program run to a correct completion.
///
/// ```
/// use sor_core::{apply_swiftr, TransformConfig};
/// use sor_ir::{ModuleBuilder, Operand, Width};
///
/// let mut mb = ModuleBuilder::new("demo");
/// let mut f = mb.function("main");
/// let x = f.movi(40);
/// let y = f.add(Width::W64, x, 2i64);
/// f.emit(Operand::reg(y));
/// f.ret(&[]);
/// let id = f.finish();
/// let module = mb.finish(id);
///
/// let hardened = apply_swiftr(&module, &TransformConfig::default());
/// // Triplication: the add now exists three times.
/// assert!(hardened.inst_count() > module.inst_count() * 2);
/// assert!(sor_ir::verify(&hardened).is_ok());
/// ```
pub fn apply_swiftr(module: &Module, cfg: &TransformConfig) -> Module {
    crate::pass::run_technique(crate::Technique::SwiftR, module, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{verify, MemWidth, ModuleBuilder, Operand, ProbeEvent, Width};
    use sor_regalloc::{lower, LowerConfig};
    use sor_sim::{FaultSpec, Machine, MachineConfig, Outcome, Runner};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.alloc_global_u64s("g", &[7, 0]);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let x = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(0);
        // A dependence chain long enough that most faults land inside it.
        for i in 0..20 {
            let t = f.add(Width::W64, acc, x);
            let t2 = f.xor(Width::W64, t, i as i64);
            acc = t2;
        }
        f.store(MemWidth::B8, base, 8, acc);
        f.emit(Operand::reg(acc));
        f.ret(&[]);
        let id = f.finish();
        mb.finish(id)
    }

    #[test]
    fn output_verifies_and_triplicates() {
        let m = sample();
        let t = apply_swiftr(&m, &TransformConfig::default());
        verify(&t).expect("transformed module verifies");
        // Triplication: computation instructions appear three times.
        assert!(t.inst_count() > m.inst_count() * 2);
    }

    #[test]
    fn semantics_preserved_without_faults() {
        let m = sample();
        let t = apply_swiftr(&m, &TransformConfig::default());
        let p0 = lower(&m, &LowerConfig::default()).unwrap();
        let p1 = lower(&t, &LowerConfig::default()).unwrap();
        let r0 = Machine::new(&p0, &MachineConfig::default()).run(None);
        let r1 = Machine::new(&p1, &MachineConfig::default()).run(None);
        assert_eq!(r0.output, r1.output);
        assert_eq!(r1.probes.vote_repairs, 0, "no repairs without faults");
    }

    #[test]
    fn recovers_from_every_fault_in_the_protected_chain() {
        // Inject into the registers the original accumulator chain uses at
        // many points in time: SWIFT-R must vote the damage away.
        let m = sample();
        let t = apply_swiftr(&m, &TransformConfig::default());
        let p = lower(&t, &LowerConfig::default()).unwrap();
        let runner = Runner::new(&p, &MachineConfig::default());
        let len = runner.golden().dyn_instrs;
        let mut repaired = 0u64;
        let mut not_unace = 0u64;
        for at in (0..len).step_by(7) {
            for reg in [0u8, 2, 3, 4, 5] {
                let (outcome, res) = runner.run_fault(FaultSpec::new(at, reg, 13));
                if outcome != Outcome::UnAce {
                    not_unace += 1;
                }
                repaired += res.probes.vote_repairs;
            }
        }
        assert!(repaired > 0, "some votes must have repaired");
        // The windows of vulnerability are small; the vast majority of these
        // injections must be masked or repaired.
        let total = (len / 7 + 1) * 5;
        assert!(
            (not_unace as f64) < total as f64 * 0.05,
            "{not_unace}/{total} injections were not unACE"
        );
    }

    #[test]
    fn vote_repair_probe_fires_on_targeted_hit() {
        let m = sample();
        let t = apply_swiftr(&m, &TransformConfig::default());
        let p = lower(&t, &LowerConfig::default()).unwrap();
        let runner = Runner::new(&p, &MachineConfig::default());
        let len = runner.golden().dyn_instrs;
        // Sweep until some injection triggers an actual repair probe.
        let mut hit = false;
        'outer: for at in 0..len.min(400) {
            for &reg in &sor_sim::INJECTABLE_REGS[..8] {
                let (_, res) = runner.run_fault(FaultSpec::new(at, reg, 3));
                if res.probes.vote_repairs > 0 {
                    hit = true;
                    break 'outer;
                }
            }
        }
        assert!(
            hit,
            "no injection ever triggered {:?}",
            ProbeEvent::VoteRepair
        );
    }
}
