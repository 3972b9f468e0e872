//! MASK: dynamic enforcement of statically-proven invariants (paper §5).
//!
//! The known-bits analysis proves that certain bits of certain values are
//! always zero; MASK re-asserts those facts at runtime with `and`
//! instructions, so a fault flipping a provably-dead bit is squashed before
//! it can steer the program. No redundancy is added — the cost is one `and`
//! per enforcement site. Sites:
//!
//! * **loop headers**, for every integer value live around the loop (the
//!   paper's Figure 6: the `adpcmdec` guard bit whose upper 63 bits are
//!   provably zero), and
//! * **branch conditions**, which are provably 0/1 but steer control with
//!   any bit set.

use crate::config::TransformConfig;
use crate::trump::TrumpFuncInfo;
use sor_analysis::{KnownBits, Liveness, LoopInfo};
use sor_ir::{
    AluOp, BlockRoles, FuncRoles, Function, Inst, Module, Operand, ProtectionRole, Terminator,
    Vreg, Width,
};

/// Applies MASK to every function.
///
/// ```
/// use sor_core::{apply_mask, TransformConfig};
/// use sor_ir::{CmpOp, ModuleBuilder, Operand, Width};
///
/// // A loop-carried guard bit, as in the paper's Figure 6.
/// let mut mb = ModuleBuilder::new("demo");
/// let mut f = mb.function("main");
/// let guard = f.movi(0);
/// let header = f.block();
/// let exit = f.block();
/// f.jump(header);
/// f.switch_to(header);
/// let g2 = f.xor(Width::W64, guard, 1i64);
/// f.mov_to(guard, g2);
/// let c = f.cmp(CmpOp::Eq, Width::W64, guard, 0i64);
/// f.branch(c, exit, header);
/// f.switch_to(exit);
/// f.emit(Operand::reg(guard));
/// f.ret(&[]);
/// let id = f.finish();
/// let module = mb.finish(id);
///
/// let masked = apply_mask(&module, &TransformConfig::default());
/// // The guard's 63 provably-zero bits are now enforced at the header.
/// assert!(masked.inst_count() > module.inst_count());
/// ```
pub fn apply_mask(module: &Module, cfg: &TransformConfig) -> Module {
    crate::pass::run_technique(crate::Technique::Mask, module, cfg)
}

/// Masks one function against precomputed analyses, returning the number of
/// enforcement instructions inserted; the `MaskPass` body. The analyses
/// come from the pipeline's `AnalysisCache` so a hybrid run shares them
/// with the other passes. `skip` is the TRUMP/MASK exclusivity set: mask
/// only values TRUMP left unprotected (§6.2), never transform-introduced
/// shadow registers.
pub(crate) fn mask_func(
    func: &mut Function,
    cfg: &TransformConfig,
    skip: Option<&TrumpFuncInfo>,
    kb: &KnownBits,
    loops: &LoopInfo,
    live: &Liveness,
) -> u64 {
    let mut inserted = 0u64;

    // Mirror every insertion into the provenance table so it stays aligned
    // with the code. MASK edits in place, so when the function is still
    // untagged (pure MASK, no Rewriter ran) an all-Original table is
    // materialized first; it is only attached if something was inserted.
    let had_roles = func.roles.is_some();
    let mut roles = func.roles.take().unwrap_or_else(|| FuncRoles {
        blocks: func
            .blocks
            .iter()
            .map(|b| BlockRoles {
                insts: vec![ProtectionRole::Original; b.insts.len()],
                term: ProtectionRole::Original,
            })
            .collect(),
    });

    let eligible = |v: Vreg| -> bool {
        if !v.is_int() {
            return false;
        }
        if let Some(info) = skip {
            if v.index() >= info.orig_int_vregs || info.protected.contains(&v) {
                return false;
            }
        }
        true
    };
    // The enforcement instructions for `v`: an `and` clearing provably-zero
    // bits (§5), optionally an `or` setting provably-one bits (the §5
    // extension remark, behind `mask_known_ones`).
    let enforcements = |v: Vreg| -> Vec<Inst> {
        if !eligible(v) {
            return vec![];
        }
        let mut out = Vec::new();
        let po = kb.possible_ones(v);
        if po != u64::MAX {
            out.push(Inst::Alu {
                op: AluOp::And,
                width: Width::W64,
                dst: v,
                a: Operand::reg(v),
                b: Operand::imm(po as i64),
            });
        }
        if cfg.mask_known_ones {
            let ko = kb.known_ones(v);
            if ko != 0 {
                out.push(Inst::Alu {
                    op: AluOp::Or,
                    width: Width::W64,
                    dst: v,
                    a: Operand::reg(v),
                    b: Operand::imm(ko as i64),
                });
            }
        }
        out
    };

    if cfg.mask_loop_carried {
        for l in loops.loops() {
            let mut carried: Vec<Vreg> = live
                .live_in(l.header)
                .iter()
                .copied()
                .filter(|v| v.is_int())
                .collect();
            carried.sort();
            let header = &mut func.blocks[l.header.index()];
            let header_roles = &mut roles.blocks[l.header.index()].insts;
            let mut pos = 0;
            for v in carried {
                for inst in enforcements(v) {
                    header.insts.insert(pos, inst);
                    header_roles.insert(pos, ProtectionRole::MaskOp);
                    pos += 1;
                    inserted += 1;
                }
            }
        }
    }

    if cfg.mask_branch_conds {
        for (bi, block) in func.blocks.iter_mut().enumerate() {
            if let Terminator::Branch { cond, .. } = block.term {
                for inst in enforcements(cond) {
                    block.insts.push(inst);
                    roles.blocks[bi].insts.push(ProtectionRole::MaskOp);
                    inserted += 1;
                }
            }
        }
    }
    if had_roles || inserted > 0 {
        func.roles = Some(roles);
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{verify, CmpOp, MemWidth, Module, ModuleBuilder};
    use sor_regalloc::{lower, LowerConfig};
    use sor_sim::{FaultSpec, Machine, MachineConfig, Outcome, Runner};

    /// The paper's Figure 6 shape: a guard alternating 0/1 controls a call
    /// every other iteration; its upper 63 bits are provably zero.
    fn guard_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.alloc_global("g", 32);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let guard = f.movi(0);
        let i = f.movi(0);
        let header = f.block();
        let body = f.block();
        let odd = f.block();
        let latch = f.block();
        let exit = f.block();
        f.jump(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::LtU, Width::W64, i, 16i64);
        f.branch(c, body, exit);
        f.switch_to(body);
        // if guard != 0 emit something
        f.branch(guard, odd, latch);
        f.switch_to(odd);
        f.emit(Operand::reg(i));
        f.jump(latch);
        f.switch_to(latch);
        let flipped = f.xor(Width::W64, guard, 1i64);
        f.mov_to(guard, flipped);
        let i2 = f.add(Width::W64, i, 1i64);
        f.mov_to(i, i2);
        f.jump(header);
        f.switch_to(exit);
        f.store(MemWidth::B8, base, 0, i);
        f.ret(&[]);
        let id = f.finish();
        mb.finish(id)
    }

    #[test]
    fn inserts_and_instructions_and_verifies() {
        let m = guard_module();
        let t = apply_mask(&m, &TransformConfig::default());
        verify(&t).unwrap();
        assert!(t.inst_count() > m.inst_count(), "masks were inserted");
        // The guard's enforcement: an `and v, v, 1` somewhere.
        let has_guard_mask = t.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Alu {
                    op: AluOp::And,
                    b: Operand::Imm(1),
                    ..
                }
            )
        });
        assert!(has_guard_mask, "guard bit invariant must be enforced:\n{t}");
    }

    #[test]
    fn semantics_preserved() {
        let m = guard_module();
        let t = apply_mask(&m, &TransformConfig::default());
        let p0 = lower(&m, &LowerConfig::default()).unwrap();
        let p1 = lower(&t, &LowerConfig::default()).unwrap();
        let r0 = Machine::new(&p0, &MachineConfig::default()).run(None);
        let r1 = Machine::new(&p1, &MachineConfig::default()).run(None);
        assert_eq!(r0.output, r1.output);
    }

    #[test]
    fn known_ones_extension_adds_or_enforcement() {
        // A loop-carried value with a provably-set tag bit.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main");
        let v = f.movi(0x81);
        let i = f.movi(0);
        let header = f.block();
        let body = f.block();
        let exit = f.block();
        f.jump(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::LtU, Width::W64, i, 8i64);
        f.branch(c, body, exit);
        f.switch_to(body);
        let x = f.and(Width::W64, v, 0xFFi64);
        let tagged = f.or(Width::W64, x, 0x81i64);
        f.mov_to(v, tagged);
        let i2 = f.add(Width::W64, i, 1i64);
        f.mov_to(i, i2);
        f.jump(header);
        f.switch_to(exit);
        f.emit(Operand::reg(v));
        f.ret(&[]);
        let id = f.finish();
        let m = mb.finish(id);

        let cfg = TransformConfig {
            mask_known_ones: true,
            ..Default::default()
        };
        let t = apply_mask(&m, &cfg);
        verify(&t).unwrap();
        let has_or_enforce = t.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Alu {
                    op: AluOp::Or,
                    b: Operand::Imm(0x81),
                    ..
                }
            )
        });
        assert!(has_or_enforce, "or-enforcement missing:\n{t}");

        // Semantics preserved with the extension on.
        let p0 = lower(&m, &LowerConfig::default()).unwrap();
        let p1 = lower(&t, &LowerConfig::default()).unwrap();
        let r0 = Machine::new(&p0, &MachineConfig::default()).run(None);
        let r1 = Machine::new(&p1, &MachineConfig::default()).run(None);
        assert_eq!(r0.output, r1.output);
    }

    #[test]
    fn mask_squashes_high_bit_faults_on_the_guard() {
        // Flip a high bit of the guard register early in the loop. Without
        // MASK this flips the call pattern for the rest of the run (SDC);
        // with MASK the very next header mask clears it.
        let m = guard_module();
        let masked = apply_mask(&m, &TransformConfig::default());
        let p_plain = lower(&m, &LowerConfig::default()).unwrap();
        let p_mask = lower(&masked, &LowerConfig::default()).unwrap();
        let run = |p: &sor_ir::Program| {
            let runner = Runner::new(p, &MachineConfig::default());
            let len = runner.golden().dyn_instrs;
            let mut bad = 0;
            let mut total = 0;
            for at in 0..len {
                for &reg in &sor_sim::INJECTABLE_REGS[..6] {
                    let (o, _) = runner.run_fault(FaultSpec::new(at, reg, 47));
                    total += 1;
                    if o != Outcome::UnAce {
                        bad += 1;
                    }
                }
            }
            (bad, total)
        };
        let (bad_plain, _) = run(&p_plain);
        let (bad_mask, _) = run(&p_mask);
        assert!(
            bad_mask < bad_plain,
            "MASK should reduce high-bit damage: {bad_mask} !< {bad_plain}"
        );
    }
}
