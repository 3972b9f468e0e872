//! Compositional incremental re-certification: content-addressed section
//! keys over the certification plan.
//!
//! A monolithic [`crate::CertifiedCoverage`] run executes every
//! equivalence class of the [`GenCertPlan`]. This module cuts that work into
//! contiguous dynamic-slot **sections**, each carrying a [`SectionKey`]
//! derived purely from content digests, so a persistent store can serve a
//! section's executed class histograms back without re-injecting anything.
//!
//! ## Why the key is exact (the soundness argument, DESIGN.md §14)
//!
//! A cached hit must imply the recomputed result would be bit-identical.
//! The simulator is deterministic and a lowered [`Program`] bakes in its
//! input data (the global image), so the outcome of *every* fault
//! `(slot, effect)` is a pure function of `(program, fault)` — nothing
//! else: no wall clock, no thread schedule, no allocator state reaches an
//! outcome. The key therefore needs exactly three components:
//!
//! 1. **Program digest** ([`sor_ir::Digest`] over the whole lowered
//!    image). A faulty run may diverge *anywhere* — into detector blocks,
//!    recovery code, branches the golden run never takes — so no
//!    per-section slice of the program can bound what an outcome depends
//!    on. The whole-program digest is the assumption-free component.
//! 2. **Def-use slice digest** ([`DefUseTrace::digest_slice`] over the
//!    section's slots). Redundant given (1) *if* tracing never changes —
//!    this component guards exactly that: the set of live classes, their
//!    representatives, and the pcs faults fire at are all functions of the
//!    trace, so simulator/tracer evolution that alters any of them changes
//!    the digest and forces re-execution instead of serving stale shapes.
//! 3. **Fault-model digest** ([`fault_model_config_digest`] of the plan's
//!    model slug): the model identity, the injectable register set, bits
//!    per register, and a semantics version bumped whenever
//!    injection/outcome-classification semantics change incompatibly. A
//!    model's mask table and per-slot class shape are functions of its
//!    identity and the trace, so two models never share a section and
//!    `seu-reg` keys are exactly the pre-model ones.
//!
//! ## Validating a stored section
//!
//! A stored [`ClassOutcome`] is served only if it lines up with the class
//! the fresh plan puts in the same position ([`CertSection::matches`]):
//! the same register tag (a register, or [`GenClass::SLOT_TAG`](crate::GenClass::SLOT_TAG) for
//! per-slot models), the same representative slot, and a histogram that
//! sums to exactly the class's mask count. A record that fails any of
//! these — a digest collision, drift, or a forged or damaged record that
//! still checksums — degrades to a warned recompute, never to a wrong or
//! panicking assembly.
//!
//! Deliberately *excluded*: thread count, lane width, checkpoint interval
//! and execution engine (results are pinned independent of them by the
//! differential and campaign-determinism tests), and workload/technique
//! *names* — labels are applied at assembly time, never cached, so two
//! differently-named workloads that lower to the same image share cache
//! entries, and renames never poison the store.

use crate::models::GenCertPlan;
use crate::trace::DefUseTrace;
use sor_ir::{ContentHash, Digest, Fnv1a, Program};
use sor_sim::INJECTABLE_REGS;
use sor_stats::OutcomeCounts;
use std::borrow::Borrow;

/// Bump when injection or outcome-classification semantics change in a
/// way that invalidates previously stored section results.
///
/// History: 1 = the original hardcoded register-SEU digest; 2 = the
/// fault-model digest gained the model's identity slug (`sor-models`), so
/// every pre-model store entry reads as stale and degrades to a warned
/// recompute.
pub const CERT_SEMANTICS_VERSION: u64 = 2;

/// Digest of the fault model an injection campaign explores, keyed by the
/// model's identity slug (see `sor-models`): the semantics version of the
/// certification machinery, the model identity, and the register-SEU
/// space parameters every model's unACE reasoning is anchored on.
pub fn fault_model_config_digest(model_slug: &str) -> ContentHash {
    let mut h = Fnv1a::new();
    h.u64(CERT_SEMANTICS_VERSION);
    h.usize(model_slug.len());
    h.bytes(model_slug.as_bytes());
    h.usize(INJECTABLE_REGS.len());
    h.bytes(&INJECTABLE_REGS);
    h.u64(64); // bits per register
    ContentHash(h.finish64())
}

/// The default-model digest: the paper's single-bit register SEU
/// (`seu-reg`), which every legacy store key used implicitly.
pub fn fault_config_digest() -> ContentHash {
    fault_model_config_digest("seu-reg")
}

/// The content-addressed identity of one certified section:
/// `(program, def-use slice, fault model)`, each as a digest. Equal keys
/// imply bit-identical recomputation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SectionKey {
    /// Whole-program content digest.
    pub program: ContentHash,
    /// This section's def-use slice digest.
    pub slice: ContentHash,
    /// Fault-model / semantics digest.
    pub config: ContentHash,
}

/// One contiguous dynamic-slot section of a certification plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertSection {
    /// First dynamic slot (inclusive).
    pub lo: u64,
    /// One past the last dynamic slot (exclusive).
    pub hi: u64,
    /// Indices into [`GenCertPlan::classes`] whose representative slot
    /// (`class.hi`) falls in `lo..hi` — the injections this section owns.
    pub classes: Vec<usize>,
    /// The section's content-addressed store key.
    pub key: SectionKey,
}

/// The executed (or cached) result of one section: the histogram of every
/// class the section owns, tagged with the class's `(register tag,
/// representative slot)` so a consumer can verify alignment with its own
/// freshly built plan before trusting cached data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SectionOutcomes {
    /// One entry per owned class, in [`CertSection::classes`] order.
    pub classes: Vec<ClassOutcome>,
}

/// One executed equivalence class: its masks injected at slot `rep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassOutcome {
    /// The class's [`GenClass::reg`](crate::GenClass::reg) tag: the flipped register, or
    /// [`GenClass::SLOT_TAG`](crate::GenClass::SLOT_TAG) for a per-slot class.
    pub reg: u8,
    /// Representative injection slot ([`GenClass::hi`](crate::GenClass::hi)).
    pub rep: u64,
    /// Aggregated histogram of the class's injections.
    pub counts: OutcomeCounts,
}

impl CertSection {
    /// Whether `outcomes` lines up with this section's classes in `plan`:
    /// one entry per owned class, each with the class's `(reg, rep)` tag
    /// and a histogram summing to exactly the class's mask count. The
    /// check every stored section passes before it is served.
    pub fn matches(&self, plan: &GenCertPlan, outcomes: &SectionOutcomes) -> bool {
        outcomes.classes.len() == self.classes.len()
            && self
                .classes
                .iter()
                .zip(&outcomes.classes)
                .all(|(&idx, out)| {
                    plan.classes.get(idx).is_some_and(|class| {
                        class.reg == out.reg
                            && class.hi == out.rep
                            && out.counts.total() == u64::from(class.masks)
                    })
                })
    }
}

/// A certification plan partitioned into content-addressed sections.
#[derive(Debug, Clone)]
pub struct CertSections {
    /// Contiguous sections tiling `0..golden_len` in slot order.
    pub sections: Vec<CertSection>,
}

impl CertSections {
    /// Partitions `plan` into (at most) `nsections` contiguous dynamic-slot
    /// sections and derives each section's [`SectionKey`].
    ///
    /// Every class is owned by exactly the section containing its
    /// representative slot; sections therefore tile the plan's injections
    /// exactly. `nsections` is clamped to at least 1; a run shorter than
    /// `nsections` slots yields fewer, never empty-beyond-the-run,
    /// sections.
    pub fn partition(
        program: &Program,
        trace: &DefUseTrace,
        plan: &GenCertPlan,
        nsections: usize,
    ) -> CertSections {
        let program_digest = program.content_digest();
        let config = fault_model_config_digest(plan.model.slug());
        let len = plan.golden_len;
        let n = (nsections.max(1) as u64).min(len.max(1));
        let mut sections: Vec<CertSection> = (0..n)
            .map(|i| {
                let lo = len * i / n;
                let hi = len * (i + 1) / n;
                CertSection {
                    lo,
                    hi,
                    classes: Vec::new(),
                    key: SectionKey {
                        program: program_digest,
                        slice: trace.digest_slice(program, lo, hi),
                        config,
                    },
                }
            })
            .collect();
        for (idx, class) in plan.classes.iter().enumerate() {
            // Sections are equal-width tiles of 0..len, so the owner of a
            // representative slot is found by direct division; guard with
            // partition_point for the uneven-division edges.
            let s = sections.partition_point(|sec| sec.hi <= class.hi);
            debug_assert!(sections[s].lo <= class.hi && class.hi < sections[s].hi);
            sections[s].classes.push(idx);
        }
        CertSections { sections }
    }

    /// Scatters per-section outcomes back into the plan-aligned
    /// `class_results` vector [`GenCertPlan::assemble`] expects.
    ///
    /// Returns `None` — caller must fall back to recomputation — if any
    /// section's outcomes fail [`CertSection::matches`], which is how
    /// digest collisions and any undetected drift degrade: to a cache
    /// miss, never to wrong results.
    pub fn scatter<S: Borrow<SectionOutcomes>>(
        &self,
        plan: &GenCertPlan,
        per_section: &[S],
    ) -> Option<Vec<OutcomeCounts>> {
        if per_section.len() != self.sections.len() {
            return None;
        }
        let mut results = vec![None; plan.classes.len()];
        for (section, outcomes) in self.sections.iter().zip(per_section) {
            let outcomes = outcomes.borrow();
            if !section.matches(plan, outcomes) {
                return None;
            }
            for (&idx, out) in section.classes.iter().zip(&outcomes.classes) {
                results[idx] = Some(out.counts);
            }
        }
        results.into_iter().collect()
    }

    /// Total classes owned across all sections (equals the plan's).
    pub fn total_classes(&self) -> usize {
        self.sections.iter().map(|s| s.classes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::Technique;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, Width};
    use sor_models::FaultModel;
    use sor_regalloc::{lower, LowerConfig};
    use sor_sim::{MachineConfig, Runner};

    fn program(weight: i64) -> Program {
        let mut mb = ModuleBuilder::new("inc");
        let g = mb.alloc_global_u64s("g", &[5, 0]);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let n = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(weight);
        for i in 0..6 {
            acc = f.add(Width::W64, acc, i as i64);
            f.store(MemWidth::B8, base, 8, acc);
        }
        let back = f.load(MemWidth::B8, base, 8);
        let sum = f.add(Width::W64, back, n);
        f.emit(Operand::reg(sum));
        f.ret(&[]);
        let id = f.finish();
        let module = Technique::SwiftR.apply(&mb.finish(id));
        lower(&module, &LowerConfig::default()).unwrap()
    }

    /// The certifiable models: every input the section tests loop over.
    const MODELS: [FaultModel; 4] = [
        FaultModel::SeuReg,
        FaultModel::MultiBitUpset,
        FaultModel::TransientAlu,
        FaultModel::PcCorrupt,
    ];

    fn plan_for(prog: &Program, model: FaultModel) -> (DefUseTrace, GenCertPlan) {
        let runner = Runner::new(prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = GenCertPlan::build(model, prog, &trace).unwrap();
        (trace, plan)
    }

    #[test]
    fn sections_tile_the_run_and_own_every_class_once() {
        let prog = program(1);
        for model in MODELS {
            let (trace, plan) = plan_for(&prog, model);
            let sections = CertSections::partition(&prog, &trace, &plan, 4);
            assert_eq!(sections.sections.len(), 4, "{model}");
            assert_eq!(sections.sections[0].lo, 0);
            assert_eq!(sections.sections.last().unwrap().hi, plan.golden_len);
            for w in sections.sections.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "{model}: sections must be contiguous");
            }
            for s in &sections.sections {
                assert_eq!(s.key.config, fault_model_config_digest(model.slug()));
            }
            // Every class owned exactly once, by the section holding its rep.
            let mut owned: Vec<usize> = sections
                .sections
                .iter()
                .flat_map(|s| s.classes.iter().copied())
                .collect();
            owned.sort_unstable();
            assert_eq!(
                owned,
                (0..plan.classes.len()).collect::<Vec<_>>(),
                "{model}"
            );
            for s in &sections.sections {
                for &idx in &s.classes {
                    let rep = plan.classes[idx].hi;
                    assert!(s.lo <= rep && rep < s.hi, "{model}");
                }
            }
        }
    }

    #[test]
    fn keys_are_reproducible_and_section_distinct() {
        let prog = program(1);
        let (trace, plan) = plan_for(&prog, FaultModel::SeuReg);
        let a = CertSections::partition(&prog, &trace, &plan, 4);
        let b = CertSections::partition(&prog, &trace, &plan, 4);
        for (x, y) in a.sections.iter().zip(&b.sections) {
            assert_eq!(x.key, y.key);
        }
        // Distinct slices yield distinct keys (same program, same config).
        let keys: std::collections::HashSet<_> = a.sections.iter().map(|s| s.key).collect();
        assert_eq!(keys.len(), a.sections.len());
    }

    #[test]
    fn a_program_edit_changes_every_section_key() {
        let pa = program(1);
        let pb = program(2);
        let (ta, plana) = plan_for(&pa, FaultModel::SeuReg);
        let (tb, planb) = plan_for(&pb, FaultModel::SeuReg);
        let sa = CertSections::partition(&pa, &ta, &plana, 4);
        let sb = CertSections::partition(&pb, &tb, &planb, 4);
        for (x, y) in sa.sections.iter().zip(&sb.sections) {
            assert_ne!(x.key.program, y.key.program);
            assert_ne!(x.key, y.key);
        }
        // Same fault model on both sides.
        assert_eq!(sa.sections[0].key.config, sb.sections[0].key.config);
    }

    #[test]
    fn scatter_rebuilds_plan_order_and_rejects_misalignment() {
        let prog = program(1);
        for model in MODELS {
            let (trace, plan) = plan_for(&prog, model);
            let sections = CertSections::partition(&prog, &trace, &plan, 3);
            // Fabricate per-section outcomes whose recoveries encode the
            // class index (one unACE run per mask keeps them valid), then
            // check scatter restores plan order.
            let per_section: Vec<SectionOutcomes> = sections
                .sections
                .iter()
                .map(|s| SectionOutcomes {
                    classes: s
                        .classes
                        .iter()
                        .map(|&idx| ClassOutcome {
                            reg: plan.classes[idx].reg,
                            rep: plan.classes[idx].hi,
                            counts: OutcomeCounts {
                                unace: u64::from(plan.classes[idx].masks),
                                recoveries: idx as u64,
                                ..OutcomeCounts::default()
                            },
                        })
                        .collect(),
                })
                .collect();
            let results = sections.scatter(&plan, &per_section).expect("aligned");
            assert_eq!(results.len(), plan.classes.len(), "{model}");
            for (idx, c) in results.iter().enumerate() {
                assert_eq!(c.recoveries, idx as u64, "{model}");
            }
            let v = per_section
                .iter()
                .position(|s| !s.classes.is_empty())
                .expect("some section owns a class");
            // A (reg, rep) tag mismatch is rejected, not misattributed.
            let mut bad = per_section.clone();
            bad[v].classes[0].rep += 1;
            assert!(sections.scatter(&plan, &bad).is_none(), "{model}");
            let mut bad = per_section.clone();
            bad[v].classes[0].reg ^= 1;
            assert!(sections.scatter(&plan, &bad).is_none(), "{model}");
            // A histogram that does not sum to the class's masks is
            // rejected: a forged record must not reach assembly.
            let mut bad = per_section.clone();
            bad[v].classes[0].counts.unace += 1;
            assert!(sections.scatter(&plan, &bad).is_none(), "{model}");
            // A count mismatch is rejected too.
            let mut short = per_section.clone();
            short[v].classes.pop();
            assert!(sections.scatter(&plan, &short).is_none(), "{model}");
        }
    }

    #[test]
    fn nsections_clamps_to_run_length() {
        let prog = program(1);
        let (trace, plan) = plan_for(&prog, FaultModel::SeuReg);
        let s = CertSections::partition(&prog, &trace, &plan, usize::MAX);
        assert_eq!(s.sections.len() as u64, plan.golden_len);
        assert_eq!(s.total_classes(), plan.classes.len());
        let one = CertSections::partition(&prog, &trace, &plan, 0);
        assert_eq!(one.sections.len(), 1);
    }

    #[test]
    fn trace_digests_distinguish_slices_and_programs() {
        let prog = program(1);
        let (trace, plan) = plan_for(&prog, FaultModel::SeuReg);
        assert_ne!(
            trace.digest_slice(&prog, 0, plan.golden_len / 2),
            trace.digest_slice(&prog, plan.golden_len / 2, plan.golden_len)
        );
        assert_eq!(trace.content_digest(), trace.content_digest());
        // program(1) and program(2) differ only in one immediate, so their
        // def-use *structure* — what the raw trace digest sees — is
        // identical. The slice digest folds in instruction content and
        // must still tell them apart; the raw trace digest alone is why
        // the section key also carries the program digest.
        let (trace2, plan2) = plan_for(&program(2), FaultModel::SeuReg);
        assert_eq!(trace.content_digest(), trace2.content_digest());
        assert_ne!(
            trace.digest_slice(&program(1), 0, plan.golden_len),
            trace2.digest_slice(&program(2), 0, plan2.golden_len)
        );
    }
}
