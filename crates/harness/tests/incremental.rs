//! The incremental-recertification exactness pins (DESIGN.md §14).
//!
//! `certify_incremental` must compose cached and freshly executed
//! sections into a [`CertifiedCoverage`] bit-identical to the monolithic
//! `certify_program`, whatever the store's history: cold, warm, primed by
//! a different program, or recovered from a damaged disk file. The
//! differential mutation test is the soundness guard the design document
//! names — edit one workload function and exactly the dependent sections
//! (every section of the edited program, since its content digest is in
//! every one of its keys — and *no* section of any other program)
//! re-execute.

use sor_core::Technique;
use sor_harness::{
    certify_incremental, certify_program, certify_program_with, run_triaged_campaign_in,
    run_triaged_campaign_stored, ArtifactStore, CampaignConfig, CertifyConfig, FaultModel,
    ResultStore,
};
use sor_ir::{Fnv1a, MemWidth, ModuleBuilder, Operand, Program, Width};
use sor_regalloc::{lower, LowerConfig};
use sor_workloads::AdpcmDec;
use std::path::PathBuf;

const TECHNIQUES: [Technique; 3] = [Technique::SwiftR, Technique::Trump, Technique::Swift];

/// Micro workload 1: an arithmetic chain, parameterized by the seed
/// immediate so "editing one workload function" is one knob away.
fn chain_program(technique: Technique, imm: i64) -> Program {
    let mut mb = ModuleBuilder::new("chain");
    let mut f = mb.function("main");
    let a = f.movi(imm);
    let b = f.mul(Width::W64, a, 3i64);
    let c = f.add(Width::W64, b, a);
    let d = f.xor(Width::W64, c, 0x5Ai64);
    f.emit(Operand::reg(d));
    f.ret(&[]);
    let id = f.finish();
    lower(&technique.apply(&mb.finish(id)), &LowerConfig::default()).unwrap()
}

/// Micro workload 2: memory traffic and a select, so the certified cube
/// contains SEGV and detected outcomes too.
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

fn cfg() -> CertifyConfig {
    CertifyConfig {
        threads: 2,
        sections: 4,
        ..CertifyConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sor-incr-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cold and warm incremental certification both equal the monolithic
/// report bit-for-bit, on 2 workloads x 3 techniques under `seu-reg` and
/// under the per-slot models `pc-corrupt` and `transient-alu`; the warm
/// pass executes zero injections.
#[test]
fn incremental_equals_monolithic_cold_and_warm() {
    for model in [
        FaultModel::SeuReg,
        FaultModel::PcCorrupt,
        FaultModel::TransientAlu,
    ] {
        let cfg = CertifyConfig {
            fault_model: model,
            ..cfg()
        };
        for technique in TECHNIQUES {
            for (name, program) in [
                ("chain", chain_program(technique, 11)),
                ("memsel", mem_program(technique)),
            ] {
                let label = format!("{name}/{technique}/{model}");
                let tech = technique.to_string();
                let reference =
                    certify_program_with(&program, None, None, name, &tech, &cfg).unwrap();
                let store = ResultStore::in_memory();
                let cold = certify_incremental(&store, &program, None, None, name, &tech, &cfg);
                assert_eq!(cold.coverage, reference, "{label}: cold diverged");
                assert_eq!(cold.sections_hit, 0, "{label}: cold store served hits");
                let warm = certify_incremental(&store, &program, None, None, name, &tech, &cfg);
                assert_eq!(warm.coverage, reference, "{label}: warm diverged");
                assert_eq!(warm.fresh_injections, 0, "{label}: warm re-injected");
                assert_eq!(
                    warm.sections_hit, warm.sections_total,
                    "{label}: warm missed sections"
                );
            }
        }
    }
}

/// The DESIGN.md §14 differential guard: mutate one workload function and
/// exactly the dependent sections re-execute. The mutated program's
/// digest is a component of every one of its section keys, so *all* its
/// sections are dependent and re-execute (served results stay
/// bit-identical to a cold monolithic run of the mutated program); the
/// co-resident un-edited program's sections are untouched and keep
/// serving hits without a single injection.
#[test]
fn mutating_one_workload_reexecutes_exactly_its_sections() {
    for technique in TECHNIQUES {
        let label = format!("mutation/{technique}");
        let edited_v1 = chain_program(technique, 11);
        let edited_v2 = chain_program(technique, 12); // the one-line edit
        let bystander = mem_program(technique);

        let store = ResultStore::in_memory();
        certify_incremental(&store, &edited_v1, None, None, "chain", "t", &cfg());
        certify_incremental(&store, &bystander, None, None, "memsel", "t", &cfg());

        // Re-certifying the edited program: every section is dependent
        // (its program digest changed), so none may hit...
        let edited = certify_incremental(&store, &edited_v2, None, None, "chain", "t", &cfg());
        assert_eq!(edited.sections_hit, 0, "{label}: served a stale section");
        assert!(edited.fresh_injections > 0, "{label}: nothing re-executed");
        let reference = certify_program(&edited_v2, "chain", "t", 1, 0);
        assert_eq!(edited.coverage, reference, "{label}: edited run diverged");

        // ...while the bystander program's sections are exactly the
        // non-dependent set: all of them still hit, zero injections.
        let untouched = certify_incremental(&store, &bystander, None, None, "memsel", "t", &cfg());
        assert_eq!(
            untouched.fresh_injections, 0,
            "{label}: bystander re-executed"
        );
        assert_eq!(untouched.sections_hit, untouched.sections_total);

        // Both versions of the edited program now coexist in the store:
        // re-certifying v1 is warm too (the store is content-addressed,
        // not latest-wins).
        let v1_again = certify_incremental(&store, &edited_v1, None, None, "chain", "t", &cfg());
        assert_eq!(v1_again.fresh_injections, 0, "{label}: v1 evicted");
        assert_eq!(
            v1_again.coverage,
            certify_program(&edited_v1, "chain", "t", 1, 0),
            "{label}: v1 diverged"
        );
    }
}

/// Store damage never changes results, only recomputes them: a truncated
/// tail and a stale format version each fall back to a warned recompute
/// whose report stays bit-identical through the full certify path.
#[test]
fn damaged_disk_store_recovers_with_identical_results() {
    let technique = Technique::SwiftR;
    let program = mem_program(technique);
    let reference = certify_program(&program, "memsel", "SWIFT-R", 2, 3);
    let dir = temp_dir("damage");

    // Prime a healthy on-disk store.
    {
        let store = ResultStore::open(&dir);
        let cold = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
        assert_eq!(cold.coverage, reference);
        assert_eq!(store.warnings(), 0);
    }
    let path = dir.join("sections.bin");

    // Truncate mid-record: the store heals to the intact prefix, the
    // missing sections recompute, and the report is unchanged.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    {
        let store = ResultStore::open(&dir);
        assert!(store.warnings() > 0, "truncation must surface a warning");
        let r = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
        assert_eq!(r.coverage, reference, "post-truncation report diverged");
        assert!(r.sections_hit < r.sections_total, "damage cost no section");
    }

    // Stale format version: the whole file is discarded (warned), then
    // transparently rebuilt by the recompute.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    {
        let store = ResultStore::open(&dir);
        assert!(store.warnings() > 0, "stale version must surface a warning");
        let r = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
        assert_eq!(r.coverage, reference, "post-version-bump report diverged");
        assert_eq!(r.sections_hit, 0, "discarded store cannot serve hits");
    }

    // The rebuilt store is healthy again: fully warm, no warnings.
    {
        let store = ResultStore::open(&dir);
        assert_eq!(store.warnings(), 0);
        let r = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
        assert_eq!(r.coverage, reference);
        assert_eq!(r.fresh_injections, 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A forged or damaged record — checksummed and well-formed, but with a
/// class histogram that does not sum to the class's injection count — is
/// outside input: it must degrade to a warned recompute of that section,
/// never reach assembly.
#[test]
fn forged_record_histogram_is_recomputed_not_served() {
    let program = mem_program(Technique::SwiftR);
    let reference = certify_program(&program, "memsel", "SWIFT-R", 2, 3);
    let dir = temp_dir("forged");
    {
        let store = ResultStore::open(&dir);
        certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
    }
    // Record layout: header (magic + version, 12 bytes), then frames of
    // [payload len u32][FNV-1a checksum u64][payload]; a certified
    // payload is [kind u8 = 1][key 3 x u64][class count u32] followed by
    // [reg u8][rep u64][unace u64, ...] per class.
    let path = dir.join("sections.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mut off = 12;
    loop {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let payload = off + 12..off + 12 + len;
        let classes = u32::from_le_bytes(bytes[off + 12 + 25..off + 12 + 29].try_into().unwrap());
        if bytes[off + 12] == 1 && classes > 0 {
            let unace = off + 12 + 29 + 9;
            let v = u64::from_le_bytes(bytes[unace..unace + 8].try_into().unwrap());
            bytes[unace..unace + 8].copy_from_slice(&(v + 1).to_le_bytes());
            let mut h = Fnv1a::new();
            h.bytes(&bytes[payload]);
            bytes[off + 4..off + 12].copy_from_slice(&h.finish64().to_le_bytes());
            break;
        }
        off = payload.end;
    }
    std::fs::write(&path, &bytes).unwrap();

    let store = ResultStore::open(&dir);
    assert_eq!(store.warnings(), 0, "the forged record is well-formed");
    let r = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
    assert_eq!(r.coverage, reference, "forged record changed the report");
    assert_eq!(
        r.sections_hit,
        r.sections_total - 1,
        "only the forged section misses"
    );
    assert!(r.fresh_injections > 0, "the forged section recomputes");
    assert_eq!(store.warnings(), 1, "the rejection is warned");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Back-compat with stores written before the fault-model subsystem:
/// those files carry format version 1 (their section keys were built
/// from the pre-`CERT_SEMANTICS_VERSION`-2 config digest, so no record
/// in them can ever legally match a current key). A version-1 file must
/// be detected as stale on open, discarded with a warning, and the
/// recompute must be bit-identical to a cold run — never a silent
/// partial reuse.
#[test]
fn pre_fault_model_store_is_detected_stale_and_recomputed_identically() {
    assert_eq!(
        sor_harness::STORE_FORMAT_VERSION,
        2,
        "this test emulates a version-1 store; revisit it on the next bump"
    );
    let technique = Technique::SwiftR;
    let program = mem_program(technique);
    let reference = certify_program(&program, "memsel", "SWIFT-R", 2, 3);
    let dir = temp_dir("precompat");

    // Prime a healthy store, then rewrite its header version to 1 — the
    // byte layout is otherwise unchanged, which is exactly the dangerous
    // case: every record would parse, but under obsolete key semantics.
    {
        let store = ResultStore::open(&dir);
        certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
    }
    let path = dir.join("sections.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let store = ResultStore::open(&dir);
    assert!(
        store.warnings() > 0,
        "a pre-fault-model store must surface a staleness warning"
    );
    let r = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
    assert_eq!(r.sections_hit, 0, "stale records must never serve hits");
    assert!(r.fresh_injections > 0, "everything recomputes");
    assert_eq!(r.coverage, reference, "recompute diverged from cold");

    // The recompute rebuilt the store at the current version: warm again.
    drop(store);
    let store = ResultStore::open(&dir);
    assert_eq!(store.warnings(), 0, "rebuilt store must be healthy");
    let warm = certify_incremental(&store, &program, None, None, "memsel", "SWIFT-R", &cfg());
    assert_eq!(warm.coverage, reference);
    assert_eq!(warm.fresh_injections, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The stored triage path composes section profiles bit-identically to
/// the monolithic triaged campaign, and a warm re-run serves every
/// section from the store.
#[test]
fn stored_triage_matches_monolithic_and_warms_up() {
    let w = AdpcmDec {
        samples: 100,
        seed: 3,
    };
    let cfg = CampaignConfig {
        runs: 60,
        seed: 42,
        threads: 2,
        ..Default::default()
    };
    let artifacts = ArtifactStore::new();
    let monolithic = run_triaged_campaign_in(&artifacts, &w, Technique::SwiftR, &cfg);

    let results = ResultStore::in_memory();
    let cold = run_triaged_campaign_stored(&artifacts, &results, &w, Technique::SwiftR, &cfg, 4);
    assert_eq!(cold.profile, monolithic.profile, "cold triage diverged");
    assert_eq!(cold.result.counts, monolithic.result.counts);
    assert_eq!(results.hits(), 0);

    let warm = run_triaged_campaign_stored(&artifacts, &results, &w, Technique::SwiftR, &cfg, 4);
    assert_eq!(warm.profile, monolithic.profile, "warm triage diverged");
    assert_eq!(results.hits(), 4, "warm triage must hit every section");
}

/// Concurrency hardening (DESIGN.md §14): two threads race overlapping
/// certify jobs against one shared on-disk store. The single append lock
/// keeps the disk tier intact, the memory tier gives read-your-writes, and
/// each thread's immediate same-store re-run is fully served from cache —
/// every result bit-identical to the monolithic reference.
#[test]
fn racing_certify_jobs_share_one_store_and_hit() {
    let technique = Technique::SwiftR;
    let program = std::sync::Arc::new(chain_program(technique, 23));
    let reference = certify_program(&program, "chain", &technique.to_string(), 2, 3);
    let dir = temp_dir("race");
    let store = ResultStore::open(&dir);

    let totals: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let store = &store;
                let program = std::sync::Arc::clone(&program);
                let reference = &reference;
                s.spawn(move || {
                    let first = certify_incremental(
                        store,
                        &program,
                        None,
                        None,
                        "chain",
                        &technique.to_string(),
                        &cfg(),
                    );
                    assert_eq!(first.coverage, *reference, "racing run diverged");
                    // Read-your-writes: this thread just persisted (or
                    // observed) every section, so the re-run is all hits.
                    let second = certify_incremental(
                        store,
                        &program,
                        None,
                        None,
                        "chain",
                        &technique.to_string(),
                        &cfg(),
                    );
                    assert_eq!(second.coverage, *reference, "warm rerun diverged");
                    assert_eq!(second.fresh_injections, 0, "rerun re-injected");
                    (second.sections_hit, second.sections_total)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (hit, total) in totals {
        assert_eq!(hit, total, "rerun must be fully served from the store");
        assert!(hit >= 1);
    }
    assert!(store.hits() >= 2, "store counters must record the reuse");

    // The racing writers left a clean, fully-warm disk tier behind.
    drop(store);
    let reopened = ResultStore::open(&dir);
    assert_eq!(reopened.warnings(), 0, "racing writers tore the file");
    let warm = certify_incremental(
        &reopened,
        &program,
        None,
        None,
        "chain",
        &technique.to_string(),
        &cfg(),
    );
    assert_eq!(warm.coverage, reference);
    assert_eq!(warm.fresh_injections, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
