//! FastFlip-style sectional triage: compositional fault injection.
//!
//! A fault campaign over one program is a bag of independent injections, so
//! it can be partitioned along the dynamic-instruction axis into contiguous
//! *sections* that are profiled independently and composed by histogram
//! merge. Two properties follow:
//!
//! * **Exactness** — the composed profile is bit-for-bit the profile a
//!   monolithic campaign over the same fault list builds, because each
//!   injection's outcome depends only on its own fault point.
//! * **Incrementality** — when a change is known to affect only part of
//!   the dynamic run (a patched loop body, a different input segment),
//!   only the sections overlapping it need re-injection; the rest of the
//!   campaign is reused as-is.

use crate::profile::VulnerabilityProfile;
use sor_sim::{GenFault, Runner};

/// One contiguous dynamic-slot section of a campaign and its profile.
#[derive(Debug, Clone)]
pub struct Section {
    /// First dynamic slot covered (inclusive).
    pub start: u64,
    /// Last dynamic slot covered (exclusive).
    pub end: u64,
    /// The injections assigned to this section.
    pub faults: Vec<GenFault>,
    /// The section's profile (empty until injected).
    pub profile: VulnerabilityProfile,
}

impl Section {
    /// (Re-)profiles the section from scratch, replacing its profile.
    pub fn inject(&mut self, runner: &Runner) {
        let mut profile = VulnerabilityProfile::new();
        let mut replayer = runner.replayer();
        for &fault in &self.faults {
            let (rec, res) = replayer.run_fault_record(fault);
            profile.record(&rec, res.probes.vote_repairs + res.probes.trump_recovers);
        }
        self.profile = profile;
    }
}

/// A campaign partitioned into independently profiled sections.
#[derive(Debug, Clone)]
pub struct SectionalTriage {
    /// The sections, in dynamic-slot order.
    pub sections: Vec<Section>,
}

impl SectionalTriage {
    /// Partitions `faults` into `nsections` contiguous dynamic-slot ranges
    /// without injecting anything. The ranges evenly split `[0, horizon)`
    /// where the horizon is one past the latest fault point, so faults
    /// armed past the end of the run land in the last section.
    pub fn partition(faults: &[GenFault], nsections: usize) -> Self {
        let horizon = faults.iter().map(|f| f.at_instr).max().map_or(1, |m| m + 1);
        let n = nsections.max(1) as u64;
        let mut sections: Vec<Section> = (0..n)
            .map(|i| Section {
                start: i * horizon / n,
                end: (i + 1) * horizon / n,
                faults: Vec::new(),
                profile: VulnerabilityProfile::new(),
            })
            .collect();
        for &f in faults {
            let idx = sections
                .iter()
                .rposition(|s| f.at_instr >= s.start && s.start < s.end)
                .expect("the first section starts at slot 0");
            sections[idx].faults.push(f);
        }
        SectionalTriage { sections }
    }

    /// Partitions and profiles every section: the full campaign, run
    /// section by section.
    pub fn run(runner: &Runner, faults: &[GenFault], nsections: usize) -> Self {
        let mut triage = Self::partition(faults, nsections);
        for s in &mut triage.sections {
            s.inject(runner);
        }
        triage
    }

    /// Re-injects only the sections at `invalidated` indices (e.g. the
    /// sections a code or input change overlaps), leaving the others'
    /// profiles untouched.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn reinject(&mut self, runner: &Runner, invalidated: &[usize]) {
        for &i in invalidated {
            self.sections[i].inject(runner);
        }
    }

    /// Composes the per-section profiles into the whole-campaign profile.
    pub fn compose(&self) -> VulnerabilityProfile {
        let mut whole = VulnerabilityProfile::new();
        for s in &self.sections {
            whole.merge(&s.profile);
        }
        whole
    }

    /// Total injections across all sections.
    pub fn injections(&self) -> u64 {
        self.sections.iter().map(|s| s.faults.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_sim::FaultSpec;

    fn spec(at: u64) -> GenFault {
        FaultSpec::new(at, 2, 5).into()
    }

    #[test]
    fn partition_covers_every_fault_exactly_once() {
        let faults: Vec<GenFault> = (0..97).map(spec).collect();
        let t = SectionalTriage::partition(&faults, 5);
        assert_eq!(t.sections.len(), 5);
        assert_eq!(t.injections(), 97);
        for s in &t.sections {
            for f in &s.faults {
                assert!(
                    s.start <= f.at_instr && f.at_instr < s.end,
                    "fault {} outside section [{}, {})",
                    f.at_instr,
                    s.start,
                    s.end
                );
            }
        }
        // Contiguous, ordered coverage of [0, horizon).
        assert_eq!(t.sections[0].start, 0);
        assert_eq!(t.sections.last().unwrap().end, 97);
        for w in t.sections.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn more_sections_than_slots_is_fine() {
        let faults = [spec(0), spec(1)];
        let t = SectionalTriage::partition(&faults, 8);
        assert_eq!(t.injections(), 2);
    }

    #[test]
    fn empty_fault_list_partitions_to_empty_sections() {
        let t = SectionalTriage::partition(&[], 3);
        assert_eq!(t.injections(), 0);
        assert!(t.compose().injections() == 0);
    }
}
