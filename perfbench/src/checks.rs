//! Output checks: each op is judged by a pure function of what the program
//! returned, so a tampered output is counted as a failed op (see tests).

use std::collections::HashMap;

use hifi_circuit::topology::SaTopologyKind;
use hifi_eval::mc_sensitivity::McSensitivityRow;

/// KCL residual (A) above which an MNA solution point fails the engine's
/// post-convergence audit — the bound the `mna_oracle` campaign gates on.
pub const KCL_AUDIT_BOUND_AMPS: f64 = 1e-6;

/// An imaged chip passes when the pipeline ran and identified the topology
/// that was generated.
pub fn chip_ok(expected: SaTopologyKind, run: &Result<Option<SaTopologyKind>, String>) -> bool {
    matches!(run, Ok(Some(found)) if *found == expected)
}

/// A Monte-Carlo σ row passes when both sweeps' every solution point stayed
/// within the KCL audit bound (a `SimError` never yields a row at all).
pub fn mc_row_ok(row: &McSensitivityRow) -> bool {
    [&row.classic, &row.ocsa].iter().all(|rep| {
        rep.solve.worst_kcl_residual_amps <= KCL_AUDIT_BOUND_AMPS
            && rep
                .samples
                .iter()
                .all(|s| s.worst_kcl_residual_amps <= KCL_AUDIT_BOUND_AMPS)
    })
}

/// What the serve client observed for one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Seed the job's spec was generated from.
    pub spec_seed: u64,
    /// The daemon's content key for the spec (empty if never admitted).
    pub key: String,
    /// Final status seen: `done`, `failed`, or `lost` when never seen done.
    pub status: String,
    /// Result digest reported by the daemon (empty unless done).
    pub digest: String,
}

/// Counts the failed jobs of a batch: lost or failed jobs, jobs whose
/// digest disagrees with another job of the same spec key, and jobs whose
/// digest differs from the direct in-process digest in `reference` (keyed
/// by spec key, computed for a sample of the keys).
pub fn failed_jobs(jobs: &[JobResult], reference: &HashMap<String, String>) -> usize {
    let mut digests_by_key: HashMap<&str, Vec<&str>> = HashMap::new();
    for job in jobs.iter().filter(|j| j.status == "done") {
        digests_by_key
            .entry(job.key.as_str())
            .or_default()
            .push(job.digest.as_str());
    }
    jobs.iter()
        .filter(|job| {
            if job.status != "done" || job.digest.is_empty() {
                return true;
            }
            let agree = digests_by_key[job.key.as_str()]
                .iter()
                .all(|d| *d == job.digest);
            let matches_reference = reference.get(&job.key).is_none_or(|d| *d == job.digest);
            !(agree && matches_reference)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_eval::mc_sensitivity::mc_sensitivity_report;

    #[test]
    fn a_chip_with_a_tampered_topology_fails() {
        let expected = SaTopologyKind::Classic;
        assert!(chip_ok(expected, &Ok(Some(SaTopologyKind::Classic))));
        assert!(!chip_ok(
            expected,
            &Ok(Some(SaTopologyKind::OffsetCancellation))
        ));
        assert!(!chip_ok(expected, &Ok(None)));
        assert!(!chip_ok(expected, &Err("extraction failed".into())));
    }

    #[test]
    fn an_mc_row_with_a_tampered_kcl_residual_fails() {
        let mut row = mc_sensitivity_report(3, 1, &[45.0]).remove(0);
        assert!(mc_row_ok(&row));
        row.ocsa.samples[0].worst_kcl_residual_amps = 2.0 * KCL_AUDIT_BOUND_AMPS;
        assert!(!mc_row_ok(&row));
    }

    fn job(seed: u64, key: &str, digest: &str) -> JobResult {
        JobResult {
            spec_seed: seed,
            key: key.into(),
            status: "done".into(),
            digest: digest.into(),
        }
    }

    #[test]
    fn tampered_lost_and_disagreeing_jobs_are_failed_ops() {
        let reference: HashMap<String, String> = [("k1".to_string(), "d1".to_string())].into();
        let clean = vec![job(1, "k1", "d1"), job(2, "k1", "d1"), job(3, "k2", "d2")];
        assert_eq!(failed_jobs(&clean, &reference), 0);

        // A digest that differs from the direct in-process run: both jobs of
        // the key now disagree with each other, the tampered one also with
        // the reference.
        let mut tampered = clean.clone();
        tampered[1].digest = "forged".into();
        assert_eq!(failed_jobs(&tampered, &reference), 2);

        // Duplicates that disagree fail even without a reference digest.
        let mut split = clean.clone();
        split.push(job(4, "k2", "other"));
        assert_eq!(failed_jobs(&split, &reference), 2);

        // A consistent but wrong key-level digest is caught by the reference.
        let wrong = vec![job(1, "k1", "x"), job(2, "k1", "x")];
        assert_eq!(failed_jobs(&wrong, &reference), 2);

        // Lost and failed jobs.
        let mut lost = clean;
        lost[2].status = "lost".into();
        lost[2].digest.clear();
        lost.push(JobResult {
            status: "failed".into(),
            ..job(5, "k3", "")
        });
        assert_eq!(failed_jobs(&lost, &reference), 2);
    }
}
