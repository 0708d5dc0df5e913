//! Correctness oracles. Each one checks a program output against a
//! value computed apart from the program under test — a published
//! constant, the benchmark's own sequential loop, or an inequality
//! that any correct schedule satisfies — never against a stored copy
//! of an earlier run's output.

use rips_apps::GrainTable;
use rips_audit::{AuditReport, ServeAuditReport};

/// A failed check, with what was expected and what was seen.
pub type Check = Result<(), String>;

/// Number of distinct solutions of the N-Queens problem (OEIS A000170)
/// for the board sizes the workloads use.
pub fn queens_solutions(n: u32) -> Option<u64> {
    match n {
        8 => Some(92),
        9 => Some(352),
        10 => Some(724),
        13 => Some(73_712),
        14 => Some(365_596),
        15 => Some(2_279_184),
        _ => None,
    }
}

/// The solutions an `n`-Queens run reported must be the published count.
pub fn check_queens(n: u32, solutions: u64) -> Check {
    let want = queens_solutions(n).ok_or_else(|| format!("no published count for {n}-Queens"))?;
    if solutions == want {
        Ok(())
    } else {
        Err(format!(
            "{n}-Queens: {solutions} solutions, published count is {want}"
        ))
    }
}

/// Grain totals: wrapping checksum sum and solution count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Wrapping sum of per-grain checksums.
    pub checksum: u64,
    /// Total solutions.
    pub solutions: u64,
}

/// The benchmark's own sequential loop: runs every grain of `table`
/// once, in table order, on the calling thread. This is both the
/// reference a live run's totals must match and the sequential
/// baseline its speedup is measured against.
pub fn sequential_totals(table: &GrainTable) -> Totals {
    let mut t = Totals::default();
    for round in 0..table.rounds() {
        for task in 0..table.tasks_in(round) {
            let out = table.run(round as u32, task as u32);
            t.checksum = t.checksum.wrapping_add(out.checksum);
            t.solutions += out.solutions;
        }
    }
    t
}

/// A live run's totals must equal the sequential loop's.
pub fn check_totals(what: &str, want: Totals, got: Totals) -> Check {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: checksum {:#x} / {} solutions, sequential loop gives {:#x} / {}",
            got.checksum, got.solutions, want.checksum, want.solutions
        ))
    }
}

/// No schedule on `nodes` processors finishes `total_work_us` of work
/// in less than `total_work_us / nodes`.
pub fn check_makespan(what: &str, makespan_us: u64, total_work_us: u64, nodes: usize) -> Check {
    if u128::from(makespan_us) * nodes as u128 >= u128::from(total_work_us) {
        Ok(())
    } else {
        Err(format!(
            "{what}: makespan {makespan_us} us is below the work bound {total_work_us} us / {nodes} nodes"
        ))
    }
}

/// A served job waits at least as long as its own service takes.
pub fn check_latency(job: u64, latency_us: u64, service_us: u64) -> Check {
    if latency_us >= service_us {
        Ok(())
    } else {
        Err(format!(
            "job {job}: latency {latency_us} us is shorter than its service {service_us} us"
        ))
    }
}

/// Every offered job is either completed or shed.
pub fn check_conservation(offered: u64, completed: u64, shed: u64) -> Check {
    if completed + shed == offered {
        Ok(())
    } else {
        Err(format!(
            "serve: {completed} completed + {shed} shed != {offered} offered"
        ))
    }
}

/// What an auditor reported, as the audit oracle reads it.
pub struct AuditVerdict<'a> {
    /// Invariant violations.
    pub errors: &'a [String],
    /// Largest post-schedule load spread over the checked phases.
    pub max_spread: i64,
    /// System phases checked against Theorems 1 and 2.
    pub phases_checked: usize,
    /// System phases begun but missing load reports.
    pub phases_incomplete: usize,
}

impl<'a> AuditVerdict<'a> {
    /// A single run's auditor.
    pub fn of(r: &'a AuditReport) -> Self {
        AuditVerdict {
            errors: &r.errors,
            max_spread: r.max_spread,
            phases_checked: r.phases_checked,
            phases_incomplete: r.phases_incomplete,
        }
    }

    /// A serve round's auditor. It sums its per-job inner auditors'
    /// checked phases but does not count their incomplete ones, so the
    /// caller also checks that every completed job carried an inner
    /// trace.
    pub fn of_serve(r: &'a ServeAuditReport) -> Self {
        AuditVerdict {
            errors: &r.errors,
            max_spread: r.max_spread,
            phases_checked: r.phases_checked,
            phases_incomplete: 0,
        }
    }
}

/// Theorem 1 (post-schedule spread ≤ 1) and the auditor's other
/// invariants (Theorem 2, task and migration conservation). The
/// auditor must also have checked at least the `min_phases` system
/// phases the run itself reports, and left none incomplete: an auditor
/// that received no load reports checks nothing and finds nothing.
pub fn check_audit(what: &str, a: &AuditVerdict, min_phases: usize) -> Check {
    if !a.errors.is_empty() {
        return Err(format!("{what}: audit failed: {}", a.errors.join("; ")));
    }
    if a.max_spread > 1 {
        return Err(format!(
            "{what}: load spread {} breaks Theorem 1",
            a.max_spread
        ));
    }
    if a.phases_checked < min_phases || a.phases_incomplete > 0 {
        return Err(format!(
            "{what}: the auditor checked {} system phases ({} incomplete) of the {min_phases} the run reports",
            a.phases_checked, a.phases_incomplete
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_apps::{nqueens_with_grains, NQueensConfig};

    #[test]
    fn queens_oracle_rejects_a_wrong_count() {
        assert!(check_queens(8, 92).is_ok());
        assert!(check_queens(15, 2_279_184).is_ok());
        assert!(check_queens(8, 91).is_err());
        assert!(check_queens(11, 2680).is_err(), "no count on file");
    }

    #[test]
    fn sequential_loop_finds_every_solution() {
        let (_, table) = nqueens_with_grains(NQueensConfig {
            n: 8,
            split_depth: 3,
            root_depth: 2,
            ns_per_node: 1800,
        });
        let t = sequential_totals(&table);
        assert!(check_queens(8, t.solutions).is_ok());
    }

    #[test]
    fn totals_oracle_rejects_a_wrong_checksum() {
        let want = Totals {
            checksum: 0xdead,
            solutions: 92,
        };
        assert!(check_totals("q8", want, want).is_ok());
        let bad = Totals {
            checksum: 0xdeae,
            ..want
        };
        assert!(check_totals("q8", want, bad).is_err());
        let bad = Totals {
            solutions: 91,
            ..want
        };
        assert!(check_totals("q8", want, bad).is_err());
    }

    #[test]
    fn makespan_oracle_rejects_a_time_below_the_work_bound() {
        assert!(check_makespan("c", 250, 1000, 4).is_ok());
        assert!(check_makespan("c", 249, 1000, 4).is_err());
        assert!(check_makespan("c", u64::MAX, u64::MAX, 2).is_ok());
    }

    #[test]
    fn serve_oracles_reject_impossible_jobs() {
        assert!(check_latency(1, 10, 10).is_ok());
        assert!(check_latency(1, 9, 10).is_err());
        assert!(check_conservation(10, 7, 3).is_ok());
        assert!(check_conservation(10, 7, 2).is_err());
    }

    #[test]
    fn audit_oracle_rejects_a_spread_above_one() {
        let ok = AuditVerdict {
            errors: &[],
            max_spread: 1,
            phases_checked: 3,
            phases_incomplete: 0,
        };
        assert!(check_audit("r", &ok, 3).is_ok());
        let wide = AuditVerdict {
            max_spread: 2,
            ..ok
        };
        assert!(check_audit("r", &wide, 3).is_err());
        let lost = ["lost a task".to_string()];
        let failed = AuditVerdict {
            errors: &lost,
            ..ok
        };
        assert!(check_audit("r", &failed, 3).is_err());
    }

    #[test]
    fn audit_oracle_rejects_an_audit_that_saw_no_phases() {
        let empty = AuditReport::default();
        assert!(check_audit("r", &AuditVerdict::of(&empty), 0).is_ok());
        assert!(check_audit("r", &AuditVerdict::of(&empty), 5).is_err());
        let partial = AuditReport {
            phases_checked: 5,
            phases_incomplete: 1,
            ..AuditReport::default()
        };
        assert!(check_audit("r", &AuditVerdict::of(&partial), 5).is_err());
        let serve = ServeAuditReport::default();
        assert!(check_audit("serve", &AuditVerdict::of_serve(&serve), 1).is_err());
    }
}
