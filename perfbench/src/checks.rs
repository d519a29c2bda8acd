//! Output checks every measured run must pass.

use agreement::harness::{ShardedRunReport, ShardedScenario};
use agreement::Value;

use crate::assemble::Outcome;

/// The checks one harness run must pass; returns the failures.
/// `first` is the workload's first run in this process: a repeat must
/// reproduce it exactly.
pub fn run_failures(
    sc: &ShardedScenario,
    r: &ShardedRunReport,
    first: Option<&ShardedRunReport>,
) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failed.push(what.to_string());
        }
    };
    check(r.all_committed, "not every command committed");
    check(r.all_logs_agree, "replica logs disagree");
    check(
        r.no_cross_group_leak,
        "a command committed outside its group",
    );
    for (g, group) in r.groups.iter().enumerate() {
        check(
            ids_unique(&group.log, sc.total_cmds),
            &format!("group {g}'s log holds a command id twice"),
        );
    }
    if sc.has_byzantine() {
        check(
            r.equivocations_blocked == 0,
            "equivocations blocked in a clean run",
        );
        check(
            r.byz_receipts_rejected == 0,
            "receipts rejected in a clean run",
        );
        check(
            r.byz_unconfirmed_claims == 0,
            "unconfirmed claims in a clean run",
        );
    }
    if let Some(first) = first {
        check(r == first, "a repeat differs from the first run");
    }
    failed
}

/// Whether every client command id (`1..=total`) appears at most once in
/// `log` (no-op fillers and control entries are not client commands).
fn ids_unique(log: &[Value], total: usize) -> bool {
    let mut seen = vec![false; total + 1];
    for v in log {
        let id = v.0 as usize;
        if (1..=total).contains(&id) {
            if seen[id] {
                return false;
            }
            seen[id] = true;
        }
    }
    true
}

/// Where the traced assembly's outcome departs from the harness report of
/// the same scenario (empty: the shim was transparent).
pub fn equivalence_failures(o: &Outcome, r: &ShardedRunReport) -> Vec<String> {
    let pairs = [
        (
            "events",
            o.metrics.events_dispatched as f64,
            r.events_dispatched as f64,
        ),
        (
            "messages",
            o.metrics.messages_sent as f64,
            r.messages as f64,
        ),
        ("mem ops", o.metrics.mem_ops() as f64, r.mem_ops as f64),
        ("elapsed delays", o.elapsed_delays, r.elapsed_delays),
        ("commits", o.committed as f64, r.committed as f64),
        (
            "log entries",
            o.total_entries as f64,
            r.total_entries as f64,
        ),
        (
            "duplicates suppressed",
            o.duplicates_suppressed as f64,
            r.duplicates_suppressed as f64,
        ),
    ];
    let mut failed: Vec<String> = pairs
        .iter()
        .filter(|(_, traced, plain)| traced != plain)
        .map(|(what, traced, plain)| format!("traced {what} {traced} != harness {plain}"))
        .collect();
    for (g, group) in r.groups.iter().enumerate() {
        if o.group_logs.get(g) != Some(&group.log) {
            failed.push(format!("traced group {g} log differs from the harness's"));
        }
    }
    failed
}
