//! The untraced (end-to-end) and traced (per-layer) measurements.

use std::time::Instant;

use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use agreement::sharded::metrics::percentile_sorted_ticks;
use simnet::TICKS_PER_DELAY;

use crate::assemble::{assemble, Outcome};
use crate::checks::{equivalence_failures, run_failures};
use crate::layers::{Layer, LayerUsage, Recording, LAYERS};
use crate::report::{fastest, median, peak_rss_mb, ratio, Metric, RunResult};
use crate::spans::{SpanTable, TRANSITIONS};
use crate::workloads::STALL_GROUP;

/// Set-ups timed after each untraced repeat (`setup_s` is their median).
const SETUPS_PER_RUN: usize = 3;
/// Fewest measured repeats, however long one takes: untraced runs, and
/// traced/untraced pairs (two traced runs to compare allocations).
const MIN_RUNS: usize = 3;
const MIN_PAIRS: usize = 2;
/// Virtual time between event drains of a recording run, in delays.
const SPAN_CHUNK_DELAYS: u64 = 500;

fn delays(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_DELAY as f64
}

/// Whether another repeat of about `per_run` seconds still fits in the
/// `seconds` budget that began at `start` (`done` of at least `min` so far).
fn another_fits(start: Instant, seconds: f64, done: usize, min: usize, per_run: f64) -> bool {
    done < min || start.elapsed().as_secs_f64() + per_run <= seconds
}

/// Runs `sc` through the harness for about `seconds`, checking every run,
/// and reports the end-to-end metrics.
pub fn untraced(sc: &ShardedScenario, seconds: f64) -> RunResult {
    let start = Instant::now();
    let total = sc.total_cmds as u64;
    let mut out = RunResult::default();
    let mut first: Option<ShardedRunReport> = None;
    let mut walls = Vec::new();
    let mut rss_mb = 0.0;
    let mut setups = Vec::new();
    let mut iterations = Vec::new();
    while another_fits(
        start,
        seconds,
        walls.len(),
        MIN_RUNS,
        median_or_zero(&iterations),
    ) {
        let t = Instant::now();
        let r = run_sharded(sc);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += total;
        let failures = run_failures(sc, &r, first.as_ref());
        out.failed += if failures.is_empty() {
            total - r.committed as u64
        } else {
            total
        };
        out.failures.extend(failures);
        walls.push(wall);
        if first.is_none() {
            // The first run is the only workload run in the process yet.
            rss_mb = peak_rss_mb();
            first = Some(r);
        }
        // Set-up: building the deployment, up to the first dispatch. A few
        // after every repeat, so they sample the whole measuring window.
        for _ in 0..SETUPS_PER_RUN {
            let t = Instant::now();
            let d = assemble(sc);
            setups.push(t.elapsed().as_secs_f64());
            drop(d);
        }
        iterations.push(t.elapsed().as_secs_f64());
    }
    let r = first.expect("at least one run");
    let best = fastest(&walls);
    out.metrics = vec![
        Metric::new("wall_cmds_per_s", r.committed as f64 / best, "cmd/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("cmds_per_delay", r.committed_per_delay, "cmd/delay"),
        Metric::new(
            "commit_p50_delays",
            delays(r.service_p50_latency_ticks),
            "delays",
        ),
        Metric::new(
            "commit_p99_delays",
            delays(r.service_p99_latency_ticks),
            "delays",
        ),
        Metric::new(
            "failover_stall_delays",
            delays(r.groups[STALL_GROUP].max_commit_gap_ticks),
            "delays",
        ),
        Metric::new(
            "committed_frac",
            ratio((out.attempted - out.failed) as f64, out.attempted as f64),
            "fraction",
        ),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
    ];
    println!(
        "# {} runs of {total} commands: fastest {best:.4} s, median {:.4} s; {} set-ups",
        walls.len(),
        median(&walls),
        setups.len()
    );
    out
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// One traced run: the wrapped assembly's outcome and per-layer usage.
struct TracedRun {
    /// Wall seconds of set-up, run and reduction.
    total_s: f64,
    /// Wall seconds of the run phase the layers account for.
    run_s: f64,
    usage: [LayerUsage; LAYERS],
    outcome: Outcome,
    sigs: u64,
    verifies: u64,
}

fn traced_run(sc: &ShardedScenario) -> TracedRun {
    let t = Instant::now();
    let mut d = assemble(sc);
    let rec = Recording::start();
    d.run(sc.max_delays, |_| {});
    let (run_s, usage) = rec.stop();
    let outcome = d.outcome();
    let total_s = t.elapsed().as_secs_f64();
    let (sigs, verifies) = d
        .auth
        .as_ref()
        .map_or((0, 0), |a| (a.signatures_created(), a.verifications()));
    TracedRun {
        total_s,
        run_s,
        usage,
        outcome,
        sigs,
        verifies,
    }
}

/// Alternates harness runs and traced runs of `sc` for about `seconds`,
/// checks that tracing changed nothing, and reports the per-layer metrics.
pub fn traced(sc: &ShardedScenario, seconds: f64) -> RunResult {
    let start = Instant::now();
    let total = sc.total_cmds as u64;
    let mut out = RunResult::default();
    let mut first: Option<ShardedRunReport> = None;
    let mut plain_walls = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut pair_s = Vec::new();
    while another_fits(
        start,
        seconds,
        runs.len(),
        MIN_PAIRS,
        median_or_zero(&pair_s),
    ) {
        // Alternate which goes first, so neither inherits the other's
        // freed memory more often.
        let t = Instant::now();
        let traced_first = runs.len() % 2 == 1;
        let early = traced_first.then(|| traced_run(sc));
        let t_plain = Instant::now();
        let r = run_sharded(sc);
        plain_walls.push(t_plain.elapsed().as_secs_f64());
        let run = early.unwrap_or_else(|| traced_run(sc));
        pair_s.push(t.elapsed().as_secs_f64());
        out.attempted += total;
        let mut failures = run_failures(sc, &r, first.as_ref());
        failures.extend(equivalence_failures(&run.outcome, &r));
        // The kernel's share is the residual: negative means the handler
        // times do not fit inside the traced wall time.
        if run.usage[Layer::Simnet as usize].busy_s < 0.0 {
            failures.push("layer busy times exceed the traced wall time".into());
        }
        if let Some(prev) = runs.last() {
            let allocs = |r: &TracedRun| r.usage.map(|u| u.allocs);
            if allocs(prev) != allocs(&run) {
                failures.push(format!(
                    "per-layer allocations differ between traced runs: {:?} vs {:?}",
                    allocs(prev),
                    allocs(&run)
                ));
            }
        }
        out.failed += if failures.is_empty() { 0 } else { total };
        out.failures.extend(failures);
        first.get_or_insert(r);
        runs.push(run);
    }
    let r = first.expect("at least one run");
    println!(
        "# {} traced and {} untraced runs of {total} commands",
        runs.len(),
        plain_walls.len()
    );

    // The recording run: span marks only, its wall time never read.
    let mut d = assemble(sc);
    d.enable_obs();
    let mut table = SpanTable::new(sc.total_cmds);
    d.run(SPAN_CHUNK_DELAYS, |events| table.absorb(&events));
    out.failures.extend(
        equivalence_failures(&d.outcome(), &r)
            .into_iter()
            .map(|f| format!("recording run: {f}")),
    );
    drop(d);

    out.metrics = layer_metrics(&runs, &plain_walls, r.committed as f64);
    let o = &runs[0].outcome;
    let cmds = r.committed as f64;
    let m = &o.metrics;
    let per_cmd = |x: u64| ratio(x as f64, cmds);
    out.metrics.extend([
        Metric::new(
            "simnet.events_per_cmd",
            per_cmd(m.events_dispatched),
            "1/cmd",
        ),
        Metric::new("simnet.msgs_per_cmd", per_cmd(m.messages_sent), "1/cmd"),
        Metric::new("simnet.timers_per_cmd", per_cmd(m.timers_fired), "1/cmd"),
        Metric::new("simnet.peak_queue_len", m.peak_queue_len as f64, "count"),
        Metric::new("rdma-sim.writes_per_cmd", per_cmd(m.mem_writes), "1/cmd"),
        Metric::new("rdma-sim.reads_per_cmd", per_cmd(m.mem_reads), "1/cmd"),
        Metric::new(
            "rdma-sim.range_reads_per_cmd",
            per_cmd(m.mem_range_reads),
            "1/cmd",
        ),
        Metric::new(
            "rdma-sim.perm_changes_per_cmd",
            per_cmd(m.perm_changes),
            "1/cmd",
        ),
        Metric::new(
            "smr.log_entries_per_cmd",
            per_cmd(o.total_entries as u64),
            "1/cmd",
        ),
        Metric::new(
            "smr.dups_suppressed",
            r.duplicates_suppressed as f64,
            "count",
        ),
        Metric::new("smr-byz.sigs_per_cmd", per_cmd(runs[0].sigs), "1/cmd"),
        Metric::new(
            "smr-byz.verifies_per_cmd",
            per_cmd(runs[0].verifies),
            "1/cmd",
        ),
        Metric::new("smr-byz.fast_commits", r.byz_fast_commits as f64, "count"),
        Metric::new("sharded.rerouted_cmds", r.rerouted_commands as f64, "count"),
    ]);
    for (t, ticks) in table.pooled().iter().enumerate() {
        let stage = TRANSITIONS[t].2;
        for (p, label) in [(50.0, "p50"), (99.0, "p99")] {
            out.metrics.push(Metric::new(
                format!("spans.{stage}_{label}_delays"),
                delays(percentile_sorted_ticks(ticks, p)),
                "delays",
            ));
        }
    }
    out
}

/// The wall-time and allocation metrics of each layer, per committed
/// command. Wall times come from the fastest traced run (the one least
/// slowed by other load on the machine); counts repeat exactly.
fn layer_metrics(runs: &[TracedRun], plain_walls: &[f64], cmds: f64) -> Vec<Metric> {
    let best = runs
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("at least one traced run");
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let u = best.usage[layer as usize];
        let name = layer.name();
        let us_per_cmd = ratio(u.busy_s * 1e6, cmds);
        let share = ratio(u.busy_s, best.run_s);
        if layer == Layer::Simnet {
            out.push(Metric::new(
                format!("{name}.self_us_per_cmd"),
                us_per_cmd,
                "us/cmd",
            ));
            out.push(Metric::new(format!("{name}.self_share"), share, "fraction"));
        } else {
            let calls = u.calls as f64;
            out.push(Metric::new(
                format!("{name}.busy_us_per_cmd"),
                us_per_cmd,
                "us/cmd",
            ));
            out.push(Metric::new(format!("{name}.busy_share"), share, "fraction"));
            out.push(Metric::new(
                format!("{name}.calls_per_cmd"),
                ratio(calls, cmds),
                "1/cmd",
            ));
            out.push(Metric::new(
                format!("{name}.us_per_call"),
                ratio(u.busy_s * 1e6, calls),
                "us",
            ));
        }
        out.push(Metric::new(
            format!("{name}.allocs_per_cmd"),
            ratio(u.allocs as f64, cmds),
            "1/cmd",
        ));
    }
    let traced: Vec<f64> = runs.iter().map(|r| r.total_s).collect();
    out.push(Metric::new(
        "trace.overhead",
        fastest(&traced) / fastest(plain_walls),
        "ratio",
    ));
    out
}
