//! Self-tests on small versions of each workload:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use agreement::harness::{run_sharded, run_sharded_with_events, ShardedScenario};
use agreement::spans::LatencyHistogram;

use crate::assemble::assemble;
use crate::checks::{equivalence_failures, run_failures};
use crate::layers::{Layer, Recording};
use crate::measure;
use crate::report::valid_name;
use crate::spans::{SpanTable, TRANSITIONS};
use crate::workloads::Workload;

/// Each workload at a size that runs in well under a second.
fn small(w: Workload, seed: u64) -> ShardedScenario {
    let cmds = match w {
        Workload::CrashOpenloop => 3_000,
        Workload::CrashPacedFailover => 4_000,
        Workload::ByzPipelined => 400,
    };
    w.scenario_sized(seed, cmds)
}

fn small_all() -> Vec<ShardedScenario> {
    Workload::ALL
        .iter()
        .map(|&w| small(w, w.default_seed()))
        .collect()
}

#[test]
fn the_shim_is_transparent() {
    for sc in small_all() {
        let r = run_sharded(&sc);
        assert_eq!(run_failures(&sc, &r, None), Vec::<String>::new());
        let mut d = assemble(&sc);
        d.run(sc.max_delays, |_| {});
        assert_eq!(equivalence_failures(&d.outcome(), &r), Vec::<String>::new());
    }
}

#[test]
fn the_small_failover_still_fails_over() {
    let sc = small(Workload::CrashPacedFailover, 13);
    let r = run_sharded(&sc);
    let stall = r.groups[1].max_commit_gap_ticks;
    assert!(
        r.groups
            .iter()
            .enumerate()
            .all(|(g, report)| g == 1 || report.max_commit_gap_ticks < stall),
        "the crashed group's stall is not the longest: {r:?}"
    );
}

#[test]
fn chunked_span_reduction_matches_the_harness() {
    for mut sc in small_all() {
        let mut d = assemble(&sc);
        d.enable_obs();
        let mut table = SpanTable::new(sc.total_cmds);
        // Small chunks: many stops and resumes.
        d.run(7, |events| table.absorb(&events));
        sc.record_spans = true;
        let (r, _) = run_sharded_with_events(&sc);
        assert_eq!(equivalence_failures(&d.outcome(), &r), Vec::<String>::new());
        for (g, stats) in r.span_stats.iter().enumerate() {
            for (t, &(_, _, name)) in TRANSITIONS.iter().enumerate() {
                let mut mine = LatencyHistogram::new();
                table
                    .durations()
                    .filter(|&(group, tt, _)| group == g as u64 && tt == t)
                    .for_each(|(_, _, ticks)| mine.record(ticks));
                assert_eq!(Some(&mine), stats.stage(name), "group {g} stage {name}");
            }
        }
    }
}

#[test]
fn allocation_counts_repeat_and_layer_times_add_up() {
    for sc in small_all() {
        let traced = || {
            let mut d = assemble(&sc);
            let rec = Recording::start();
            d.run(sc.max_delays, |_| {});
            rec.stop()
        };
        let (wall, first) = traced();
        let (_, second) = traced();
        assert_eq!(first.map(|u| u.allocs), second.map(|u| u.allocs));
        assert_eq!(first.map(|u| u.calls), second.map(|u| u.calls));
        assert!(first[Layer::RdmaSim as usize].calls > 0);
        assert!(first[Layer::Sharded as usize].allocs > 0);
        let sum: f64 = first.iter().map(|u| u.busy_s).sum();
        assert!(first[Layer::Simnet as usize].busy_s >= 0.0);
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{sum} != {wall}"
        );
    }
}

/// The metric names `BENCHMARK.json` declares in the section after `key`.
fn declared(key: &str) -> Vec<String> {
    let spec = include_str!("../../BENCHMARK.json");
    let start = spec.find(&format!("\"{key}\"")).expect("section present");
    let section = &spec[start..];
    let end = section[1..]
        .find("\"per_layer\"")
        .map_or(section.len(), |e| e + 1);
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    for sc in small_all() {
        let untraced = measure::untraced(&sc, 0.0);
        let traced = measure::traced(&sc, 0.0);
        assert_eq!(untraced.failures, Vec::<String>::new());
        assert_eq!(traced.failures, Vec::<String>::new());
        for (result, key) in [(&untraced, "end_to_end"), (&traced, "per_layer")] {
            let mut names: Vec<String> = result.metrics.iter().map(|m| m.name.clone()).collect();
            assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
            let mut expected = declared(key);
            names.sort();
            expected.sort();
            assert_eq!(names, expected);
        }
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            untraced.metrics
        );
    }
}

#[test]
fn a_second_seed_passes_every_check() {
    for w in Workload::ALL {
        let sc = small(w, w.default_seed() + 1000);
        let result = measure::untraced(&sc, 0.0);
        assert_eq!(result.failures, Vec::<String>::new(), "{}", w.name());
        assert_eq!(result.failed, 0);
    }
}
