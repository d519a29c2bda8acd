//! The benchmark's workloads, each a [`ShardedScenario`] built from the
//! workload seed. The reasons for each choice are in `perfbench/README.md`.

use agreement::harness::ShardedScenario;
use agreement::sharded::{GroupMode, WorkloadSpec};
use simnet::{DelayModel, RdmaCost};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CrashOpenloop,
    CrashPacedFailover,
    ByzPipelined,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CrashOpenloop,
        Workload::CrashPacedFailover,
        Workload::ByzPipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrashOpenloop => "crash_openloop",
            Workload::CrashPacedFailover => "crash_paced_failover",
            Workload::ByzPipelined => "byz_pipelined",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CrashOpenloop => 1,
            Workload::CrashPacedFailover => 13,
            Workload::ByzPipelined => 5,
        }
    }

    /// Client commands of the full-size workload.
    pub fn full_cmds(self) -> usize {
        match self {
            Workload::CrashOpenloop => 100_000,
            Workload::CrashPacedFailover => 60_000,
            Workload::ByzPipelined => 3_000,
        }
    }

    /// The full-size scenario for `seed`.
    pub fn scenario(self, seed: u64) -> ShardedScenario {
        self.scenario_sized(seed, self.full_cmds())
    }

    /// The workload's scenario at `total_cmds` commands (the self-tests run
    /// small versions). Everything that scales with the run — the virtual
    /// time budget, the crash time — scales with `total_cmds`.
    pub fn scenario_sized(self, seed: u64, total_cmds: usize) -> ShardedScenario {
        let cmds = total_cmds as u64;
        match self {
            Workload::CrashOpenloop => {
                let mut sc = ShardedScenario::common_case(4, 3, 3, seed);
                sc.total_cmds = total_cmds;
                sc.workload = WorkloadSpec::Uniform { keys: 65_536 };
                sc.delay = DelayModel::synchronous();
                sc.window = 0;
                sc.batch = 32;
                // Two delays per 32-entry batch per group: an even split
                // drains in cmds / 64 delays; the budget allows 16 times that.
                sc.max_delays = cmds / 4 + 1_000;
                sc
            }
            Workload::CrashPacedFailover => {
                let mut sc = ShardedScenario::common_case(8, 3, 3, seed);
                sc.total_cmds = total_cmds;
                sc.workload = WorkloadSpec::Zipf {
                    keys: 4_096,
                    s: 0.99,
                };
                sc.delay = DelayModel::Rdma(RdmaCost::write_optimized());
                sc.window = 64;
                sc.batch = 1;
                sc.adaptive_batch = 16;
                sc.arrival_rate_per_delay = ARRIVALS_PER_DELAY;
                // The last arrival is due at `arrival_span`; group 1's
                // leader crashes at 80% of it, Ω names replica 1 two
                // delays later.
                let arrival_span = (cmds as f64 / ARRIVALS_PER_DELAY) as u64;
                let crash_at = arrival_span * 4 / 5;
                sc.crash_leaders = vec![(1, crash_at)];
                sc.announce = vec![(1, 1, crash_at + 2)];
                sc.max_delays = arrival_span + 10_000;
                sc
            }
            Workload::ByzPipelined => {
                let mut sc = ShardedScenario::common_case(4, 3, 3, seed);
                sc.total_cmds = total_cmds;
                sc.workload = WorkloadSpec::uniform();
                sc.delay = DelayModel::synchronous();
                sc.group_modes = vec![GroupMode::Byzantine; 4];
                sc.batch = 8;
                sc.window = 64;
                sc.byz_pipeline_window = 8;
                sc.byz_fast_path = true;
                sc.max_delays = 2 * cmds + 10_000;
                sc
            }
        }
    }
}

/// Offered load of `crash_paced_failover`, in commands per delay: about
/// half the 32.5 commands per delay the eight groups drain.
pub const ARRIVALS_PER_DELAY: f64 = 16.0;

/// The group whose leader `crash_paced_failover` crashes (its commit gap is
/// `failover_stall_delays` on every workload).
pub const STALL_GROUP: usize = 1;
