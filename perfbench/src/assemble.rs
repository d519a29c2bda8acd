//! The traced deployment: the same service `harness::run_sharded` builds
//! for a scenario, assembled from the public constructors with every actor
//! wrapped in a [`Timed`] shim.
//!
//! Covers what the benchmark's workloads use: the monolithic kernel
//! (`partitions = 1`), static hash routing, crash-mode and Byzantine
//! groups, paced arrivals, scripted leader crashes and Ω announcements —
//! no adversaries, no range routing. The self-tests and every traced run
//! check the outcome against the harness's report.

use std::collections::BTreeMap;

use agreement::harness::ShardedScenario;
use agreement::protected;
use agreement::sharded::{self, GroupMode, GroupTopology, RouterActor};
use agreement::smr::{byz_memory_actor, ByzSmrNode, SmrNode};
use agreement::{Msg, Value};
use sigsim::SigAuthority;
use simnet::obs::Event;
use simnet::{ActorId, Duration, Metrics, RunOutcome, Simulation, Time, TICKS_PER_DELAY};

use crate::layers::{Layer, Timed};

/// A built, not yet started deployment.
pub struct Deployment {
    sim: Simulation<Msg>,
    scenario: ShardedScenario,
    topo: GroupTopology,
    router: ActorId,
    /// The signing authority of a deployment with Byzantine groups.
    pub auth: Option<SigAuthority>,
}

/// What a finished deployment produced: the fields the harness report
/// shares with it.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub elapsed_delays: f64,
    pub committed: usize,
    pub total_entries: usize,
    pub duplicates_suppressed: u64,
    pub group_logs: Vec<Vec<Value>>,
    pub metrics: Metrics,
}

/// Builds `scenario`'s deployment, every actor wrapped in its layer's shim.
pub fn assemble(scenario: &ShardedScenario) -> Deployment {
    assert!(
        scenario.partitions <= 1 && !scenario.dynamic_routing(),
        "the traced assembly covers the monolithic kernel with static routing"
    );
    assert!(
        scenario.byz_silent.is_empty()
            && scenario.byz_equivocators.is_empty()
            && scenario.byz_receipt_forgers.is_empty(),
        "the traced assembly builds no adversaries"
    );
    let topo = scenario.topology();
    let workload = sharded::partition(
        &scenario.workload,
        scenario.seed,
        scenario.total_cmds,
        scenario.groups,
    );
    let mut sim: Simulation<Msg> = Simulation::new(scenario.seed);
    sim.set_default_delay(scenario.delay.clone());

    // One authority per run, every Byzantine-group replica registered in
    // id order, seeded as the harness seeds it.
    let mut auth = scenario
        .has_byzantine()
        .then(|| SigAuthority::new(scenario.seed ^ 0xB12A));
    let mut signers = BTreeMap::new();
    if let Some(auth) = auth.as_mut() {
        for g in (0..scenario.groups).filter(|&g| scenario.mode_of(g) == GroupMode::Byzantine) {
            for p in topo.procs(g) {
                signers.insert(p, auth.register(p));
            }
        }
    }

    for g in 0..scenario.groups {
        let procs = topo.procs(g);
        let mems = topo.mems(g);
        let leader = topo.initial_leader(g);
        for (i, &me) in procs.iter().enumerate() {
            // Open loop preloads the whole backlog into the initial leader.
            let preload = if scenario.window == 0 && i == 0 {
                workload.backlogs[g].clone()
            } else {
                Vec::new()
            };
            let id = match scenario.mode_of(g) {
                GroupMode::CrashPmp => {
                    let f_m = (scenario.m.max(1) - 1) / 2;
                    let mut node = SmrNode::new(
                        me,
                        procs.clone(),
                        mems.clone(),
                        leader,
                        preload,
                        f_m,
                        Duration::from_delays(20),
                    )
                    .with_batch(scenario.batch)
                    .with_observer(topo.router());
                    if scenario.adaptive_batch > 0 {
                        node = node.with_adaptive_batch(scenario.adaptive_batch);
                    }
                    if !scenario.disable_session_dedup {
                        node = node.with_session_dedup();
                    }
                    sim.add(Timed::new(Layer::Smr, node))
                }
                GroupMode::Byzantine => {
                    let auth = auth.as_ref().expect("Byzantine group without an authority");
                    let mut node = ByzSmrNode::new(
                        me,
                        procs.clone(),
                        mems.clone(),
                        leader,
                        preload,
                        signers[&me].clone(),
                        auth.verifier(),
                        Duration::from_delays(1),
                    )
                    .with_batch(scenario.batch)
                    .with_pipeline_window(scenario.byz_pipeline_window)
                    .with_fast_path(scenario.byz_fast_path)
                    .with_observer(topo.router());
                    if !scenario.disable_session_dedup {
                        node = node.with_session_dedup();
                    }
                    sim.add(Timed::new(Layer::SmrByz, node))
                }
            };
            assert_eq!(id, me);
        }
        for &mem in &mems {
            let actor = match scenario.mode_of(g) {
                GroupMode::CrashPmp => protected::memory_actor(leader),
                GroupMode::Byzantine => byz_memory_actor(&procs),
            };
            assert_eq!(sim.add(Timed::new(Layer::RdmaSim, actor)), mem);
        }
    }

    let mut router = RouterActor::new(topo, workload, scenario.window);
    if scenario.has_byzantine() {
        router = router.with_group_modes(scenario.group_modes.clone(), scenario.n);
        if scenario.byz_fast_path {
            router = router.with_byz_fast_path();
        }
    }
    if scenario.arrival_rate_per_delay > 0.0 {
        let interval = (TICKS_PER_DELAY as f64 / scenario.arrival_rate_per_delay)
            .round()
            .max(1.0) as u64;
        router = router.with_paced_arrivals(interval);
    }
    let router = sim.add(Timed::new(Layer::Sharded, router));
    assert_eq!(router, topo.router(), "router must be the last actor");

    for &(g, t) in &scenario.crash_leaders {
        sim.crash_at(topo.initial_leader(g), Time::from_delays(t));
    }
    for &(g, i, t) in &scenario.announce {
        let mut targets = topo.procs(g);
        targets.push(topo.router());
        sim.announce_leader(Time::from_delays(t), &targets, topo.procs(g)[i]);
    }
    Deployment {
        sim,
        scenario: scenario.clone(),
        topo,
        router,
        auth,
    }
}

impl Deployment {
    /// Records typed observability events from the first dispatch on.
    pub fn enable_obs(&mut self) {
        self.sim.enable_obs();
    }

    /// Runs to completion (or the budget), as the harness does, handing
    /// recorded events to `drain` every `chunk_delays` of virtual time so a
    /// recording run never holds the whole stream. Stopping at a chunk
    /// boundary and resuming dispatches exactly the events one call would.
    pub fn run(&mut self, chunk_delays: u64, mut drain: impl FnMut(Vec<Event>)) {
        let deadline = Time::from_delays(self.scenario.max_delays);
        let router = self.router;
        let mut until = Time::ZERO;
        loop {
            until = Time(until.0 + chunk_delays * TICKS_PER_DELAY).min(deadline);
            let outcome = self.sim.run_until(until, |s| {
                s.actor_as::<Timed<RouterActor>>(router)
                    .is_some_and(|r| r.inner.done())
            });
            drain(self.sim.take_obs_events());
            if !matches!(outcome, RunOutcome::TimeLimit) || until >= deadline {
                return;
            }
        }
    }

    /// The router, for its commit observations.
    fn router(&self) -> &RouterActor {
        &self
            .sim
            .actor_as::<Timed<RouterActor>>(self.router)
            .expect("router exists")
            .inner
    }

    /// Reduces the finished run to the fields shared with the harness
    /// report. Each group's log is its longest replica log.
    pub fn outcome(&self) -> Outcome {
        let mut duplicates_suppressed = 0;
        let mut group_logs = Vec::with_capacity(self.scenario.groups);
        for g in 0..self.scenario.groups {
            let mut longest: Vec<Value> = Vec::new();
            for p in self.topo.procs(g) {
                let (log, dups) = match self.scenario.mode_of(g) {
                    GroupMode::CrashPmp => self
                        .sim
                        .actor_as::<Timed<SmrNode>>(p)
                        .map(|n| (n.inner.log(), n.inner.duplicates_suppressed())),
                    GroupMode::Byzantine => self
                        .sim
                        .actor_as::<Timed<ByzSmrNode>>(p)
                        .map(|n| (n.inner.log(), n.inner.duplicates_suppressed())),
                }
                .unwrap_or_default();
                duplicates_suppressed += dups;
                if log.len() > longest.len() {
                    longest = log;
                }
            }
            group_logs.push(longest);
        }
        Outcome {
            elapsed_delays: self.sim.now().as_delays(),
            committed: self.router().committed_total(),
            total_entries: group_logs.iter().map(Vec::len).sum(),
            duplicates_suppressed,
            group_logs,
            metrics: self.sim.metrics().clone(),
        }
    }
}
