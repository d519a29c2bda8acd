//! Experiment E8 — Lemma 4.1: the three properties of non-equivocating
//! broadcast, under honest broadcasters, an equivocating Byzantine
//! broadcaster, memory crashes, and randomized schedules (proptest).

use agreement::adversary::NebEquivocator;
use agreement::harness::ShardedScenario;
use agreement::nebcast::{self, NebEngine};
use agreement::paxos::Dest;
use agreement::sharded::{self, GroupMode, RouterActor};
use agreement::smr::{byz_memory_actor, ByzSmrNode};
use agreement::trusted::{RbPayload, SetupEvidence, TWire};
use agreement::types::{Msg, Pid, RegVal, Value};
use proptest::prelude::*;
use rdma_sim::{LegalChange, MemResponse, MemWire, MemoryActor, MemoryClient};
use sigsim::{SigAuthority, SigVerifier, Signer};
use simnet::{Actor, ActorId, Context, DelayModel, Duration, EventKind, Simulation, Time};

/// A minimal honest participant: broadcasts a scripted list of values and
/// records everything it delivers.
struct NebTester {
    engine: NebEngine,
    client: MemoryClient<RegVal, Msg>,
    to_broadcast: Vec<Value>,
    delivered: Vec<(Pid, u64, Value)>,
}

impl NebTester {
    fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        signer: Signer,
        verifier: SigVerifier,
        to_broadcast: Vec<Value>,
    ) -> NebTester {
        NebTester {
            engine: NebEngine::new(me, procs, mems, signer, verifier),
            client: MemoryClient::new(),
            to_broadcast,
            delivered: Vec::new(),
        }
    }

    fn drain(&mut self) {
        for d in self.engine.take_deliveries() {
            if let RbPayload::Setup { value, .. } = d.slot.wire.payload {
                self.delivered.push((d.from, d.slot.k, value));
            }
        }
    }
}

impl Actor<Msg> for NebTester {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                for v in self.to_broadcast.clone() {
                    let wire = TWire {
                        dest: Dest::All,
                        payload: RbPayload::Setup {
                            value: v,
                            evidence: SetupEvidence::default(),
                        },
                        history: Vec::new(),
                    };
                    self.engine.broadcast(ctx, &mut self.client, wire);
                }
                self.engine.poll(ctx, &mut self.client);
                ctx.set_timer(Duration::from_delays(1), 0);
            }
            EventKind::Timer { .. } => {
                self.engine.poll(ctx, &mut self.client);
                self.drain();
                ctx.set_timer(Duration::from_delays(1), 0);
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = self.client.on_wire(ctx, from, wire) {
                    self.engine.on_completion(ctx, &mut self.client, c);
                    self.drain();
                }
            }
            _ => {}
        }
    }
}

fn neb_memory(procs: &[Pid]) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    nebcast::configure_memory(&mut mem, procs);
    mem
}

/// Property 1: a correct broadcaster's messages are delivered by every
/// correct process, in sequence order.
#[test]
fn property_one_correct_broadcasts_reach_everyone() {
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(5);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(1);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        let vals: Vec<Value> = (0..4).map(|k| Value(100 * i as u64 + k)).collect();
        sim.add(NebTester::new(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            signer,
            auth.verifier(),
            vals,
        ));
    }
    for _ in 0..m {
        sim.add(neb_memory(&procs));
    }
    sim.run_until(Time::from_delays(400), |s| {
        (0..n).all(|i| s.actor_as::<NebTester>(ActorId(i)).unwrap().delivered.len() >= 12)
    });
    for i in 0..n {
        let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
        assert_eq!(
            t.delivered.len(),
            12,
            "process {i} delivered {:?}",
            t.delivered
        );
        // Per-sender sequence order.
        for q in 0..n {
            let ks: Vec<u64> = t
                .delivered
                .iter()
                .filter(|(f, _, _)| *f == ActorId(q))
                .map(|(_, k, _)| *k)
                .collect();
            assert_eq!(ks, vec![1, 2, 3, 4], "process {i} from {q}");
        }
    }
}

/// Property 3: deliveries only happen for values the sender actually
/// broadcast (nobody can inject into another's row: permissions).
#[test]
fn property_three_no_spoofed_deliveries() {
    let (n, m) = (2u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(9);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(2);
    let s0 = auth.register(ActorId(0));
    let _s1 = auth.register(ActorId(1));
    sim.add(NebTester::new(
        ActorId(0),
        procs.clone(),
        mems.clone(),
        s0,
        auth.verifier(),
        vec![Value(7)],
    ));
    // Process 1 broadcasts nothing; it only listens.
    sim.add(NebTester::new(
        ActorId(1),
        procs.clone(),
        mems.clone(),
        _s1,
        auth.verifier(),
        vec![],
    ));
    for _ in 0..m {
        sim.add(neb_memory(&procs));
    }
    sim.run_until(Time::from_delays(100), |s| {
        !s.actor_as::<NebTester>(ActorId(1))
            .unwrap()
            .delivered
            .is_empty()
    });
    let t1 = sim.actor_as::<NebTester>(ActorId(1)).unwrap();
    assert_eq!(t1.delivered, vec![(ActorId(0), 1, Value(7))]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 2 under attack: an equivocator split-writes two signed
    /// values across replicas; no two correct processes may ever deliver
    /// different values for the same (sender, k) — under any seed, split
    /// point, and link jitter.
    #[test]
    fn property_two_no_divergent_deliveries(
        seed in 0u64..1000,
        split in 1usize..3,
        jitter in 1u64..4,
    ) {
        let (n, m) = (3u32, 3u32);
        let mut sim: Simulation<Msg> = Simulation::new(seed);
        sim.set_default_delay(DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(jitter),
        });
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        let mut auth = SigAuthority::new(seed ^ 0xE0);
        let byz_signer = auth.register(ActorId(0));
        // Process 0 is the equivocator; 1 and 2 are honest listeners.
        sim.add(NebEquivocator::new(
            ActorId(0),
            mems.clone(),
            split,
            Value(111),
            Value(222),
            byz_signer,
        ));
        for i in 1..n {
            let signer = auth.register(ActorId(i));
            sim.add(NebTester::new(
                ActorId(i),
                procs.clone(),
                mems.clone(),
                signer,
                auth.verifier(),
                vec![],
            ));
        }
        for _ in 0..m {
            sim.add(neb_memory(&procs));
        }
        sim.run_to_quiescence(Time::from_delays(150));
        // Collect what the two honest processes delivered from the
        // equivocator at k = 1.
        let mut seen = Vec::new();
        for i in 1..n {
            let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
            for (f, k, v) in &t.delivered {
                if *f == ActorId(0) && *k == 1 {
                    seen.push(*v);
                }
            }
        }
        // Lemma 4.1 property 2: all deliveries (if any) agree.
        prop_assert!(seen.windows(2).all(|w| w[0] == w[1]), "diverged: {seen:?}");
    }

    /// Property 1 resilience: minority memory crashes never block honest
    /// broadcast delivery.
    #[test]
    fn property_one_with_memory_crashes(seed in 0u64..500, dead in 0usize..2) {
        let (n, m) = (2u32, 5u32);
        let mut sim: Simulation<Msg> = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        let mut auth = SigAuthority::new(seed);
        for i in 0..n {
            let signer = auth.register(ActorId(i));
            sim.add(NebTester::new(
                ActorId(i),
                procs.clone(),
                mems.clone(),
                signer,
                auth.verifier(),
                vec![Value(10 + i as u64)],
            ));
        }
        for _ in 0..m {
            sim.add(neb_memory(&procs));
        }
        // Crash up to f_M = 2 memories, chosen by the seed.
        for k in 0..=dead {
            sim.crash_at(mems[(seed as usize + k) % m as usize], Time::ZERO);
        }
        sim.run_until(Time::from_delays(300), |s| {
            (0..n).all(|i| s.actor_as::<NebTester>(ActorId(i)).unwrap().delivered.len() >= 2)
        });
        for i in 0..n {
            let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
            prop_assert_eq!(t.delivered.len(), 2, "process {} delivered {:?}", i, &t.delivered);
        }
    }
}

/// Forwards every event to a replica and records the largest range-read
/// response it receives (the rows one memory returned for one read).
struct RangeRows {
    inner: ByzSmrNode,
    responses: usize,
    max_rows: usize,
}

impl Actor<Msg> for RangeRows {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        if let EventKind::Msg {
            msg:
                Msg::Mem(MemWire::Resp {
                    resp: MemResponse::Range(rows),
                    ..
                }),
            ..
        } = &ev
        {
            self.responses += 1;
            self.max_rows = self.max_rows.max(rows.len());
        }
        self.inner.on_event(ctx, ev);
    }
}

/// Pipeline depth of the history-independence runs.
const DEPTH: usize = 8;

/// Router window (commands in flight) of the history-independence runs.
const WINDOW: usize = 16;

/// Runs one failure-free Byzantine group (n = m = 3, pipeline window
/// [`DEPTH`], fast path on, batch 1) behind a closed-loop router until
/// `cmds` commands commit, and returns the largest range-read response any
/// replica received. With no leader change there is no takeover scan, so
/// every range read is a broadcast row probe or column audit.
fn largest_range_response(cmds: usize) -> usize {
    let mut sc = ShardedScenario::common_case(1, 3, 3, 5);
    sc.total_cmds = cmds;
    sc.window = WINDOW;
    let topo = sc.topology();
    let (procs, mems) = (topo.procs(0), topo.mems(0));
    let mut sim: Simulation<Msg> = Simulation::new(sc.seed);
    let mut auth = SigAuthority::new(sc.seed ^ 0xB12A);
    for &p in &procs {
        let signer = auth.register(p);
        let node = ByzSmrNode::new(
            p,
            procs.clone(),
            mems.clone(),
            topo.initial_leader(0),
            Vec::new(),
            signer,
            auth.verifier(),
            Duration::from_delays(1),
        )
        .with_pipeline_window(DEPTH)
        .with_fast_path(true)
        .with_session_dedup()
        .with_observer(topo.router());
        sim.add(RangeRows {
            inner: node,
            responses: 0,
            max_rows: 0,
        });
    }
    for _ in &mems {
        sim.add(byz_memory_actor(&procs));
    }
    let workload = sharded::partition(&sc.workload, sc.seed, cmds, 1);
    let router = RouterActor::new(topo, workload, WINDOW)
        .with_group_modes(vec![GroupMode::Byzantine], sc.n)
        .with_byz_fast_path();
    assert_eq!(sim.add(router), topo.router());
    sim.run_until(Time::from_delays(20 * cmds as u64 + 1_000), |s| {
        s.actor_as::<RouterActor>(topo.router())
            .expect("router")
            .done()
    });
    let router = sim.actor_as::<RouterActor>(topo.router()).expect("router");
    assert_eq!(router.committed_total(), cmds, "run did not finish");
    let mut largest = 0;
    for &p in &procs[1..] {
        let r = sim.actor_as::<RangeRows>(p).expect("replica");
        assert!(r.responses > 0, "follower {p} issued no range read");
        largest = largest.max(r.max_rows);
    }
    largest
}

/// The pipelined broadcast's range reads cover the live window only: the
/// largest row-probe or column-audit response is the same at 400 and at
/// 4,000 commands, and stays within `n · (depth + slack)` rows. Reads of
/// the whole row or columns would grow with the log.
#[test]
fn pipelined_range_reads_do_not_grow_with_history() {
    let bound = 3 * (DEPTH + WINDOW);
    let short = largest_range_response(400);
    let long = largest_range_response(4_000);
    eprintln!("largest range response: {short} rows at 400, {long} at 4,000");
    assert!(short <= bound, "400 commands: {short} rows > {bound}");
    assert!(long <= bound, "4,000 commands: {long} rows > {bound}");
    assert_eq!(short, long, "largest range response grew with history");
}
