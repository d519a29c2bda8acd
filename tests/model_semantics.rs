//! Experiment E9 — the model itself (Figure 1 / §3 / §7 semantics), probed
//! through the same register/permission vocabulary the protocols use:
//! permission naks, region confinement, `legalChange` policies, overlap,
//! and the Byzantine-cannot-bypass-permissions invariant.

use std::sync::Arc;

use agreement::cheap_quorum;
use agreement::nebcast;
use agreement::paxos::Dest;
use agreement::protected;
use agreement::trusted::{RbPayload, TWire};
use agreement::types::{sigtags, CqSigned, Msg, PaxSlot, Pid, RegVal, Value};
use rdma_sim::{
    MemRequest, MemResponse, MemWire, MemoryActor, MemoryClient, OpId, Permission, RegId,
};
use sigsim::SigAuthority;
use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

/// Fires a scripted request list at one memory, recording responses.
struct Probe {
    mem: ActorId,
    script: Vec<MemRequest<RegVal>>,
    client: MemoryClient<RegVal, Msg>,
    responses: Vec<(OpId, MemResponse<RegVal>)>,
}

impl Probe {
    fn new(mem: ActorId, script: Vec<MemRequest<RegVal>>) -> Probe {
        Probe {
            mem,
            script,
            client: MemoryClient::new(),
            responses: Vec::new(),
        }
    }
}

impl Actor<Msg> for Probe {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                for req in self.script.drain(..) {
                    self.client.submit(ctx, self.mem, req);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = self.client.on_wire(ctx, from, wire) {
                    self.responses.push((c.op, c.resp));
                }
            }
            _ => {}
        }
    }
}

fn run_probe(
    mem: MemoryActor<RegVal, Msg>,
    script: Vec<MemRequest<RegVal>>,
) -> Vec<MemResponse<RegVal>> {
    let mut sim: Simulation<Msg> = Simulation::new(1);
    let mem_id = sim.add(mem);
    let probe = sim.add(Probe::new(mem_id, script));
    sim.run_to_quiescence(Time::from_delays(200));
    let mut r = sim.actor_as::<Probe>(probe).unwrap().responses.clone();
    r.sort_by_key(|(op, _)| *op);
    r.into_iter().map(|(_, resp)| resp).collect()
}

fn sample_cq_value(auth: &mut SigAuthority, signer_id: Pid, v: Value) -> RegVal {
    let s = auth.register(signer_id);
    let sig = s.sign(&(sigtags::CQ_VALUE, v));
    RegVal::CqValue(CqSigned {
        value: v,
        leader_sig: sig,
        own_sig: sig,
    })
}

/// §3: a process "cannot operate on memories without the required
/// permission" — probing as the WRONG process naks.
#[test]
fn byzantine_cannot_write_someone_elses_cq_region() {
    // The probe is actor 1; Cheap Quorum region layout for procs {2,3}
    // with leader 2: the probe owns nothing.
    let procs = vec![ActorId(2), ActorId(3)];
    let mem = cheap_quorum::memory_actor(&procs, ActorId(2));
    let mut auth = SigAuthority::new(1);
    let junk = sample_cq_value(&mut auth, ActorId(1), Value(9));
    let out = run_probe(
        mem,
        vec![
            MemRequest::Write {
                region: cheap_quorum::proc_region(ActorId(2)),
                reg: cheap_quorum::value_reg(ActorId(2)),
                value: junk.clone(),
            },
            MemRequest::Write {
                region: cheap_quorum::LEADER_REGION,
                reg: cheap_quorum::VALUE_L,
                value: junk,
            },
            // Reading is fine (SWMR: everyone reads).
            MemRequest::Read {
                region: cheap_quorum::proc_region(ActorId(2)),
                reg: cheap_quorum::value_reg(ActorId(2)),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Nak);
    assert_eq!(out[1], MemResponse::Nak);
    assert_eq!(out[2], MemResponse::Value(None));
}

/// Cheap Quorum's `legalChange`: ONLY the revoke-leader-write shape passes.
#[test]
fn cq_legal_change_admits_only_the_revocation() {
    let probe_id = ActorId(1);
    let procs = vec![ActorId(2), ActorId(3)];
    let out = run_probe(
        cheap_quorum::memory_actor(&procs, ActorId(2)),
        vec![
            // Attempt to grab the leader region for ourselves: rejected.
            MemRequest::ChangePerm {
                region: cheap_quorum::LEADER_REGION,
                new: Permission::exclusive_writer(probe_id),
            },
            // Attempt to open someone's private region: rejected.
            MemRequest::ChangePerm {
                region: cheap_quorum::proc_region(ActorId(3)),
                new: Permission::open(),
            },
            // The one legal move: revoke the leader's write permission.
            MemRequest::ChangePerm {
                region: cheap_quorum::LEADER_REGION,
                new: Permission::read_only(),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::PermNak);
    assert_eq!(out[1], MemResponse::PermNak);
    assert_eq!(out[2], MemResponse::PermAck);
}

/// Protected Memory Paxos's `legalChange`: any acquire-exclusive passes,
/// anything else is rejected; the write permission really moves.
#[test]
fn pmp_permission_handoff_semantics() {
    let probe_id = ActorId(1); // sim layout: mem=0, probe=1
    let slot_mine = protected::slot_reg(agreement::Instance(0), probe_id);
    let out = run_probe(
        protected::memory_actor(ActorId(9)), // someone else holds it
        vec![
            // Writing while not owner: nak.
            MemRequest::Write {
                region: protected::REGION,
                reg: slot_mine,
                value: RegVal::Slot(PaxSlot::phase1(agreement::Ballot {
                    round: 1,
                    pid: probe_id,
                })),
            },
            // Illegal shapes rejected.
            MemRequest::ChangePerm {
                region: protected::REGION,
                new: Permission::open(),
            },
            // Acquire-exclusive: accepted...
            MemRequest::ChangePerm {
                region: protected::REGION,
                new: Permission::exclusive_writer(probe_id),
            },
            // ...and now the write lands.
            MemRequest::Write {
                region: protected::REGION,
                reg: slot_mine,
                value: RegVal::Slot(PaxSlot::phase1(agreement::Ballot {
                    round: 1,
                    pid: probe_id,
                })),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Nak);
    assert_eq!(out[1], MemResponse::PermNak);
    assert_eq!(out[2], MemResponse::PermAck);
    assert_eq!(out[3], MemResponse::Ack);
}

/// §7's overlapping registration: the whole broadcast array is readable
/// through one region while rows stay write-exclusive through another —
/// the same register is in both.
#[test]
fn nebcast_overlapping_regions() {
    let probe_id = ActorId(1);
    let procs = vec![probe_id, ActorId(2)];
    let mut mem = MemoryActor::new(rdma_sim::LegalChange::Static);
    nebcast::configure_memory(&mut mem, &procs);
    let my_slot = nebcast::slot_reg(probe_id, 1, probe_id);
    let their_slot = nebcast::slot_reg(ActorId(2), 1, ActorId(2));
    let out = run_probe(
        mem,
        vec![
            // Write own slot through own row region: ok.
            MemRequest::Write {
                region: nebcast::row_region(probe_id),
                reg: my_slot,
                value: RegVal::LbFlag(Value(1)), // payload type irrelevant here
            },
            // Write own slot through the ALL region: nak (read-only).
            MemRequest::Write {
                region: nebcast::ALL_REGION,
                reg: my_slot,
                value: RegVal::LbFlag(Value(2)),
            },
            // Write someone else's slot through their row: nak.
            MemRequest::Write {
                region: nebcast::row_region(ActorId(2)),
                reg: their_slot,
                value: RegVal::LbFlag(Value(3)),
            },
            // Read own slot through the ALL region: ok, sees the row write.
            MemRequest::Read {
                region: nebcast::ALL_REGION,
                reg: my_slot,
            },
            // Range-read the whole array: exactly one register written.
            MemRequest::ReadRange {
                region: nebcast::ALL_REGION,
                within: None,
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Ack);
    assert_eq!(out[1], MemResponse::Nak);
    assert_eq!(out[2], MemResponse::Nak);
    assert_eq!(out[3], MemResponse::Value(Some(RegVal::LbFlag(Value(1)))));
    match &out[4] {
        MemResponse::Range(rows) => assert_eq!(rows.len(), 1),
        other => panic!("expected range, got {other:?}"),
    }
}

/// Register-outside-region confinement: naming the wrong region naks even
/// with write permission on that region.
#[test]
fn region_confinement() {
    let probe_id = ActorId(1);
    let procs = vec![probe_id];
    let mut mem = MemoryActor::new(rdma_sim::LegalChange::Static);
    nebcast::configure_memory(&mut mem, &procs);
    // A CQ register accessed through a nebcast row region: nak.
    let out = run_probe(
        mem,
        vec![MemRequest::Write {
            region: nebcast::row_region(probe_id),
            reg: RegId::two(agreement::types::spaces::CQ, 1, 0),
            value: RegVal::LbFlag(Value(1)),
        }],
    );
    assert_eq!(out[0], MemResponse::Nak);
}

/// A crashed memory hangs (never answers) — callers cannot distinguish it
/// from a slow one, per §3.
#[test]
fn crashed_memory_is_silent() {
    let mut sim: Simulation<Msg> = Simulation::new(1);
    let mem = sim.add(protected::memory_actor(ActorId(1)));
    let probe = sim.add(Probe::new(
        mem,
        vec![MemRequest::Read {
            region: protected::REGION,
            reg: protected::slot_reg(agreement::Instance(0), ActorId(1)),
        }],
    ));
    sim.crash_at(mem, Time::ZERO);
    sim.run_to_quiescence(Time::from_delays(300));
    assert!(sim.actor_as::<Probe>(probe).unwrap().responses.is_empty());
}

/// MemWire embedding round-trips through the unified message type.
#[test]
fn wire_embedding_round_trip() {
    use rdma_sim::MemEmbed;
    let wire: MemWire<RegVal> = MemWire::Resp {
        op: OpId(9),
        resp: MemResponse::Value(None),
    };
    let msg = Msg::from_wire(wire);
    assert!(msg.into_wire().is_ok());
}

/// A signed broadcast slot `(k, LogEntries[first..])` from `signer`.
fn neb_slot(signer: &sigsim::Signer, k: u64, first: u64, values: Vec<Value>) -> RegVal {
    let wire = TWire {
        dest: Dest::All,
        payload: RbPayload::LogEntries {
            first,
            epoch: 0,
            values,
        },
        history: Vec::new(),
    };
    let sig = signer.sign(&wire.sign_view(k));
    RegVal::Neb(Arc::new(nebcast::NebSlot { k, wire, sig }))
}

/// §3's trusted memory hands out immutable snapshots. Broadcast slots are
/// shared rather than copied, so this pins that sharing never leaks a
/// later write into an earlier answer: a read and a range read taken
/// before the register is overwritten keep the old slot, the ones after
/// see the new one.
#[test]
fn shared_broadcast_slots_are_immutable_snapshots() {
    let me = ActorId(1);
    let mut auth = SigAuthority::new(1);
    let signer = auth.register(me);
    let old = neb_slot(&signer, 1, 0, vec![Value(10), Value(11)]);
    let new = neb_slot(&signer, 1, 2, vec![Value(20)]);
    assert_ne!(old, new);
    let mut mem = MemoryActor::new(rdma_sim::LegalChange::Static);
    nebcast::configure_memory(&mut mem, &[me]);
    let reg = nebcast::slot_reg(me, 1, me);
    let write = |value: &RegVal| MemRequest::Write {
        region: nebcast::row_region(me),
        reg,
        value: value.clone(),
    };
    let read = || MemRequest::Read {
        region: nebcast::ALL_REGION,
        reg,
    };
    let range = || MemRequest::ReadRange {
        region: nebcast::ALL_REGION,
        within: None,
    };
    let out = run_probe(
        mem,
        vec![write(&old), read(), range(), write(&new), read(), range()],
    );
    assert_eq!(out[0], MemResponse::Ack);
    assert_eq!(out[3], MemResponse::Ack);
    for (before, after) in [(1, 4), (2, 5)] {
        let held = |resp: &MemResponse<RegVal>| match resp {
            MemResponse::Value(Some(v)) => v.clone(),
            MemResponse::Range(rows) if rows.len() == 1 && rows[0].0 == reg => rows[0].1.clone(),
            other => panic!("expected the slot, got {other:?}"),
        };
        assert_eq!(
            held(&out[before]),
            old,
            "answer {before} changed under a later write"
        );
        assert_eq!(
            held(&out[after]),
            new,
            "answer {after} missed the overwrite"
        );
        // The memory shared the written slot instead of copying it.
        let (RegVal::Neb(a), RegVal::Neb(b)) = (held(&out[before]), &old) else {
            panic!("expected broadcast slots")
        };
        assert!(Arc::ptr_eq(&a, b));
    }
}

/// The snapshot guarantee above holds for every code path only if no code
/// mutates a shared value in place: nothing may take `&mut` into an `Arc`.
#[test]
fn no_code_mutates_shared_register_values() {
    // Built at run time so this file does not match its own needles.
    let needles = ["get_mut", "make_mut", "get_mut_unchecked"].map(|f| format!("Arc::{f}"));
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut stack: Vec<_> = ["crates", "tests", "examples"].map(|d| root.join(d)).into();
    let mut scanned = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                let code = src.lines().filter(|l| !l.trim_start().starts_with("//"));
                for line in code {
                    for needle in &needles {
                        assert!(
                            !line.contains(needle.as_str()),
                            "{}: {line}",
                            path.display()
                        );
                    }
                }
                scanned += 1;
            }
        }
    }
    assert!(scanned > 50, "scanned only {scanned} files");
}
