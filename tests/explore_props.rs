//! Property tests for the schedule explorer's independence relation
//! (`agreement::explore::independence`).
//!
//! The relation licenses the explorer to prune one order of a pair of
//! same-tick events; that is sound only if swapping an
//! independent-classified pair really is unobservable. The properties
//! drive a *real* [`rdma_sim::MemoryActor`] with pairs of generated
//! requests, delivered in both orders via the kernel's choice hook:
//!
//! 1. **Independent ⇒ bit-identical outcomes**: the memory's final
//!    register state and both requesters' responses are equal across
//!    the two orders.
//! 2. **Outcome-differing ⇒ conflicting** (contrapositive of 1, checked
//!    directly so a miss is reported as the ordering that exposes it):
//!    any pair the swap *can* distinguish must be classified as a
//!    conflict, i.e. never pruned.
//!
//! Plus direct classification pins for the pairs the relation must
//! never prune: same-register write/write and write/read, permission
//! changes against everything on the memory.

use agreement::explore::independence::{
    conflicts, footprint, independent, EventClass, ExploredEvent,
};
use agreement::types::{RegVal, Value};
use proptest::prelude::*;
use rdma_sim::{
    LegalChange, MemEmbed, MemRequest, MemResponse, MemWire, MemoryActor, OpId, Permission, RegId,
    RegionId, RegionSpec,
};
use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

/// Minimal message type embedding the memory wire protocol.
#[derive(Clone, Debug, PartialEq)]
enum TMsg {
    Mem(MemWire<RegVal>),
}
impl MemEmbed<RegVal> for TMsg {
    fn from_wire(wire: MemWire<RegVal>) -> Self {
        TMsg::Mem(wire)
    }
    fn into_wire(self) -> Result<MemWire<RegVal>, Self> {
        let TMsg::Mem(w) = self;
        Ok(w)
    }
}

/// Fires one scripted request at the memory and records the response.
struct Driver {
    mem: ActorId,
    script: Option<MemRequest<RegVal>>,
    responses: Vec<(OpId, MemResponse<RegVal>)>,
}
impl Actor<TMsg> for Driver {
    fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
        match ev {
            EventKind::Start => {
                if let Some(req) = self.script.take() {
                    ctx.send(self.mem, TMsg::Mem(MemWire::Req { op: OpId(0), req }));
                }
            }
            EventKind::Msg {
                msg: TMsg::Mem(MemWire::Resp { op, resp }),
                ..
            } => self.responses.push((op, resp)),
            _ => {}
        }
    }
}

/// The single region every generated request addresses: all registers,
/// open to everybody, permission changes allowed (so `ChangePerm` is an
/// *effective* operation the swap can observe).
const REGION: RegionId = RegionId(0);

/// Everything observable about one ordering of the pair: the memory's
/// final register state over the generated universe plus both drivers'
/// responses.
type Outcome = (
    Vec<Option<RegVal>>,
    Vec<(OpId, MemResponse<RegVal>)>,
    Vec<(OpId, MemResponse<RegVal>)>,
);

/// Runs `[a_req from driver A, b_req from driver B]` against one
/// memory, forcing the same-tick delivery order with the kernel choice
/// hook: `swapped` delivers B's request first.
fn run_pair(a_req: &MemRequest<RegVal>, b_req: &MemRequest<RegVal>, swapped: bool) -> Outcome {
    let mut sim: Simulation<TMsg> = Simulation::new(5);
    let mem_id = sim.add(
        MemoryActor::<RegVal, TMsg>::new(LegalChange::AnyChange).with_region(
            REGION,
            RegionSpec::All,
            Permission::open(),
        ),
    );
    let a = sim.add(Driver {
        mem: mem_id,
        script: Some(a_req.clone()),
        responses: Vec::new(),
    });
    let b = sim.add(Driver {
        mem: mem_id,
        script: Some(b_req.clone()),
        responses: Vec::new(),
    });
    // Choice points: two from the 3-way Start slate, then the request
    // pair at the memory — position 2 picks the delivery order.
    let vector = [0usize, 0, usize::from(swapped)];
    let mut pos = 0usize;
    sim.set_choice_hook(Box::new(move |_t, choices| {
        if choices.len() == 1 {
            return 0;
        }
        let pick = vector.get(pos).copied().unwrap_or(0);
        pos += 1;
        pick
    }));
    sim.run_to_quiescence(Time::from_delays(50));
    let mem = sim
        .actor_as::<MemoryActor<RegVal, TMsg>>(mem_id)
        .expect("memory actor");
    let registers = universe()
        .into_iter()
        .map(|r| mem.register(r).cloned())
        .collect();
    let resp = |id: ActorId| {
        sim.actor_as::<Driver>(id)
            .expect("driver")
            .responses
            .clone()
    };
    (registers, resp(a), resp(b))
}

/// Every register a generated request can touch.
fn universe() -> Vec<RegId> {
    let mut out = Vec::new();
    for space in 1u16..=2 {
        for x in 0u64..3 {
            for y in 0u64..3 {
                for z in 0u64..3 {
                    out.push(RegId::new(space, x, y, z));
                }
            }
        }
    }
    out
}

/// Decodes a generated request from small integers (the proptest shim's
/// native strategies).
fn decode(kind: usize, space: u16, x: u64, y: u64, z: u64, val: u64) -> MemRequest<RegVal> {
    let reg = RegId::new(space, x, y, z);
    match kind {
        0 => MemRequest::Read {
            region: REGION,
            reg,
        },
        1 => MemRequest::Write {
            region: REGION,
            reg,
            value: RegVal::LbFlag(Value(val)),
        },
        2 => MemRequest::WriteMany {
            region: REGION,
            writes: vec![
                (reg, RegVal::LbFlag(Value(val))),
                // A second register in the same row.
                (
                    RegId::new(space, x, y, (z + 1) % 3),
                    RegVal::LbFlag(Value(val + 1)),
                ),
            ],
        },
        3 => MemRequest::ReadRange {
            region: REGION,
            within: match val % 6 {
                0 => None,
                1 => Some(RegionSpec::All),
                2 => Some(RegionSpec::Space(space)),
                3 => Some(RegionSpec::row(space, x)),
                // Windows over the second coordinate, possibly empty.
                4 => Some(RegionSpec::Window {
                    space,
                    a: Some(x),
                    b_lo: y,
                    b_hi: z + 1,
                    c: None,
                }),
                _ => Some(RegionSpec::Window {
                    space,
                    a: None,
                    b_lo: y,
                    b_hi: 3,
                    c: Some(z),
                }),
            },
        },
        _ => MemRequest::ChangePerm {
            region: REGION,
            new: if val.is_multiple_of(2) {
                Permission::open()
            } else {
                Permission::read_only()
            },
        },
    }
}

/// Wraps a request as the explorer's event summary: a memory request
/// arriving at the memory actor, from distinct requesters.
fn as_event(seq: u64, from: u32, req: &MemRequest<RegVal>) -> ExploredEvent {
    ExploredEvent {
        seq,
        // Both requests land on the same memory actor — the same-actor
        // case where only the footprint carve-out can declare
        // independence.
        to: ActorId(0),
        kind: EventClass::MemReq {
            from: ActorId(from),
            fp: footprint(req),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Independent-classified pairs commute observably; pairs the swap
    /// distinguishes are classified as conflicts (never pruned).
    #[test]
    fn independence_classification_matches_real_memory(
        a_kind in 0usize..5,
        a_space in 1u16..3,
        a_x in 0u64..3,
        a_y in 0u64..3,
        a_z in 0u64..3,
        a_val in 0u64..8,
        b_kind in 0usize..5,
        b_space in 1u16..3,
        b_x in 0u64..3,
        b_y in 0u64..3,
        b_z in 0u64..3,
        b_val in 0u64..8,
    ) {
        let a_req = decode(a_kind, a_space, a_x, a_y, a_z, a_val);
        let b_req = decode(b_kind, b_space, b_x, b_y, b_z, b_val);
        let forward = run_pair(&a_req, &b_req, false);
        let swapped = run_pair(&a_req, &b_req, true);
        let commute = forward == swapped;
        let ind = independent(&as_event(1, 10, &a_req), &as_event(2, 11, &b_req));
        // Soundness: a pruned (independent) order is unobservable.
        prop_assert!(
            !ind || commute,
            "classified independent but orders differ:\n  a = {a_req:?}\n  b = {b_req:?}"
        );
        // Equivalently: any observable pair must be kept (conflict).
        if !commute {
            prop_assert!(
                conflicts(&footprint(&a_req), &footprint(&b_req)),
                "orders observably differ yet footprints do not conflict:\n  \
                 a = {a_req:?}\n  b = {b_req:?}"
            );
        }
    }
}

/// The pairs the relation must never prune, pinned explicitly (the
/// property above only exercises what the generator happens to draw).
#[test]
fn conflicting_pairs_are_never_classified_independent() {
    let reg = RegId::new(1, 0, 0, 0);
    let write = MemRequest::Write {
        region: REGION,
        reg,
        value: RegVal::LbFlag(Value(1)),
    };
    let write2 = MemRequest::Write {
        region: REGION,
        reg,
        value: RegVal::LbFlag(Value(2)),
    };
    let read = MemRequest::Read {
        region: REGION,
        reg,
    };
    let scan_all = MemRequest::ReadRange {
        region: REGION,
        within: None,
    };
    let scan_window = MemRequest::ReadRange {
        region: REGION,
        within: Some(RegionSpec::Window {
            space: 1,
            a: None,
            b_lo: 0,
            b_hi: 1,
            c: Some(0),
        }),
    };
    let perm = MemRequest::ChangePerm {
        region: REGION,
        new: Permission::read_only(),
    };
    for (x, y) in [
        (&write, &write2),
        (&write, &read),
        (&write, &scan_all),
        (&write, &scan_window),
        (&perm, &read),
        (&perm, &write),
        (&perm, &scan_all),
    ] {
        assert!(
            !independent(&as_event(1, 10, x), &as_event(2, 11, y)),
            "must conflict: {x:?} vs {y:?}"
        );
        assert!(
            !independent(&as_event(2, 11, y), &as_event(1, 10, x)),
            "conflict must be symmetric: {y:?} vs {x:?}"
        );
    }
    // Same-tick events at *different* actors always commute, whatever
    // they carry — the per-actor state partition of the kernel.
    let at_other_memory = ExploredEvent {
        to: ActorId(1),
        ..as_event(3, 12, &write)
    };
    assert!(independent(&as_event(1, 10, &write), &at_other_memory));
}

/// A window range read against the real memory: a write just past either
/// end of the window commutes with it and is classified independent; a
/// write inside it is observable and classified as a conflict.
#[test]
fn window_range_read_commutes_exactly_with_writes_outside_it() {
    let scan = MemRequest::ReadRange {
        region: REGION,
        within: Some(RegionSpec::Window {
            space: 1,
            a: Some(0),
            b_lo: 1,
            b_hi: 2,
            c: None,
        }),
    };
    let write_at = |b: u64| MemRequest::Write {
        region: REGION,
        reg: RegId::new(1, 0, b, 0),
        value: RegVal::LbFlag(Value(b)),
    };
    for (b, inside) in [(0, false), (1, true), (2, false)] {
        let w = write_at(b);
        let commute = run_pair(&scan, &w, false) == run_pair(&scan, &w, true);
        let ind = independent(&as_event(1, 10, &scan), &as_event(2, 11, &w));
        assert_eq!(commute, !inside, "b = {b}: swap observable iff inside");
        assert_eq!(ind, !inside, "b = {b}: classified independent iff outside");
    }
}
