//! The explorer's independence relation over ripe kernel events.
//!
//! Two same-tick events are *independent* when dispatching them in
//! either order yields the same state and the same future behaviour —
//! the Mazurkiewicz-trace equivalence a partial-order reduction prunes
//! by. The relation here is deliberately conservative (sound for
//! pruning: anything *possibly* conflicting is declared dependent):
//!
//! * **Different destination actors ⇒ independent.** An actor's handler
//!   reads and writes only its own state plus the [`Context`] effects it
//!   emits; two dispatches at different actors touch disjoint state.
//!   Swapping them relabels the kernel sequence numbers of the events
//!   they emit — but same-tick ordering is exactly the freedom the
//!   explorer already enumerates, and cross-tick order is fixed by
//!   virtual time, so the relabeling never changes what any later
//!   choice point can choose *among*, only its default order.
//! * **Same actor ⇒ dependent**, with one carve-out: two memory-wire
//!   *requests* arriving at a memory actor with disjoint register
//!   footprints and no permission change commute — the memory applies
//!   each against unrelated registers and the responses (sent to the
//!   original requesters) carry the same values either way. This is the
//!   reduction of Abdulla et al.'s RDMA-program verification work: most
//!   same-memory traffic lands on distinct registers (per-slot log
//!   writes, per-process broadcast rows), so this carve-out is where
//!   the pruning actually bites.
//!
//! Footprints over-approximate: a `ReadRange` reads its whole `within`
//! pattern or window (the region's own spec is memory-side configuration
//! the wire does not carry), and `ChangePerm` conflicts with everything
//! on that memory — permissions gate every other request's Nak-or-apply
//! outcome.
//!
//! [`Context`]: simnet::Context

use std::collections::BTreeSet;

use rdma_sim::{MemRequest, MemWire, RegId, RegionSpec};
use simnet::{ActorId, Choice, ChoicePayload, EventKind};

use crate::types::{Msg, RegVal};

/// An order-stable summary of one ripe kernel event, as the explorer's
/// sleep sets and child seeds store it. `seq` is the kernel scheduling
/// sequence number — identical across replays of a shared choice-vector
/// prefix, which is what makes summaries comparable between runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploredEvent {
    /// Kernel scheduling sequence number (replay-stable identity).
    pub seq: u64,
    /// Destination actor.
    pub to: ActorId,
    /// What the event is, as far as independence cares.
    pub kind: EventClass,
}

/// The independence-relevant classification of an event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventClass {
    /// An actor's `Start` event.
    Start,
    /// A timer firing with the given tag.
    Timer {
        /// The timer's purpose tag.
        tag: u64,
    },
    /// A leader-oracle announcement.
    LeaderChange,
    /// A scheduled crash of the destination actor.
    Crash,
    /// A message delivery that is not a memory request (protocol
    /// messages, memory *responses*, anything opaque).
    Msg {
        /// The sender.
        from: ActorId,
    },
    /// A memory-wire request arriving at a memory actor, with its
    /// register footprint.
    MemReq {
        /// The requesting process.
        from: ActorId,
        /// Registers the request reads/writes.
        fp: Footprint,
    },
}

/// The register sets a memory request touches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Footprint {
    /// Registers (or register patterns) read.
    pub reads: Vec<RegAccess>,
    /// Registers written.
    pub writes: Vec<RegAccess>,
    /// Whether the request changes a region's permission — which gates
    /// every other request on the memory, so it conflicts with all.
    pub perm: bool,
}

/// One element of a footprint: a single register or a pattern of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegAccess {
    /// Exactly one register.
    Exact(RegId),
    /// Every register a [`RegionSpec`] matches (the `ReadRange`
    /// over-approximation).
    Pattern(RegionSpec),
}

/// Summarizes a kernel [`Choice`] for the independence relation. `mems`
/// is the deployment's set of memory-actor ids ([`GroupTopology::mems`]
/// over every group): only requests *to a memory* get footprints —
/// the same wire message delivered to a process is protocol input and
/// stays order-dependent.
///
/// [`GroupTopology::mems`]: crate::sharded::GroupTopology::mems
pub fn summarize_choice(c: &Choice<'_, Msg>, mems: &BTreeSet<ActorId>) -> ExploredEvent {
    let kind = match &c.payload {
        ChoicePayload::Crash => EventClass::Crash,
        ChoicePayload::Deliver(ev) => match ev {
            EventKind::Start => EventClass::Start,
            EventKind::Timer { tag, .. } => EventClass::Timer { tag: *tag },
            EventKind::LeaderChange { .. } => EventClass::LeaderChange,
            EventKind::Msg { from, msg } => match msg {
                Msg::Mem(MemWire::Req { req, .. }) if mems.contains(&c.to) => EventClass::MemReq {
                    from: *from,
                    fp: footprint(req),
                },
                _ => EventClass::Msg { from: *from },
            },
        },
    };
    ExploredEvent {
        seq: c.seq,
        to: c.to,
        kind,
    }
}

/// The register footprint of one memory request.
pub fn footprint(req: &MemRequest<RegVal>) -> Footprint {
    let mut fp = Footprint::default();
    match req {
        MemRequest::Read { reg, .. } => fp.reads.push(RegAccess::Exact(*reg)),
        MemRequest::Write { reg, .. } => fp.writes.push(RegAccess::Exact(*reg)),
        MemRequest::WriteMany { writes, .. } => {
            fp.writes
                .extend(writes.iter().map(|(r, _)| RegAccess::Exact(*r)));
        }
        MemRequest::ReadRange { within, .. } => {
            // The region's own spec lives memory-side; the wildcard is
            // the sound over-approximation.
            fp.reads
                .push(RegAccess::Pattern(within.unwrap_or(RegionSpec::All)));
        }
        MemRequest::ChangePerm { .. } => fp.perm = true,
    }
    fp
}

/// Whether two same-tick events commute (see the module docs).
pub fn independent(a: &ExploredEvent, b: &ExploredEvent) -> bool {
    if a.to != b.to {
        return true;
    }
    match (&a.kind, &b.kind) {
        (EventClass::MemReq { fp: fa, .. }, EventClass::MemReq { fp: fb, .. }) => {
            !conflicts(fa, fb)
        }
        _ => false,
    }
}

/// Whether two footprints interfere: a permission change on either
/// side, or a write overlapping the other's reads or writes.
pub fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    if a.perm || b.perm {
        return true;
    }
    let hit = |xs: &[RegAccess], ys: &[RegAccess]| {
        xs.iter().any(|x| ys.iter().any(|y| may_overlap(*x, *y)))
    };
    hit(&a.writes, &b.writes) || hit(&a.writes, &b.reads) || hit(&a.reads, &b.writes)
}

/// Whether two footprint elements can name a common register
/// (conservative: `true` unless provably disjoint).
pub fn may_overlap(a: RegAccess, b: RegAccess) -> bool {
    match (a, b) {
        (RegAccess::Exact(r), RegAccess::Exact(s)) => r == s,
        (RegAccess::Exact(r), RegAccess::Pattern(spec))
        | (RegAccess::Pattern(spec), RegAccess::Exact(r)) => spec.contains(r),
        (RegAccess::Pattern(p), RegAccess::Pattern(q)) => specs_may_overlap(p, q),
    }
}

/// Whether two region specs can share a register. Distinct namespaces,
/// incompatible fixed coordinates and second-coordinate ranges that do not
/// intersect are provably disjoint; everything else is assumed to overlap.
fn specs_may_overlap(p: RegionSpec, q: RegionSpec) -> bool {
    use RegionSpec::*;
    let coord = |x: Option<u64>, y: Option<u64>| match (x, y) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    };
    // Namespace, first and third coordinates, and the inclusive range of
    // second coordinates (`None`: an empty window, which matches nothing).
    let shape = |spec: RegionSpec| match spec {
        Space(space) => (space, None, Some((0, u64::MAX)), None),
        Pattern { space, a, b, c } => (space, a, Some(b.map_or((0, u64::MAX), |v| (v, v))), c),
        Window {
            space,
            a,
            b_lo,
            b_hi,
            c,
        } => (space, a, (b_lo < b_hi).then(|| (b_lo, b_hi - 1)), c),
        All | Exact(_) => unreachable!("matched before shaping"),
    };
    match (p, q) {
        (All, _) | (_, All) => true,
        (Exact(r), other) | (other, Exact(r)) => other.contains(r),
        _ => {
            let (s1, a1, b1, c1) = shape(p);
            let (s2, a2, b2, c2) = shape(q);
            let b_meet = match (b1, b2) {
                (Some((lo1, hi1)), Some((lo2, hi2))) => lo1.max(lo2) <= hi1.min(hi2),
                _ => false,
            };
            s1 == s2 && coord(a1, a2) && b_meet && coord(c1, c2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::RegionId;

    fn ev(seq: u64, to: u32, kind: EventClass) -> ExploredEvent {
        ExploredEvent {
            seq,
            to: ActorId(to),
            kind,
        }
    }

    fn mem_req(seq: u64, to: u32, req: &MemRequest<RegVal>) -> ExploredEvent {
        ev(
            seq,
            to,
            EventClass::MemReq {
                from: ActorId(0),
                fp: footprint(req),
            },
        )
    }

    const MR: RegionId = RegionId(0);

    fn write(reg: RegId) -> MemRequest<RegVal> {
        MemRequest::Write {
            region: MR,
            reg,
            value: RegVal::LbFlag(crate::types::Value(0)),
        }
    }

    fn read(reg: RegId) -> MemRequest<RegVal> {
        MemRequest::Read { region: MR, reg }
    }

    #[test]
    fn different_actors_always_commute() {
        let a = ev(1, 3, EventClass::Msg { from: ActorId(9) });
        let b = ev(2, 4, EventClass::Msg { from: ActorId(9) });
        assert!(independent(&a, &b));
        let c = ev(3, 4, EventClass::Crash);
        assert!(independent(&a, &c));
    }

    #[test]
    fn same_actor_non_mem_events_conflict() {
        let a = ev(1, 3, EventClass::Msg { from: ActorId(9) });
        let b = ev(2, 3, EventClass::Timer { tag: 1 });
        assert!(!independent(&a, &b));
        let c = ev(3, 3, EventClass::Crash);
        assert!(!independent(&a, &c));
    }

    #[test]
    fn disjoint_register_requests_commute() {
        let a = mem_req(1, 7, &write(RegId::one(1, 0)));
        let b = mem_req(2, 7, &write(RegId::one(1, 1)));
        assert!(independent(&a, &b));
        let c = mem_req(3, 7, &read(RegId::one(1, 2)));
        assert!(independent(&a, &c));
    }

    #[test]
    fn same_register_write_conflicts_with_read_and_write() {
        let w = mem_req(1, 7, &write(RegId::one(1, 5)));
        let w2 = mem_req(2, 7, &write(RegId::one(1, 5)));
        let r = mem_req(3, 7, &read(RegId::one(1, 5)));
        assert!(!independent(&w, &w2));
        assert!(!independent(&w, &r));
        // Two reads of the same register commute.
        let r2 = mem_req(4, 7, &read(RegId::one(1, 5)));
        assert!(independent(&r, &r2));
    }

    #[test]
    fn range_read_conflicts_with_matching_writes_only() {
        let scan = mem_req(
            1,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: Some(RegionSpec::row(2, 4)),
            },
        );
        let hit = mem_req(2, 7, &write(RegId::new(2, 4, 9, 0)));
        let miss_row = mem_req(3, 7, &write(RegId::new(2, 5, 9, 0)));
        let miss_space = mem_req(4, 7, &write(RegId::new(3, 4, 9, 0)));
        assert!(!independent(&scan, &hit));
        assert!(independent(&scan, &miss_row));
        assert!(independent(&scan, &miss_space));
        // An unrestricted scan conflicts with every write.
        let full = mem_req(
            5,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: None,
            },
        );
        assert!(!independent(&full, &miss_space));
    }

    #[test]
    fn perm_change_conflicts_with_everything_on_the_memory() {
        let perm = mem_req(
            1,
            7,
            &MemRequest::ChangePerm {
                region: MR,
                new: rdma_sim::Permission::read_only(),
            },
        );
        let r = mem_req(2, 7, &read(RegId::one(1, 0)));
        let w = mem_req(3, 7, &write(RegId::one(9, 9)));
        assert!(!independent(&perm, &r));
        assert!(!independent(&perm, &w));
        // ...but not with traffic at a different memory.
        let elsewhere = mem_req(4, 8, &read(RegId::one(1, 0)));
        assert!(independent(&perm, &elsewhere));
    }

    #[test]
    fn pattern_pattern_overlap_is_conservative() {
        use RegAccess::Pattern;
        // Same space, compatible coords: may overlap.
        assert!(may_overlap(
            Pattern(RegionSpec::row(1, 3)),
            Pattern(RegionSpec::Space(1))
        ));
        // Fixed differing coordinate: provably disjoint.
        assert!(!may_overlap(
            Pattern(RegionSpec::row(1, 3)),
            Pattern(RegionSpec::row(1, 4))
        ));
        // Different spaces: disjoint.
        assert!(!may_overlap(
            Pattern(RegionSpec::Space(1)),
            Pattern(RegionSpec::Space(2))
        ));
    }

    fn window(a: Option<u64>, b_lo: u64, b_hi: u64) -> RegionSpec {
        RegionSpec::Window {
            space: 1,
            a,
            b_lo,
            b_hi,
            c: Some(3),
        }
    }

    fn column(b: Option<u64>) -> RegionSpec {
        RegionSpec::Pattern {
            space: 1,
            a: None,
            b,
            c: Some(3),
        }
    }

    #[test]
    fn window_overlap_is_decided_by_the_second_coordinate() {
        use RegAccess::Pattern;
        let w = Pattern(window(None, 5, 10));
        // A fixed second coordinate inside or outside the window.
        assert!(!may_overlap(w, Pattern(column(Some(4)))));
        assert!(may_overlap(w, Pattern(column(Some(5)))));
        assert!(may_overlap(Pattern(column(Some(9))), w));
        assert!(!may_overlap(Pattern(column(Some(10))), w));
        assert!(may_overlap(w, Pattern(column(None))));
        // Two windows: half-open ranges that only touch are disjoint.
        assert!(!may_overlap(w, Pattern(window(None, 10, 20))));
        assert!(may_overlap(w, Pattern(window(None, 9, 20))));
        assert!(!may_overlap(w, Pattern(window(None, 0, 5))));
        // The other coordinates still separate.
        assert!(!may_overlap(
            Pattern(window(Some(1), 0, 20)),
            Pattern(window(Some(2), 0, 20))
        ));
        assert!(may_overlap(w, Pattern(RegionSpec::Space(1))));
        assert!(!may_overlap(w, Pattern(RegionSpec::Space(2))));
        // An empty window overlaps nothing but the conservative `All`.
        let empty = Pattern(window(None, 7, 7));
        assert!(!may_overlap(empty, Pattern(RegionSpec::Space(1))));
        assert!(!may_overlap(empty, w));
        assert!(may_overlap(empty, Pattern(RegionSpec::All)));
        // Single registers are tested by membership.
        assert!(may_overlap(w, RegAccess::Exact(RegId::new(1, 0, 7, 3))));
        assert!(!may_overlap(w, RegAccess::Exact(RegId::new(1, 0, 10, 3))));
    }

    #[test]
    fn window_range_read_conflicts_only_with_writes_inside_it() {
        let scan = mem_req(
            1,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: Some(window(None, 5, 10)),
            },
        );
        for (b, inside) in [(4, false), (5, true), (9, true), (10, false)] {
            let w = mem_req(2, 7, &write(RegId::new(1, 0, b, 3)));
            assert_eq!(independent(&scan, &w), !inside, "write at b = {b}");
        }
    }
}
