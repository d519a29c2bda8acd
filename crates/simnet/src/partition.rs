//! Partitioned parallel simulation kernel: deterministic multi-threaded
//! discrete-event execution.
//!
//! [`Simulation`] dispatches every event on one OS thread, so experiments
//! whose *virtual-time* throughput scales (e.g. the sharded multi-group SMR
//! service: disjoint groups sharing no state) are still wall-clock-bound by
//! single-core dispatch. [`ParSimulation`] removes that bound while keeping
//! the kernel's defining property — every run is a pure function of its
//! seed — *independently of how many worker threads execute it*.
//!
//! # Synchronization protocol (conservative windows)
//!
//! Actors are placed onto `P` partitions (the [`Partitioning`] map). Each
//! partition is a complete sub-kernel: its own bucketed calendar queue, its
//! own scheduling-sequence counter, its own generation-stamped timer table,
//! its own metrics and obs recorder, and its own RNG stream (split from the
//! run seed by partition index). Each partition dispatches through the
//! same event-dispatch body as [`Simulation`]; the one difference is where
//! an emitted event goes. The run alternates two phases:
//!
//! 1. **Window execution.** Let `T` be the minimum next-event time across
//!    all partitions and `L` the *lookahead* — a lower bound on every
//!    cross-partition link delay. Each partition independently dispatches
//!    all of its events with time `< T + L`. Sends to co-located actors go
//!    straight into the local queue (any delay, including sub-lookahead
//!    timers and same-tick messages, is fine); sends to remote actors are
//!    staged into a per-destination **outbox** in emission order.
//! 2. **Barrier merge.** After every partition reaches the window end, the
//!    coordinator drains all outboxes into the destination partitions'
//!    queues in a fixed order (source partition 0..P, emission order within
//!    each), assigning destination-local sequence numbers; then the next
//!    window is computed, the caller's stop predicate is evaluated, and the
//!    cycle repeats.
//!
//! # Why the result is thread-count-invariant
//!
//! A cross-partition message sent at `t ≥ T` arrives at `t + d ≥ T + L`,
//! i.e. strictly after the current window — so within a window, partitions
//! are causally independent and each sub-kernel's execution is a pure
//! function of its own pre-window state. Worker threads only ever execute
//! *whole partitions within one window*; the assignment of partitions to
//! threads affects nothing observable. Every remaining source of order —
//! intra-partition `(time, seq)` dispatch, merge order at barriers, RNG
//! streams, window boundaries, predicate checks — is fixed by the seed and
//! the partitioning alone. Hence: same seed + same partitioning ⇒
//! bit-identical runs (states, metrics, traces) for **any** thread count,
//! which `tests/` pins with 1-vs-2-vs-4-thread differential runs.
//!
//! The price is the lookahead requirement: every cross-partition send must
//! sample a delay `≥ L` (checked at staging time; violating it panics
//! rather than silently reordering), and `L` must be positive. Placement
//! therefore matters: co-locate tightly-coupled actors (a replication
//! group's replicas and memories), and let only latency-tolerant traffic
//! (a router's submissions and commit observations) cross partitions.
//!
//! # Example
//!
//! ```
//! use simnet::{Actor, Context, Duration, EventKind, ParSimulation, Time};
//!
//! struct Echo;
//! impl Actor<u32> for Echo {
//!     fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: EventKind<u32>) {
//!         if let EventKind::Msg { from, msg } = ev {
//!             if msg < 3 {
//!                 ctx.send(from, msg + 1); // crosses partitions: 1 delay ≥ L
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim: ParSimulation<u32> = ParSimulation::new(7, 2, Duration::DELAY);
//! let a = sim.add_to(0, Echo);
//! let b = sim.add_to(1, Echo);
//! sim.schedule(Time::ZERO, a, EventKind::Msg { from: b, msg: 0 });
//! sim.set_threads(2);
//! sim.run_to_quiescence(Time::from_delays(100));
//! assert_eq!(sim.merged_metrics().messages_delivered, 4);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, ActorView, AnyActor};
use crate::delay::DelayModel;
use crate::event::EventKind;
use crate::ids::ActorId;
use crate::metrics::Metrics;
use crate::obs;
use crate::queue::{Payload, WheelQueue};
use crate::sim::{Core, RunOutcome};
use crate::time::{Duration, Time};

/// An event staged for another partition: `(arrival time, target, event)`.
type StagedEvent<M> = (Time, ActorId, EventKind<M>);

/// The actor → partition placement of a [`ParSimulation`].
///
/// Built incrementally by [`ParSimulation::add_to`]; actor ids stay dense
/// and global (assigned in registration order, exactly as in
/// [`crate::Simulation`]) — partitioning changes *where* an actor executes,
/// never its identity.
#[derive(Clone, Debug)]
pub struct Partitioning {
    parts: usize,
    of: Vec<u32>,
}

impl Partitioning {
    /// An empty placement over `parts` partitions.
    pub fn new(parts: usize) -> Partitioning {
        assert!(parts >= 1, "need at least one partition");
        Partitioning {
            parts,
            of: Vec::new(),
        }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of placed actors.
    pub fn len(&self) -> usize {
        self.of.len()
    }

    /// Whether no actor has been placed yet.
    pub fn is_empty(&self) -> bool {
        self.of.is_empty()
    }

    /// Places the next actor (dense id order) on `partition`, returning
    /// its id.
    pub fn place(&mut self, partition: usize) -> ActorId {
        assert!(partition < self.parts, "partition out of range");
        let id = ActorId(self.of.len() as u32);
        self.of.push(partition as u32);
        id
    }

    /// The partition actor `a` executes on.
    pub fn partition_of(&self, a: ActorId) -> usize {
        self.of[a.index()] as usize
    }

    /// The raw placement map, indexed by actor id.
    pub fn map(&self) -> &[u32] {
        &self.of
    }
}

/// One partition's complete sub-kernel: queue, dispatch core (clock,
/// timers, RNG stream, metrics, obs recorder), actors, and
/// per-destination outboxes.
struct SubKernel<M> {
    part: u32,
    core: Core<M>,
    queue: WheelQueue<M>,
    /// Actor storage, indexed by *global* actor id; `Some` only for actors
    /// placed on this partition.
    actors: Vec<Option<Box<dyn AnyActor<M> + Send>>>,
    /// Events staged for other partitions during the current window, in
    /// emission order, one queue per destination partition.
    outbox: Vec<Vec<StagedEvent<M>>>,
}

impl<M: 'static> SubKernel<M> {
    fn new(part: u32, parts: usize, rng: StdRng) -> SubKernel<M> {
        let mut core = Core::new(rng);
        // Events this sub-kernel records carry its partition index, so a
        // merged stream stays attributable (and deterministically ordered).
        core.obs.set_partition(part);
        SubKernel {
            part,
            core,
            queue: WheelQueue::new(),
            actors: Vec::new(),
            outbox: (0..parts).map(|_| Vec::new()).collect(),
        }
    }

    /// Dispatches every queued event with time `< window_end` through the
    /// shared dispatch body ([`Core::dispatch`]): sends to co-located
    /// actors re-enter the local queue, remote sends are staged for the
    /// barrier merge.
    fn step_window(&mut self, window_end: Time, placement: &[u32], lookahead: Duration) {
        while self.queue.next_time().is_some_and(|t| t < window_end) {
            let depth = self.queue.len() as u64;
            let sched = self.queue.pop().expect("peeked non-empty");
            let (now, from, part) = (sched.at, sched.to, self.part as usize);
            let (queue, outbox) = (&mut self.queue, &mut self.outbox);
            self.core
                .dispatch(sched, depth, &mut self.actors, |at, to, ev| {
                    let dest = placement[to.index()] as usize;
                    if dest == part {
                        queue.schedule(at, to, Payload::Deliver(ev));
                    } else {
                        assert!(
                            at >= now + lookahead,
                            "cross-partition send {from} -> {to} at {at:?} beats the \
                             lookahead {lookahead:?}: the partitioning is unsound for \
                             this delay model",
                        );
                        outbox[dest].push((at, to, ev));
                    }
                });
        }
    }
}

/// Read access to every actor of a [`ParSimulation`] at a barrier (the
/// stop predicate's view) or after a run ([`ParSimulation::with_actors`]).
pub struct ParActors<'a, M> {
    guards: Vec<MutexGuard<'a, SubKernel<M>>>,
    of: &'a [u32],
}

impl<M: 'static> ActorView for ParActors<'_, M> {
    fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        let part = *self.of.get(id.index())? as usize;
        self.guards[part]
            .actors
            .get(id.index())?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }
}

/// Reusable hybrid barrier: spins briefly (multi-core fast path), then
/// yields (so oversubscribed runs — more threads than cores — stay
/// correct, merely slower). Sense-reversing via a generation counter.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins = spins.saturating_add(1);
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Per-round control published by the coordinator to the worker threads.
struct RoundCtl {
    window_end: AtomicU64,
    stop: AtomicBool,
    barrier: SpinBarrier,
}

/// What the coordinator decided at a barrier.
enum Ctl {
    Stop(RunOutcome),
    Window(Time),
}

/// A deterministic discrete-event simulation over message type `M`, split
/// into partitions that execute in parallel. See the [module docs]
/// (self) for the synchronization protocol and the determinism argument.
///
/// Differences from [`crate::Simulation`]:
///
/// * Actors are registered with an explicit partition
///   ([`ParSimulation::add_to`]) and must be `Send`.
/// * Randomness is split per partition, and the stop predicate is
///   evaluated at window barriers rather than between single events — so a
///   partitioned run is a *different* (equally legal) schedule than the
///   monolithic kernel's for the same seed. What is guaranteed is
///   invariance in the thread count: for a fixed seed and partitioning,
///   runs with 1, 2, or any number of worker threads are bit-identical.
/// * Delay hooks are unsupported (they could undercut the lookahead).
pub struct ParSimulation<M> {
    parts: Vec<Mutex<SubKernel<M>>>,
    plan: Partitioning,
    lookahead: Duration,
    threads: usize,
    started: bool,
    reached: Time,
    /// Merge scratch: staged events collected per destination partition.
    inbound: Vec<Vec<StagedEvent<M>>>,
}

impl<M: Send + 'static> ParSimulation<M> {
    /// Creates an empty partitioned simulation: `parts` sub-kernels whose
    /// RNG streams are split from `seed`, synchronized with the given
    /// `lookahead` (a lower bound on every cross-partition link delay;
    /// must be positive — with zero lookahead no two partitions could
    /// ever safely run in parallel).
    pub fn new(seed: u64, parts: usize, lookahead: Duration) -> ParSimulation<M> {
        assert!(parts >= 1, "need at least one partition");
        assert!(
            lookahead > Duration::ZERO,
            "partitioned execution needs a positive lookahead"
        );
        let kernels = (0..parts)
            .map(|p| {
                // SplitMix-style stream separation: partition p's stream is
                // a function of (seed, p) only, never of the thread count.
                let stream = seed.wrapping_add((p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Mutex::new(SubKernel::new(
                    p as u32,
                    parts,
                    StdRng::seed_from_u64(stream),
                ))
            })
            .collect();
        ParSimulation {
            parts: kernels,
            plan: Partitioning::new(parts),
            lookahead,
            threads: 1,
            started: false,
            reached: Time::ZERO,
            inbound: (0..parts).map(|_| Vec::new()).collect(),
        }
    }

    /// Sets how many OS threads execute windows (clamped to
    /// `1..=partitions` at run time). The thread count never affects
    /// results — only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The lookahead this simulation synchronizes on.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// The actor placement built so far.
    pub fn partitioning(&self) -> &Partitioning {
        &self.plan
    }

    /// Registers `actor` on `partition`, returning its (global, dense)
    /// id. Ids are assigned in registration order across all partitions,
    /// exactly as in [`crate::Simulation::add`]; every sub-kernel keeps a
    /// global-length actor table (`None` for actors it does not own) so
    /// dispatch indexes by global id with no translation.
    pub fn add_to<T: Actor<M> + Send>(&mut self, partition: usize, actor: T) -> ActorId {
        self.add_boxed_to(partition, Box::new(actor))
    }

    /// Registers a boxed actor on `partition` (see [`ParSimulation::add_to`]).
    pub fn add_boxed_to(
        &mut self,
        partition: usize,
        actor: Box<dyn AnyActor<M> + Send>,
    ) -> ActorId {
        assert!(!self.started, "cannot add actors after the run started");
        let id = self.plan.place(partition);
        let mut boxed = Some(actor);
        for (p, kernel) in self.parts.iter_mut().enumerate() {
            let k = kernel.get_mut().expect("unpoisoned");
            k.actors
                .push(if p == partition { boxed.take() } else { None });
        }
        id
    }

    /// Number of registered actors, across all partitions.
    pub fn actor_count(&self) -> usize {
        self.plan.len()
    }

    /// Sets the delay model used by links with no per-link override, on
    /// every partition. Cross-partition links must never sample below the
    /// lookahead; that is checked per message at staging time.
    pub fn set_default_delay(&mut self, model: DelayModel) {
        for kernel in &mut self.parts {
            kernel.get_mut().expect("unpoisoned").core.default_delay = model.clone();
        }
    }

    /// Overrides the delay model of the directed link `from -> to` (the
    /// model is sampled by the *sender's* partition).
    pub fn set_link_delay(&mut self, from: ActorId, to: ActorId, model: DelayModel) {
        let p = self.plan.partition_of(from);
        self.parts[p]
            .get_mut()
            .expect("unpoisoned")
            .core
            .link_overrides
            .insert((from, to), model);
    }

    /// Schedules an event for delivery to `to` at `at` (clamped to the
    /// time the run has reached), e.g. scripted Ω announcements.
    pub fn schedule(&mut self, at: Time, to: ActorId, ev: EventKind<M>) {
        let at = at.max(self.reached);
        let p = self.plan.partition_of(to);
        self.parts[p]
            .get_mut()
            .expect("unpoisoned")
            .queue
            .schedule(at, to, Payload::Deliver(ev));
    }

    /// Schedules `actor` to crash at `at`: from that instant it receives
    /// no further events (the paper's failure semantics, exactly as in
    /// [`crate::Simulation::crash_at`]).
    pub fn crash_at(&mut self, actor: ActorId, at: Time) {
        let at = at.max(self.reached);
        let p = self.plan.partition_of(actor);
        self.parts[p]
            .get_mut()
            .expect("unpoisoned")
            .queue
            .schedule(at, actor, Payload::Crash);
    }

    /// Announces `leader` to every actor in `targets` at time `at`,
    /// emulating the Ω leader oracle.
    pub fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        for &t in targets {
            self.schedule(at, t, EventKind::LeaderChange { leader });
        }
    }

    /// The latest virtual time any partition has reached.
    pub fn now(&self) -> Time {
        self.reached
    }

    /// All partitions' metrics merged into one record: counters summed,
    /// queue peaks maxed, decision/abort instants unioned (earliest wins).
    pub fn merged_metrics(&mut self) -> Metrics {
        let mut merged = Metrics::new();
        for kernel in &mut self.parts {
            merged.absorb(&kernel.get_mut().expect("unpoisoned").core.metrics);
        }
        merged
    }

    /// Enables structured event recording (see [`crate::obs`]) on every
    /// partition. Strictly read-only: recording never perturbs the run.
    pub fn enable_obs(&mut self) {
        for kernel in &mut self.parts {
            kernel.get_mut().expect("unpoisoned").core.obs.enable();
        }
    }

    /// Drains every partition's recorded events into one stream, ordered
    /// by `(time, partition, per-partition seq)` — identical for any
    /// worker-thread count, since each partition's stream is.
    pub fn take_obs_events(&mut self) -> Vec<obs::Event> {
        let buffers = self
            .parts
            .iter_mut()
            .map(|k| k.get_mut().expect("unpoisoned").core.obs.take())
            .collect();
        obs::merge_events(buffers)
    }

    /// Per-partition peak event-queue depths, indexed by partition. Under
    /// partitioning a single global "peak queue length" is ambiguous
    /// (no global queue exists); this is the honest quantity, with
    /// [`ParSimulation::merged_metrics`]' `peak_queue_len` reporting their
    /// max.
    pub fn partition_peak_queue_lens(&mut self) -> Vec<u64> {
        self.parts
            .iter_mut()
            .map(|k| k.get_mut().expect("unpoisoned").core.metrics.peak_queue_len)
            .collect()
    }

    /// Locks every partition and hands the caller a read view of all
    /// actors (post-run state extraction).
    pub fn with_actors<R>(&mut self, f: impl FnOnce(&ParActors<'_, M>) -> R) -> R {
        let guards: Vec<MutexGuard<'_, SubKernel<M>>> = self
            .parts
            .iter()
            .map(|m| m.lock().expect("unpoisoned"))
            .collect();
        let view = ParActors {
            guards,
            of: self.plan.map(),
        };
        f(&view)
    }

    /// Whether `actor` has crashed.
    pub fn is_crashed(&mut self, actor: ActorId) -> bool {
        let p = self.plan.partition_of(actor);
        self.parts[p]
            .get_mut()
            .expect("unpoisoned")
            .core
            .is_crashed(actor)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.plan.len() {
            let to = ActorId(i as u32);
            let p = self.plan.partition_of(to);
            self.parts[p].get_mut().expect("unpoisoned").queue.schedule(
                Time::ZERO,
                to,
                Payload::Deliver(EventKind::Start),
            );
        }
    }

    /// Runs until the predicate holds (checked at window barriers), every
    /// queue drains, or virtual time passes `max`. The outcome — and every
    /// bit of kernel and actor state — is identical for any thread count.
    pub fn run_until<F>(&mut self, max: Time, mut pred: F) -> RunOutcome
    where
        F: FnMut(&ParActors<'_, M>) -> bool,
    {
        self.ensure_started();
        let threads = self.threads.clamp(1, self.parts.len());
        let lookahead = self.lookahead;
        // Split borrows once: workers share `parts`, the coordinator also
        // uses the merge scratch and placement map.
        let parts = &self.parts;
        let plan_of = self.plan.map();
        let inbound = &mut self.inbound;
        let reached = &mut self.reached;

        if threads == 1 {
            // Same control flow without thread machinery: the parallel
            // phase degenerates to a partition-order loop, which is
            // exactly what each worker would do — hence bit-identical.
            loop {
                match Self::control(parts, plan_of, inbound, reached, max, lookahead, &mut pred) {
                    Ctl::Stop(outcome) => return outcome,
                    Ctl::Window(end) => {
                        for kernel in parts {
                            kernel
                                .lock()
                                .expect("unpoisoned")
                                .step_window(end, plan_of, lookahead);
                        }
                    }
                }
            }
        }

        let ctl = RoundCtl {
            window_end: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            barrier: SpinBarrier::new(threads),
        };
        std::thread::scope(|scope| {
            for w in 1..threads {
                let ctl = &ctl;
                scope.spawn(move || loop {
                    // Round start: the coordinator has published the
                    // window (or the stop flag) before releasing this.
                    ctl.barrier.wait();
                    if ctl.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let end = Time(ctl.window_end.load(Ordering::Acquire));
                    let mut p = w;
                    while p < parts.len() {
                        parts[p]
                            .lock()
                            .expect("unpoisoned")
                            .step_window(end, plan_of, lookahead);
                        p += threads;
                    }
                    // Round end: hand the partitions back to the
                    // coordinator for the barrier merge.
                    ctl.barrier.wait();
                });
            }
            // Coordinator (doubles as worker 0). Workers are parked at the
            // round-start barrier whenever control runs, so locks are free.
            loop {
                match Self::control(parts, plan_of, inbound, reached, max, lookahead, &mut pred) {
                    Ctl::Stop(outcome) => {
                        ctl.stop.store(true, Ordering::Release);
                        ctl.barrier.wait(); // release workers into their exit
                        return outcome;
                    }
                    Ctl::Window(end) => {
                        ctl.window_end.store(end.0, Ordering::Release);
                        ctl.barrier.wait(); // start the round
                        let mut p = 0;
                        while p < parts.len() {
                            parts[p]
                                .lock()
                                .expect("unpoisoned")
                                .step_window(end, plan_of, lookahead);
                            p += threads;
                        }
                        ctl.barrier.wait(); // wait for the round to finish
                    }
                }
            }
        })
    }

    /// Runs until no events remain or virtual time passes `max`.
    pub fn run_to_quiescence(&mut self, max: Time) -> RunOutcome {
        self.run_until(max, |_| false)
    }

    /// The coordinator's barrier step: merge all outboxes (fixed source
    /// order ⇒ deterministic destination sequence numbers), advance the
    /// reached time, evaluate the stop predicate, and pick the next
    /// window `[T, T + lookahead)` from the global minimum next-event
    /// time `T`.
    #[allow(clippy::too_many_arguments)]
    fn control<F>(
        parts: &[Mutex<SubKernel<M>>],
        plan_of: &[u32],
        inbound: &mut [Vec<StagedEvent<M>>],
        reached: &mut Time,
        max: Time,
        lookahead: Duration,
        pred: &mut F,
    ) -> Ctl
    where
        F: FnMut(&ParActors<'_, M>) -> bool,
    {
        // Pass 1: collect every partition's staged events, per destination,
        // in source-partition order (append preserves emission order).
        for kernel in parts {
            let mut k = kernel.lock().expect("unpoisoned");
            for (dest, staged) in inbound.iter_mut().enumerate() {
                if !k.outbox[dest].is_empty() {
                    staged.append(&mut k.outbox[dest]);
                }
            }
        }
        // Pass 2: deliver inbound events (assigning destination-local
        // sequence numbers in the fixed merge order), find the global
        // minimum next-event time, and advance the reached clock.
        let mut next: Option<Time> = None;
        for (dest, kernel) in parts.iter().enumerate() {
            let mut k = kernel.lock().expect("unpoisoned");
            for (at, to, ev) in inbound[dest].drain(..) {
                k.queue.schedule(at, to, Payload::Deliver(ev));
            }
            if let Some(t) = k.queue.next_time() {
                next = Some(next.map_or(t, |n: Time| n.min(t)));
            }
            *reached = (*reached).max(k.core.now);
        }
        // Stop checks, in the same order as `Simulation::run_until`:
        // predicate first, then quiescence, then the time budget.
        {
            let guards: Vec<MutexGuard<'_, SubKernel<M>>> = parts
                .iter()
                .map(|m| m.lock().expect("unpoisoned"))
                .collect();
            let view = ParActors {
                guards,
                of: plan_of,
            };
            if pred(&view) {
                return Ctl::Stop(RunOutcome::Predicate);
            }
        }
        match next {
            None => Ctl::Stop(RunOutcome::Quiescent),
            Some(t) if t > max => Ctl::Stop(RunOutcome::TimeLimit),
            // Cap the window at the budget: events past `max` stay queued,
            // exactly as the monolithic kernel leaves them undispatched.
            Some(t) => Ctl::Window(Time((t + lookahead).0.min(max.0 + 1))),
        }
    }
}

impl<M: Send + 'static> std::fmt::Debug for ParSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSimulation")
            .field("partitions", &self.parts.len())
            .field("actors", &self.plan.len())
            .field("threads", &self.threads)
            .field("lookahead", &self.lookahead)
            .field("reached", &self.reached)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;

    #[derive(Debug, Clone)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
    }

    struct Ponger {
        seen: Vec<u32>,
    }
    impl Actor<TMsg> for Ponger {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            if let EventKind::Msg {
                from,
                msg: TMsg::Ping(n),
            } = ev
            {
                self.seen.push(n);
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    struct Pinger {
        target: ActorId,
        rounds: u32,
        pongs: Vec<u32>,
        done_at: Option<Time>,
    }
    impl Actor<TMsg> for Pinger {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => ctx.send(self.target, TMsg::Ping(0)),
                EventKind::Msg {
                    msg: TMsg::Pong(n), ..
                } => {
                    self.pongs.push(n);
                    if n + 1 < self.rounds {
                        ctx.send(self.target, TMsg::Ping(n + 1));
                    } else {
                        ctx.mark_decided();
                        self.done_at = Some(ctx.now());
                    }
                }
                _ => {}
            }
        }
    }

    /// A jittered many-to-many gossip spanning every partition; each node
    /// also arms (and half the time cancels) a local timer per message, so
    /// the run exercises queues, timers, RNG draws and cross-partition
    /// staging together.
    struct Gossip {
        peers: u32,
        fanout: u32,
        received: u64,
        last_timer: Option<crate::TimerId>,
    }
    impl Actor<TMsg> for Gossip {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for i in 0..self.fanout {
                        let to = ActorId((ctx.me().0 + i + 1) % self.peers);
                        ctx.send(to, TMsg::Ping(6));
                    }
                }
                EventKind::Msg {
                    msg: TMsg::Ping(h), ..
                } if h > 0 => {
                    self.received += 1;
                    let mix = (ctx.me().0 as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(ctx.now().0)
                        .wrapping_add(h as u64);
                    let to = ActorId((mix % self.peers as u64) as u32);
                    ctx.send(to, TMsg::Ping(h - 1));
                    if let Some(id) = self.last_timer.take() {
                        ctx.cancel_timer(id);
                    }
                    if mix.is_multiple_of(2) {
                        self.last_timer =
                            Some(ctx.set_timer(Duration::from_delays(1 + (mix % 5)), h as u64));
                    }
                }
                EventKind::Msg { .. } => self.received += 1,
                _ => {}
            }
        }
    }

    fn gossip_run(threads: usize, parts: usize) -> (Vec<u64>, Metrics, Time) {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(42, parts, Duration::from_delays(1));
        sim.set_default_delay(DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(4),
        });
        let n = 24u32;
        for i in 0..n {
            sim.add_to(
                i as usize % parts,
                Gossip {
                    peers: n,
                    fanout: 3,
                    received: 0,
                    last_timer: None,
                },
            );
        }
        sim.set_threads(threads);
        let out = sim.run_to_quiescence(Time::from_delays(10_000));
        assert_eq!(out, RunOutcome::Quiescent);
        let received = sim.with_actors(|v| {
            (0..n)
                .map(|i| v.actor_as::<Gossip>(ActorId(i)).unwrap().received)
                .collect()
        });
        let metrics = sim.merged_metrics();
        let now = sim.now();
        (received, metrics, now)
    }

    /// Differential pin for the shared dispatch body: a one-partition
    /// [`ParSimulation`] is the monolithic kernel under another driver, so
    /// on the same seed (partition 0's RNG stream *is* the seed) every
    /// observable — outcome, clock, actor state, every metric, the
    /// queue-depth series and the full obs stream — must match bit for bit.
    #[test]
    fn one_partition_matches_the_monolithic_kernel() {
        let n = 24u32;
        let gossip = || Gossip {
            peers: n,
            fanout: 3,
            received: 0,
            last_timer: None,
        };
        let jitter = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(4),
        };
        let (crashed, max) = (ActorId(5), Time::from_delays(10_000));

        let mut mono: crate::Simulation<TMsg> = crate::Simulation::new(42);
        mono.set_default_delay(jitter.clone());
        for _ in 0..n {
            mono.add(gossip());
        }
        mono.crash_at(crashed, Time::from_delays(7));
        mono.enable_obs();
        let mono_out = mono.run_to_quiescence(max);

        let mut par: ParSimulation<TMsg> = ParSimulation::new(42, 1, Duration::from_delays(1));
        par.set_default_delay(jitter);
        for _ in 0..n {
            par.add_to(0, gossip());
        }
        par.crash_at(crashed, Time::from_delays(7));
        par.enable_obs();
        assert_eq!(par.run_to_quiescence(max), mono_out);
        assert_eq!(mono_out, RunOutcome::Quiescent);

        assert_eq!(par.now(), mono.now());
        fn received(view: &impl ActorView, n: u32) -> Vec<u64> {
            (0..n)
                .map(|i| view.actor_as::<Gossip>(ActorId(i)).unwrap().received)
                .collect()
        }
        assert_eq!(par.with_actors(|v| received(v, n)), received(&mono, n));
        assert!(par.is_crashed(crashed) && mono.is_crashed(crashed));

        let (a, b) = (par.merged_metrics(), mono.metrics().clone());
        assert_eq!(a.events_dispatched, b.events_dispatched);
        assert_eq!(a.dispatches, b.dispatches);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.timers_fired, b.timers_fired);
        assert_eq!(
            (a.mem_reads, a.mem_writes, a.mem_range_reads, a.perm_changes),
            (b.mem_reads, b.mem_writes, b.mem_range_reads, b.perm_changes)
        );
        assert_eq!(a.peak_queue_len, b.peak_queue_len);
        assert_eq!(a.queue_depth_samples(), b.queue_depth_samples());
        assert_eq!(a.queue_sample_stride(), b.queue_sample_stride());
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.aborts(), b.aborts());
        // The run must exercise what the shared body does: timers (fired
        // and cancelled), a crash, and drops to the crashed actor.
        assert!(b.timers_fired > 0 && b.dispatches.crash == 1 && b.dispatches.dropped > 0);

        let (pa, mo) = (par.take_obs_events(), mono.take_obs_events());
        assert!(!mo.is_empty());
        assert_eq!(pa, mo, "obs streams differ");
    }

    #[test]
    fn thread_count_never_changes_the_run() {
        let baseline = gossip_run(1, 4);
        for threads in [2, 3, 4, 8] {
            let run = gossip_run(threads, 4);
            assert_eq!(baseline.0, run.0, "{threads} threads: actor states differ");
            assert_eq!(
                baseline.1.events_dispatched, run.1.events_dispatched,
                "{threads} threads: event counts differ"
            );
            assert_eq!(baseline.1.messages_sent, run.1.messages_sent);
            assert_eq!(baseline.1.messages_delivered, run.1.messages_delivered);
            assert_eq!(baseline.1.timers_fired, run.1.timers_fired);
            assert_eq!(baseline.1.peak_queue_len, run.1.peak_queue_len);
            assert_eq!(baseline.2, run.2, "{threads} threads: clocks differ");
        }
    }

    #[test]
    fn partition_count_is_part_of_the_seed_contract() {
        // Different partitionings are different (each deterministic) runs.
        let a = gossip_run(1, 2);
        let b = gossip_run(2, 2);
        assert_eq!(a.0, b.0);
        let c = gossip_run(1, 4);
        assert_eq!(
            a.1.messages_delivered, c.1.messages_delivered,
            "gossip volume is fixed by fanout, not partitioning"
        );
    }

    #[test]
    fn cross_partition_round_trip_keeps_latency() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(1, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 3,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.set_threads(2);
        let out = sim.run_to_quiescence(Time::from_delays(100));
        assert_eq!(out, RunOutcome::Quiescent);
        sim.with_actors(|v| {
            let p = v.actor_as::<Pinger>(pinger).unwrap();
            assert_eq!(p.pongs, vec![0, 1, 2]);
            // Same delay accounting as the monolithic kernel: 2 delays per
            // round trip, barriers add no virtual time.
            assert_eq!(p.done_at, Some(Time::from_delays(6)));
        });
        assert_eq!(sim.merged_metrics().first_decision_delays(), Some(6.0));
    }

    #[test]
    fn crash_silences_remote_actor() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(1, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 5,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.crash_at(ponger, Time::from_delays(3));
        sim.set_threads(2);
        sim.run_to_quiescence(Time::from_delays(100));
        assert!(sim.is_crashed(ponger));
        sim.with_actors(|v| {
            let p = v.actor_as::<Pinger>(pinger).unwrap();
            // The ping landing at t=3 is dropped: only round 0 completes.
            assert_eq!(p.pongs, vec![0]);
        });
    }

    #[test]
    fn predicate_stops_at_a_barrier() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(9, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 50,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        let out = sim.run_until(Time::from_delays(1_000), |v| {
            v.actor_as::<Pinger>(pinger)
                .is_some_and(|p| p.pongs.len() >= 2)
        });
        assert_eq!(out, RunOutcome::Predicate);
        assert!(sim.now() < Time::from_delays(1_000));
    }

    #[test]
    fn time_limit_respected() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(9, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 1_000,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        let out = sim.run_to_quiescence(Time::from_delays(7));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert!(sim.now() <= Time::from_delays(7));
    }

    #[test]
    #[should_panic(expected = "beats the lookahead")]
    fn undercutting_the_lookahead_is_detected() {
        // Links sample 1 delay but the caller claims a 2-delay lookahead:
        // the first cross-partition send must panic, not reorder silently.
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(3, 2, Duration::from_delays(2));
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 1,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.run_to_quiescence(Time::from_delays(100));
    }

    #[test]
    fn placement_api_is_dense_and_queryable() {
        let mut plan = Partitioning::new(3);
        assert!(plan.is_empty());
        assert_eq!(plan.place(2), ActorId(0));
        assert_eq!(plan.place(0), ActorId(1));
        assert_eq!(plan.place(2), ActorId(2));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.parts(), 3);
        assert_eq!(plan.partition_of(ActorId(0)), 2);
        assert_eq!(plan.partition_of(ActorId(1)), 0);
        assert_eq!(plan.map(), &[2, 0, 2]);
    }

    #[test]
    fn obs_events_are_thread_count_invariant() {
        let traced_run = |threads: usize| {
            let mut sim: ParSimulation<TMsg> = ParSimulation::new(42, 4, Duration::from_delays(1));
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(4),
            });
            let n = 24u32;
            for i in 0..n {
                sim.add_to(
                    i as usize % 4,
                    Gossip {
                        peers: n,
                        fanout: 3,
                        received: 0,
                        last_timer: None,
                    },
                );
            }
            sim.enable_obs();
            sim.set_threads(threads);
            sim.run_to_quiescence(Time::from_delays(10_000));
            (
                sim.take_obs_events(),
                sim.merged_metrics().events_dispatched,
            )
        };
        let (events1, dispatched1) = traced_run(1);
        assert!(!events1.is_empty());
        // Recording is read-only: the untraced gossip baseline dispatches
        // the same events.
        assert_eq!(dispatched1, gossip_run(1, 4).1.events_dispatched);
        for threads in [2, 4] {
            let (events_t, _) = traced_run(threads);
            assert_eq!(
                events1, events_t,
                "{threads} threads: merged obs streams differ"
            );
        }
    }

    #[test]
    fn merged_metrics_take_max_of_partition_peaks() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(5, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 4,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.run_to_quiescence(Time::from_delays(100));
        let peaks = sim.partition_peak_queue_lens();
        assert_eq!(peaks.len(), 2);
        assert_eq!(
            sim.merged_metrics().peak_queue_len,
            peaks.iter().copied().max().unwrap()
        );
    }
}
