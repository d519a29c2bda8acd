//! Per-layer accounting for the traced run: the timing shim every actor is
//! wrapped in, and the counting global allocator that charges each
//! allocation to the layer whose handler is running.
//!
//! All state is thread-local, so concurrent self-tests never see each
//! other's counts. Counting is off until [`Recording::start`]; when off the
//! allocator costs one thread-local flag read per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use simnet::{Actor, Context, EventKind};

/// The layers of the deployment, named after the modules that implement
/// them. `Simnet` is the kernel: everything that runs outside a handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Simnet = 0,
    RdmaSim = 1,
    Smr = 2,
    SmrByz = 3,
    Sharded = 4,
}

pub const LAYERS: usize = 5;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Simnet,
        Layer::RdmaSim,
        Layer::Smr,
        Layer::SmrByz,
        Layer::Sharded,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::RdmaSim => "rdma-sim",
            Layer::Smr => "smr",
            Layer::SmrByz => "smr-byz",
            Layer::Sharded => "sharded",
        }
    }
}

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(Layer::Simnet as usize) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static BUSY_NS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static CALLS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

/// The system allocator, counting allocations (and reallocations) per
/// layer while a [`Recording`] is active on the calling thread.
pub struct CountingAlloc;

fn count_alloc() {
    // `try_with`: the allocator also runs while thread-locals are being
    // torn down; nothing is recorded then.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let layer = CURRENT.with(Cell::get);
            ALLOCS.with(|a| a[layer].set(a[layer].get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` contract is the one `System` relies on. Counting
// touches only const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Wraps one actor: forwards `on_event` unchanged and charges its wall
/// time, call count and allocations to `layer`.
pub struct Timed<A> {
    pub inner: A,
    layer: Layer,
}

impl<A> Timed<A> {
    pub fn new(layer: Layer, inner: A) -> Timed<A> {
        Timed { inner, layer }
    }
}

impl<M, A: Actor<M>> Actor<M> for Timed<A> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, ev: EventKind<M>) {
        let l = self.layer as usize;
        CURRENT.with(|c| c.set(l));
        let start = Instant::now();
        self.inner.on_event(ctx, ev);
        let ns = start.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(Layer::Simnet as usize));
        BUSY_NS.with(|b| b[l].set(b[l].get() + ns));
        CALLS.with(|c| c[l].set(c[l].get() + 1));
    }
}

/// What one layer did during a recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerUsage {
    /// Wall seconds inside the layer's handlers (for `Simnet`: the
    /// recording's wall time minus every handler's).
    pub busy_s: f64,
    /// Handler invocations (0 for `Simnet`).
    pub calls: u64,
    /// Allocations made while the layer was running.
    pub allocs: u64,
}

/// A per-layer recording window on the current thread.
pub struct Recording {
    start: Instant,
}

impl Recording {
    /// Clears the thread's counters and starts counting.
    pub fn start() -> Recording {
        for cells in [&ALLOCS, &BUSY_NS, &CALLS] {
            cells.with(|a| a.iter().for_each(|c| c.set(0)));
        }
        CURRENT.with(|c| c.set(Layer::Simnet as usize));
        COUNTING.with(|c| c.set(true));
        Recording {
            start: Instant::now(),
        }
    }

    /// Stops counting; returns the recording's wall seconds and the
    /// per-layer usage, indexed by [`Layer`].
    pub fn stop(self) -> (f64, [LayerUsage; LAYERS]) {
        let wall = self.start.elapsed().as_secs_f64();
        COUNTING.with(|c| c.set(false));
        let mut usage = [LayerUsage::default(); LAYERS];
        for (l, u) in usage.iter_mut().enumerate() {
            u.busy_s = BUSY_NS.with(|b| b[l].get()) as f64 * 1e-9;
            u.calls = CALLS.with(|c| c[l].get());
            u.allocs = ALLOCS.with(|a| a[l].get());
        }
        let handlers: f64 = usage[1..].iter().map(|u| u.busy_s).sum();
        usage[Layer::Simnet as usize].busy_s = wall - handlers;
        (wall, usage)
    }
}
