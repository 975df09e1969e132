//! The wait-free dispatch fast path.
//!
//! Every rank thread executes [`crate::runtime::XRayRuntime::dispatch`]
//! on its hottest loop, so the per-event path must not take a lock or
//! touch a shared cache line. Instead of a read-locked walk over the
//! registered objects, the runtime publishes an immutable
//! [`DispatchTable`] — flat per-object arrays of patch state, unpatch
//! generations, the precomputed trampoline fault-check result, and the
//! handler pointer — behind a single atomic pointer. Dispatch then is:
//!
//! 1. bump the thread's in-flight guard (a lazily claimed, cache-padded
//!    `ReaderSlot`),
//! 2. one atomic load of the current table,
//! 3. two array indexes (`patched[fid]`, and `unpatch_gen[fid]` only on
//!    the stale-tolerance path),
//! 4. call the handler through the table's own `Arc`.
//!
//! Publication (RCU-style) happens only on the cold path —
//! register/deregister, `set_handler`, and the patching family — while
//! the runtime's existing write lock is held, which serializes
//! publishers. The table is **copy-on-write per object**: a publisher
//! rebuilds only the [`ObjectDispatch`] entries its mutation touched and
//! shares every other entry with the superseded table as an `Arc`, so
//! repatch/`set_rate`/DSO churn cost O(touched objects), independent of
//! how many objects are loaded. A publisher swaps the pointer and then
//! waits for every registered reader slot's in-flight count to drain to
//! zero before dropping the superseded table, so readers never observe
//! a freed table. Readers are wait-free (two uncontended atomic RMWs on
//! their own slot plus one atomic load); publishers block briefly,
//! which is the right trade for a path that runs once per epoch rather
//! than once per event.
//!
//! The same slots carry the `dispatches`/`stale_dispatches` counters,
//! killing the cache-line ping-pong the old global `AtomicU64` pair
//! paid on every event. Slots are claimed per thread/rank on demand and
//! recycled on thread exit — see the `slots` module for the registry
//! and the quiescence argument under dynamic claims.

use crate::handler::Handler;
use crate::slots::{ReaderSlot, SlotRegistry};
use crate::trampoline::TrampolineFault;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// Immutable per-object slice of a [`DispatchTable`].
#[derive(Debug, PartialEq)]
pub struct ObjectDispatch {
    /// XRay object ID (== index in [`DispatchTable::objects`]).
    pub object_id: u8,
    /// Index in the loader's object list.
    pub process_index: usize,
    /// Patch state by XRay function ID.
    pub patched: Box<[bool]>,
    /// Generation at which each function was last unpatched (0 = never).
    pub unpatch_gen: Box<[u64]>,
    /// Precomputed trampoline soundness check for this object: `Some`
    /// means every dispatch through it faults (e.g. absolute trampolines
    /// in a relocated DSO).
    pub fault: Option<TrampolineFault>,
    /// Object function index → XRay function ID.
    pub fid_by_func: Box<[Option<u32>]>,
    /// Per-function sampling rate (1-in-N) by XRay function ID. Rate 1
    /// is full instrumentation; the sampled fast path delivers only
    /// every N-th event per rank and counts the rest as skips.
    pub rate: Box<[u32]>,
}

/// An immutable snapshot of everything the per-event path needs,
/// published atomically by the cold-path mutators.
///
/// Object entries are individually `Arc`ed so a publisher can share the
/// untouched ones with the superseded table (copy-on-write): two
/// consecutive tables typically differ in one entry and alias the rest.
pub struct DispatchTable {
    /// Patch generation this table describes.
    pub generation: u64,
    /// Indexed by XRay object ID. Entries untouched by the publishing
    /// mutation are shared (`Arc::ptr_eq`) with the previous table.
    pub objects: Vec<Option<Arc<ObjectDispatch>>>,
    /// The registered event handler, if any. Kept inside the table so
    /// dispatch never clones an `Arc` — the table's own lifetime pins
    /// the handler.
    pub handler: Option<Arc<dyn Handler>>,
}

impl DispatchTable {
    /// The empty table an empty runtime starts from.
    pub(crate) fn empty() -> Self {
        Self {
            generation: 0,
            objects: Vec::new(),
            handler: None,
        }
    }

    /// The entry for `object_id`, if registered.
    #[inline]
    pub fn object(&self, object_id: u8) -> Option<&ObjectDispatch> {
        self.objects
            .get(object_id as usize)
            .and_then(|o| o.as_deref())
    }
}

/// The atomically swapped table slot.
///
/// Invariant: `ptr` always holds a pointer produced by
/// `Arc::into_raw` whose strong count this cell logically owns; it is
/// reclaimed either by [`TableCell::publish`] (after quiescence) or by
/// `Drop`.
pub(crate) struct TableCell {
    ptr: AtomicPtr<DispatchTable>,
}

// Debug-build reentrancy sentinel: depth of `DispatchGuard`s alive on
// the current thread. Publishing from inside a guard (e.g. a handler's
// `on_event` calling `set_handler` or a patching API) would make the
// publisher wait on its own slot forever; even a *read*-lock runtime
// API called from a handler can deadlock against a publisher that
// holds the write lock while waiting for the handler's slot to
// drain. In debug builds we turn both silent livelocks into a panic.
#[cfg(debug_assertions)]
thread_local! {
    static GUARD_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Debug-build check that the current thread is not inside a dispatch
/// guard — called before every acquisition of the runtime's inner lock
/// (read or write). A handler reaching such an API from `on_event` can
/// deadlock against a publisher's quiescence wait; this converts the
/// hang into a diagnosable panic. No-op in release builds.
#[inline]
pub(crate) fn debug_assert_not_dispatching(api: &str) {
    #[cfg(debug_assertions)]
    GUARD_DEPTH.with(|d| {
        assert_eq!(
            d.get(),
            0,
            "`{api}` called from inside a dispatch (e.g. from a handler's \
             on_event): this can deadlock against a concurrent \
             DispatchTable publisher waiting for in-flight dispatches \
             to drain"
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = api;
}

impl TableCell {
    pub(crate) fn new(table: Arc<DispatchTable>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(table).cast_mut()),
        }
    }

    /// Publishes `new` and reclaims the superseded table once every
    /// in-flight dispatch has drained. Returns the measured wall-clock
    /// duration of the quiescence wait in nanoseconds (telemetry only —
    /// nothing deterministic may depend on it).
    ///
    /// Must only be called while the runtime's write lock is held:
    /// that serializes publishers, so exactly one thread ever waits on
    /// the reader slots at a time.
    pub(crate) fn publish(&self, new: Arc<DispatchTable>, slots: &SlotRegistry) -> u64 {
        debug_assert_not_dispatching("DispatchTable publish");
        let old = self
            .ptr
            .swap(Arc::into_raw(new).cast_mut(), Ordering::SeqCst);
        let wait_start = std::time::Instant::now();
        // Quiescence: any reader that loaded `old` incremented its
        // slot *before* loading the pointer (both SeqCst), so once a
        // slot reads zero after our SeqCst swap, no reader on that
        // slot still holds `old`. Readers arriving after the swap see
        // the new table and are unaffected.
        //
        // The wait set is snapshotted *after* the swap: slot claims are
        // serialized through the registry's list mutex, so a slot
        // claimed after this snapshot belongs to a reader that can only
        // observe the new table — skipping it is sound.
        //
        // Progress bound: each thread/rank owns its own slot (until the
        // `CAPI_READER_SLOTS_MAX` overflow fallback kicks in), so a
        // slot's count returns to zero between every pair of events and
        // the wait is bounded by one dispatch duration per slot.
        for s in slots.quiescence_set() {
            let mut spins = 0u32;
            while s.in_flight.load(Ordering::SeqCst) != 0 {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let quiescence_ns = wait_start.elapsed().as_nanos() as u64;
        // SAFETY: `old` came from `Arc::into_raw` (cell invariant) and
        // the quiescence wait above proves no reader still borrows it.
        drop(unsafe { Arc::from_raw(old.cast_const()) });
        quiescence_ns
    }
}

impl Drop for TableCell {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        // SAFETY: the cell owns the strong count behind `p` (invariant);
        // `&mut self` proves no guard can be alive.
        drop(unsafe { Arc::from_raw(p.cast_const()) });
    }
}

/// RAII guard pinning the current table for one dispatch.
///
/// While the guard lives, the publisher's quiescence wait cannot
/// complete, so the `&DispatchTable` it hands out stays valid.
pub(crate) struct DispatchGuard<'a> {
    slot: &'a ReaderSlot,
    table: &'a DispatchTable,
}

impl<'a> DispatchGuard<'a> {
    /// Enters the fast path: bumps the slot's in-flight count, then
    /// loads the current table.
    #[inline]
    pub(crate) fn enter(cell: &'a TableCell, slot: &'a ReaderSlot) -> Self {
        #[cfg(debug_assertions)]
        GUARD_DEPTH.with(|d| d.set(d.get() + 1));
        slot.in_flight.fetch_add(1, Ordering::SeqCst);
        let p = cell.ptr.load(Ordering::SeqCst);
        // SAFETY: the increment above is ordered before this load
        // (SeqCst), so a publisher swapping afterwards waits for this
        // guard before freeing the table behind `p`.
        let table = unsafe { &*p };
        Self { slot, table }
    }

    /// The pinned table; the borrow cannot outlive the guard.
    #[inline]
    pub(crate) fn table(&self) -> &DispatchTable {
        self.table
    }
}

impl Drop for DispatchGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.slot.in_flight.fetch_sub(1, Ordering::Release);
        #[cfg(debug_assertions)]
        GUARD_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::NullHandler;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    fn table_with_gen(generation: u64) -> Arc<DispatchTable> {
        Arc::new(DispatchTable {
            generation,
            objects: Vec::new(),
            handler: Some(Arc::new(NullHandler)),
        })
    }

    #[test]
    fn publish_swaps_and_reclaims() {
        let slots = SlotRegistry::with_max(8);
        let cell = TableCell::new(table_with_gen(0));
        {
            let g = DispatchGuard::enter(&cell, slots.slot_for(0));
            assert_eq!(g.table().generation, 0);
        }
        cell.publish(table_with_gen(1), &slots);
        let g = DispatchGuard::enter(&cell, slots.slot_for(3));
        assert_eq!(g.table().generation, 1);
    }

    /// Readers hammering the table while a publisher swaps it over and
    /// over: every read sees a coherent table (monotone generations,
    /// handler present), and nothing crashes or leaks under the
    /// quiescence protocol. The publisher keeps publishing until every
    /// reader has observably overlapped with the swapping. Readers use
    /// dynamically claimed slots — more readers than `max` exercises
    /// the shared-overflow fallback too.
    #[test]
    fn concurrent_publish_and_read_stress() {
        const READERS: usize = 4;
        let slots = SlotRegistry::with_max(3);
        let cell = TableCell::new(table_with_gen(0));
        let stop = AtomicBool::new(false);
        let reads: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();
        let mut published = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..READERS {
                let cell = &cell;
                let slots = &slots;
                let stop = &stop;
                let reads = &reads;
                handles.push(scope.spawn(move || {
                    let slot = slots.slot_for(t as u32);
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let g = DispatchGuard::enter(cell, slot);
                        let tab = g.table();
                        assert!(tab.generation >= last, "generations monotone per reader");
                        assert!(tab.handler.is_some());
                        last = tab.generation;
                        reads[t].fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            // ≥ 1,000 publishes, and keep going until every reader has
            // performed reads while publishes were happening.
            while published < 1_000 || reads.iter().any(|r| r.load(Ordering::Relaxed) < 100) {
                published += 1;
                cell.publish(table_with_gen(published), &slots);
            }
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().unwrap();
            }
        });
        let g = DispatchGuard::enter(&cell, slots.control());
        assert_eq!(g.table().generation, published);
    }
}
