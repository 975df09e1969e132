//! Dynamic per-thread reader-slot registration.
//!
//! The dispatch fast path used to map ranks onto a fixed array of 64
//! counter/guard stripes by `rank & 63`. That cap had two costs at
//! scale: ranks beyond 64 folded onto shared stripes (so two folded
//! ranks with overlapping dispatch windows could keep a stripe's
//! in-flight count permanently nonzero and stall a publisher's
//! quiescence wait), and per-rank counter attribution silently aliased.
//!
//! [`SlotRegistry`] replaces the fixed array with a growable set of
//! cache-padded [`ReaderSlot`]s:
//!
//! * A thread claims a slot **lazily** on its first dispatch for a given
//!   rank; the claim is cached in a thread-local so the steady-state
//!   fast path is a short thread-local vector scan plus two uncontended
//!   atomic RMWs on a line no other thread writes.
//! * When the thread exits, its claims are **recycled**: the slot's
//!   counters are folded into a per-rank retired-totals accumulator and
//!   the slot index returns to a free list, so a later claimant starts
//!   from zero and never inherits a departed thread's
//!   `dispatches`/`sampled_skips`.
//! * Growth is bounded by the `CAPI_READER_SLOTS_MAX` knob (default
//!   4096). Beyond the bound, claims fall back to *sharing* an existing
//!   slot (`rank % allocated`) — aggregate counters stay exact, per-rank
//!   attribution degrades to folded, and the publisher's wait set stops
//!   growing. Zero is rejected: with no slots there is nowhere to count
//!   an in-flight dispatch, and the quiescence protocol would be
//!   unsound.
//!
//! A publisher's quiescence wait snapshots the slot list *after* its
//! SeqCst pointer swap. Claims are serialized through the same mutex
//! that guards the list, so any slot claimed after the snapshot was
//! taken belongs to a reader that can only ever observe the new table —
//! the publisher never needs to wait on it.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Default cap on allocated reader slots when `CAPI_READER_SLOTS_MAX`
/// is unset: comfortably above any rank count the simulator drives
/// while bounding the publisher's quiescence scan.
pub(crate) const DEFAULT_READER_SLOTS_MAX: usize = 4096;

/// One cache-padded reader slot: the in-flight dispatch guard plus the
/// event counters for the thread/rank that currently owns it.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct ReaderSlot {
    /// Dispatches currently inside the fast path on this slot. A
    /// publisher may not free a superseded table until every slot
    /// reads zero at least once after the pointer swap.
    pub in_flight: AtomicU64,
    /// Events dispatched to the handler.
    pub dispatches: AtomicU64,
    /// Dispatches tolerated through the stale-snapshot path.
    pub stale_dispatches: AtomicU64,
    /// Sampled-mode dispatches skipped by the 1-in-N counter (the sled
    /// fired but the event was not delivered to the handler).
    pub sampled_skips: AtomicU64,
    /// Rank the current claimant attributes its counters to
    /// (telemetry-only; counters themselves are exact regardless).
    pub rank: AtomicU32,
}

/// Event-counter totals of one rank: folded out of recycled slots (the
/// retired accumulator), or live plus retired (see
/// [`SlotRegistry::totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CounterTotals {
    /// Events dispatched to the handler.
    pub dispatches: u64,
    /// Stale-tolerated dispatches.
    pub stale_dispatches: u64,
    /// Sampled-mode skips.
    pub sampled_skips: u64,
}

impl CounterTotals {
    fn add(&mut self, other: CounterTotals) {
        self.dispatches += other.dispatches;
        self.stale_dispatches += other.stale_dispatches;
        self.sampled_skips += other.sampled_skips;
    }
}

struct SlotList {
    /// Grow-only storage: a slot's `Arc` is never removed, so a raw
    /// `&ReaderSlot` handed to the fast path stays valid for the
    /// registry's lifetime.
    slots: Vec<Arc<ReaderSlot>>,
    /// Indexes of recycled slots available for the next claimant.
    free: Vec<usize>,
}

pub(crate) struct RegistryInner {
    /// Process-unique registry identity, so one thread's claim cache can
    /// hold claims against several runtimes without confusing them.
    id: u64,
    max_slots: usize,
    list: Mutex<SlotList>,
    /// Dedicated slot for control-plane readers (`is_patched`,
    /// `sample_rate`): a polling control thread must not share a slot with
    /// a rank and starve the publisher by overlapping its windows.
    control: Arc<ReaderSlot>,
    /// Fold-on-release accumulator: counters of departed claimants,
    /// keyed by the rank they were attributed to.
    retired: Mutex<BTreeMap<u32, CounterTotals>>,
}

impl RegistryInner {
    /// Claims a slot for `rank`: recycles a free slot, grows the list,
    /// or — past `max_slots` — falls back to sharing an existing slot.
    fn claim(self: &Arc<Self>, rank: u32) -> ClaimedSlot {
        let mut list = self.list.lock();
        let (index, owned) = if let Some(i) = list.free.pop() {
            // Recycled slot: release already folded + zeroed its
            // counters, so the new claimant starts from scratch.
            (i, true)
        } else if list.slots.len() < self.max_slots {
            list.slots.push(Arc::new(ReaderSlot::default()));
            (list.slots.len() - 1, true)
        } else {
            // Over the cap: share. Aggregate counters stay exact, but
            // attribution folds onto the host slot's rank and the slot
            // is never recycled by this claimant.
            (rank as usize % list.slots.len(), false)
        };
        let slot = Arc::clone(&list.slots[index]);
        if owned {
            slot.rank.store(rank, Ordering::Relaxed);
        }
        ClaimedSlot {
            registry_id: self.id,
            rank,
            index,
            owned,
            slot,
            registry: Arc::downgrade(self),
        }
    }

    /// Recycles a departed claimant's slot: folds its counters into the
    /// retired accumulator under its attributed rank, then returns the
    /// index to the free list. Holding the list lock across the fold
    /// serializes against the next claim, so the claimant can never see
    /// a half-folded slot.
    fn release(&self, index: usize) {
        let mut list = self.list.lock();
        let slot = Arc::clone(&list.slots[index]);
        let rank = slot.rank.load(Ordering::Relaxed);
        let folded = CounterTotals {
            dispatches: slot.dispatches.swap(0, Ordering::Relaxed),
            stale_dispatches: slot.stale_dispatches.swap(0, Ordering::Relaxed),
            sampled_skips: slot.sampled_skips.swap(0, Ordering::Relaxed),
        };
        self.retired.lock().entry(rank).or_default().add(folded);
        list.free.push(index);
    }
}

/// The growable reader-slot registry owned by one runtime.
pub(crate) struct SlotRegistry {
    inner: Arc<RegistryInner>,
}

/// Parses `CAPI_READER_SLOTS_MAX`. Zero (or garbage) is rejected back
/// to the default: a registry with no slots could not count an
/// in-flight dispatch anywhere, which would void the publisher's
/// quiescence guarantee.
fn slots_max_from_env() -> usize {
    match std::env::var("CAPI_READER_SLOTS_MAX") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => DEFAULT_READER_SLOTS_MAX,
        },
        Err(_) => DEFAULT_READER_SLOTS_MAX,
    }
}

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

impl SlotRegistry {
    pub(crate) fn new() -> Self {
        Self::with_max(slots_max_from_env())
    }

    /// Registry with an explicit slot cap (`max` is clamped to ≥ 1 for
    /// the same soundness reason `slots_max_from_env` rejects zero).
    pub(crate) fn with_max(max: usize) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                max_slots: max.max(1),
                list: Mutex::new(SlotList {
                    slots: Vec::new(),
                    free: Vec::new(),
                }),
                control: Arc::new(ReaderSlot::default()),
                retired: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The control-plane slot (`is_patched`/`sample_rate` readers).
    #[inline]
    pub(crate) fn control(&self) -> &ReaderSlot {
        &self.inner.control
    }

    /// The calling thread's slot for `rank`, claiming one on first use.
    ///
    /// Steady state is a linear scan of the thread's (tiny) claim cache
    /// — no lock, no shared write outside the returned slot.
    #[inline]
    pub(crate) fn slot_for(&self, rank: u32) -> &ReaderSlot {
        let id = self.inner.id;
        let ptr = CLAIMS.with(|claims| {
            let mut claims = claims.borrow_mut();
            if let Some(c) = claims
                .claims
                .iter()
                .find(|c| c.registry_id == id && c.rank == rank)
            {
                return Arc::as_ptr(&c.slot);
            }
            let claim = self.inner.claim(rank);
            let p = Arc::as_ptr(&claim.slot);
            claims.claims.push(claim);
            p
        });
        // SAFETY: the registry's slot storage is grow-only — every
        // slot's Arc (and the claim cache's own clone) stays alive at
        // least as long as `self`, so the pointer dereferences to a
        // live slot for the duration of the returned borrow.
        unsafe { &*ptr }
    }

    /// Every slot the publisher must wait on: all allocated rank slots
    /// plus the control slot. Snapshotting *after* the pointer swap is
    /// what makes the dynamic claim protocol sound (see module docs).
    pub(crate) fn quiescence_set(&self) -> Vec<Arc<ReaderSlot>> {
        let list = self.inner.list.lock();
        let mut slots = list.slots.clone();
        slots.push(Arc::clone(&self.inner.control));
        slots
    }

    /// Per-rank event-counter totals: every allocated rank slot (control
    /// excluded; free-listed slots are zeroed, so folding them is exact)
    /// plus the retired totals of departed claimants.
    ///
    /// Both halves are read under the `list` lock that
    /// [`RegistryInner::release`] holds while it moves a slot's counters
    /// into the retired totals, so a release can land wholly before or
    /// wholly after this fold — never between its two reads, where it
    /// would be counted twice.
    pub(crate) fn totals(&self) -> BTreeMap<u32, CounterTotals> {
        let list = self.inner.list.lock();
        let mut totals: BTreeMap<u32, CounterTotals> = BTreeMap::new();
        for slot in &list.slots {
            totals
                .entry(slot.rank.load(Ordering::Relaxed))
                .or_default()
                .add(CounterTotals {
                    dispatches: slot.dispatches.load(Ordering::Relaxed),
                    stale_dispatches: slot.stale_dispatches.load(Ordering::Relaxed),
                    sampled_skips: slot.sampled_skips.load(Ordering::Relaxed),
                });
        }
        #[cfg(test)]
        between_reads::run(&self.inner.list);
        for (&rank, &retired) in self.inner.retired.lock().iter() {
            totals.entry(rank).or_default().add(retired);
        }
        totals
    }

    /// Per-rank counter totals folded out of recycled slots.
    #[cfg(test)]
    pub(crate) fn retired_totals(&self) -> BTreeMap<u32, CounterTotals> {
        self.inner.retired.lock().clone()
    }

    /// Number of allocated slots (claimed + free-listed, control
    /// excluded). Grows on demand, never shrinks.
    pub(crate) fn allocated(&self) -> usize {
        self.inner.list.lock().slots.len()
    }

    /// Pre-claims the calling thread's slot for `rank`, so the first
    /// dispatch doesn't pay the claim lock.
    pub(crate) fn register(&self, rank: u32) {
        let _ = self.slot_for(rank);
    }
}

/// One cached claim held by a thread.
struct ClaimedSlot {
    registry_id: u64,
    rank: u32,
    index: usize,
    owned: bool,
    slot: Arc<ReaderSlot>,
    registry: Weak<RegistryInner>,
}

#[derive(Default)]
struct ThreadClaims {
    claims: Vec<ClaimedSlot>,
}

impl Drop for ThreadClaims {
    fn drop(&mut self) {
        for claim in self.claims.drain(..) {
            if !claim.owned {
                continue; // shared overflow slot: the host claim recycles it
            }
            if let Some(registry) = claim.registry.upgrade() {
                registry.release(claim.index);
            }
        }
    }
}

thread_local! {
    /// The calling thread's claim cache; its `Drop` at thread exit is
    /// what recycles slots.
    static CLAIMS: RefCell<ThreadClaims> = RefCell::new(ThreadClaims::default());
}

/// Test hook run by [`SlotRegistry::totals`] between its live-slot read
/// and its retired-totals read — the window a concurrent release must
/// never land in.
#[cfg(test)]
pub(crate) mod between_reads {
    use super::SlotList;
    use parking_lot::Mutex;
    use std::cell::RefCell;

    type Hook = Box<dyn FnOnce(bool)>;

    thread_local! {
        static HOOK: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Arms `hook` for the calling thread's next fold. It is told
    /// whether a slot release could run at that point, i.e. whether the
    /// slot-list lock that `release` takes is free.
    pub(crate) fn arm(hook: impl FnOnce(bool) + 'static) {
        HOOK.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
    }

    pub(super) fn run(list: &Mutex<SlotList>) {
        if let Some(hook) = HOOK.with(|h| h.borrow_mut().take()) {
            // Probe and release the lock before the hook runs: a guard
            // held across the call would block the release it admits.
            let release_can_run = list.try_lock().is_some();
            hook(release_can_run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_cached_and_reused_per_rank() {
        let reg = SlotRegistry::with_max(8);
        let a = reg.slot_for(3) as *const ReaderSlot;
        let b = reg.slot_for(3) as *const ReaderSlot;
        assert_eq!(a, b, "same thread+rank reuses the cached claim");
        let c = reg.slot_for(4) as *const ReaderSlot;
        assert_ne!(a, c, "distinct ranks get distinct slots");
        assert_eq!(reg.allocated(), 2);
    }

    #[test]
    fn distinct_registries_do_not_share_claims() {
        let r1 = SlotRegistry::with_max(8);
        let r2 = SlotRegistry::with_max(8);
        r1.slot_for(0).dispatches.fetch_add(5, Ordering::Relaxed);
        assert_eq!(r2.slot_for(0).dispatches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn thread_exit_recycles_slot_and_folds_counters() {
        let reg = SlotRegistry::with_max(8);
        std::thread::scope(|s| {
            s.spawn(|| {
                let slot = reg.slot_for(7);
                slot.dispatches.fetch_add(3, Ordering::Relaxed);
                slot.sampled_skips.fetch_add(2, Ordering::Relaxed);
            })
            .join()
            .unwrap();
        });
        // Counters folded under rank 7, slot back on the free list.
        let retired = reg.retired_totals();
        assert_eq!(retired[&7].dispatches, 3);
        assert_eq!(retired[&7].sampled_skips, 2);
        assert_eq!(reg.allocated(), 1);

        // A new claimant (same rank, different thread) starts from zero:
        // departed counters live in `retired`, never in the new stripe.
        std::thread::scope(|s| {
            s.spawn(|| {
                let slot = reg.slot_for(7);
                assert_eq!(slot.dispatches.load(Ordering::Relaxed), 0);
                assert_eq!(slot.sampled_skips.load(Ordering::Relaxed), 0);
                slot.dispatches.fetch_add(1, Ordering::Relaxed);
            })
            .join()
            .unwrap();
        });
        assert_eq!(reg.allocated(), 1, "slot was recycled, not re-allocated");
        assert_eq!(reg.retired_totals()[&7].dispatches, 4);
    }

    #[test]
    fn overflow_claims_share_without_recycling() {
        let reg = SlotRegistry::with_max(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Ranks 0 and 1 fill the registry; ranks 2 and 3 share.
                let s0 = reg.slot_for(0) as *const ReaderSlot;
                let s1 = reg.slot_for(1) as *const ReaderSlot;
                let s2 = reg.slot_for(2) as *const ReaderSlot;
                let s3 = reg.slot_for(3) as *const ReaderSlot;
                assert_ne!(s0, s1);
                assert_eq!(s2, s0, "overflow folds by rank % allocated");
                assert_eq!(s3, s1);
                reg.slot_for(2).dispatches.fetch_add(9, Ordering::Relaxed);
            })
            .join()
            .unwrap();
        });
        assert_eq!(reg.allocated(), 2);
        // Only the two owned claims folded; the shared claim's events
        // were folded once (through the host slot), not twice.
        let retired = reg.retired_totals();
        let total: u64 = retired.values().map(|t| t.dispatches).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn quiescence_set_includes_control() {
        let reg = SlotRegistry::with_max(8);
        reg.register(0);
        let set = reg.quiescence_set();
        assert_eq!(set.len(), 2);
        assert!(set.iter().any(|s| std::ptr::eq(s.as_ref(), reg.control())));
    }

    #[test]
    fn zero_max_is_clamped() {
        let reg = SlotRegistry::with_max(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                reg.slot_for(0).dispatches.fetch_add(1, Ordering::Relaxed);
                reg.slot_for(9).dispatches.fetch_add(1, Ordering::Relaxed);
            })
            .join()
            .unwrap();
        });
        assert_eq!(reg.allocated(), 1);
        let total: u64 = reg.retired_totals().values().map(|t| t.dispatches).sum();
        assert_eq!(total, 2);
    }
}
