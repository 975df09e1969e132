//! The XRay runtime (`xray-rt` + the paper's new `xray-dso`).
//!
//! Responsibilities reproduced from §V-A/§V-B:
//!
//! * resolve each object's sled table at registration time,
//! * assign object IDs — the main executable is always object 0, DSOs get
//!   1..=255, and registration beyond 255 DSOs fails,
//! * patch/unpatch sleds by flipping page protection (`mprotect`),
//!   rewriting the sled bytes, and restoring protection,
//! * deliver events from patched sleds to the single registered handler
//!   through the per-object trampolines (position-independent for DSOs),
//! * answer the ID↔address queries DynCaPI uses to cross-check its
//!   symbol mapping.
//!
//! Thread safety: rank threads dispatch concurrently; patching typically
//! happens during startup but is allowed at any time (that is the point
//! of *runtime-adaptable* instrumentation).

use crate::dispatch::{debug_assert_not_dispatching, DispatchGuard, TableCell};
use crate::handler::{Event, EventKind, Handler};
use crate::packed_id::{IdError, PackedId, MAX_FUNCTION_ID};
use crate::pass::InstrumentedObject;
use crate::sled::SLED_BYTES;
use crate::slots::SlotRegistry;
use crate::trampoline::{TrampolineFault, TrampolineSet};
use capi_objmodel::{AddressSpace, LoadedObject, MemError, PagePerms, PAGE_SIZE};
use capi_obs::{CounterId, HistogramId, HistogramKind, RecordKind, Telemetry, CONTROL_RANK};
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub use crate::dispatch::{DispatchTable, ObjectDispatch};

/// Runtime errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XRayError {
    /// The main executable must be registered before any DSO.
    MainMustBeFirst,
    /// Object 0 is already registered.
    MainAlreadyRegistered,
    /// All 255 DSO object IDs are in use.
    TooManyObjects,
    /// The object has more instrumented functions than fit in 24 bits.
    Id(IdError),
    /// No object with this ID is registered.
    UnknownObject(u8),
    /// The function ID is not present in the object's sled table.
    UnknownFunction(PackedId),
    /// Memory protection error during patching.
    Mem(MemError),
    /// Dispatch through an unsound trampoline.
    Fault(TrampolineFault),
    /// Dispatch to a sled that is not patched (stale snapshot).
    NotPatched(PackedId),
}

impl fmt::Display for XRayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XRayError::MainMustBeFirst => write!(f, "register the main executable first"),
            XRayError::MainAlreadyRegistered => write!(f, "main executable already registered"),
            XRayError::TooManyObjects => write!(f, "cannot register more than 255 DSOs"),
            XRayError::Id(e) => write!(f, "{e}"),
            XRayError::UnknownObject(o) => write!(f, "object {o} is not registered"),
            XRayError::UnknownFunction(id) => write!(f, "no sled for {id}"),
            XRayError::Mem(e) => write!(f, "patching failed: {e}"),
            XRayError::Fault(e) => write!(f, "{e}"),
            XRayError::NotPatched(id) => write!(f, "sled {id} is not patched"),
        }
    }
}

impl std::error::Error for XRayError {}

impl From<MemError> for XRayError {
    fn from(e: MemError) -> Self {
        XRayError::Mem(e)
    }
}

impl From<IdError> for XRayError {
    fn from(e: IdError) -> Self {
        XRayError::Id(e)
    }
}

/// Aggregate runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Objects currently registered.
    pub objects_registered: usize,
    /// Sled rewrites performed (patch + unpatch).
    pub sled_writes: u64,
    /// Events dispatched to the handler.
    pub dispatches: u64,
    /// Dispatches delivered through the stale-snapshot tolerance path
    /// (sled unpatched after the caller's snapshot was taken).
    pub stale_dispatches: u64,
    /// Batch [`XRayRuntime::repatch`] operations performed.
    pub repatches: u64,
    /// Sampled-mode dispatches skipped by the 1-in-N counter.
    pub sampled_skips: u64,
}

/// A batch of in-flight patch-state changes — what the adaptation
/// controller applies between epochs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatchDelta {
    /// Functions to patch (activate instrumentation).
    pub patch: Vec<PackedId>,
    /// Functions to unpatch (restore NOP sleds).
    pub unpatch: Vec<PackedId>,
    /// Per-function sampling rates to install (1-in-N; clamped to ≥ 1).
    /// Applied after the patch/unpatch state changes, so a delta that
    /// both patches a function and sets its rate ends sampled. Rate
    /// changes rewrite no sleds — they only republish the dispatch
    /// table.
    pub set_rate: Vec<(PackedId, u32)>,
}

impl PatchDelta {
    /// A delta that changes nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.patch.is_empty() && self.unpatch.is_empty() && self.set_rate.is_empty()
    }

    /// Total number of requested changes.
    pub fn len(&self) -> usize {
        self.patch.len() + self.unpatch.len() + self.set_rate.len()
    }
}

/// What a batch [`XRayRuntime::repatch`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepatchReport {
    /// Sleds rewritten to the patched state.
    pub sleds_patched: u64,
    /// Sleds restored to NOPs.
    pub sleds_unpatched: u64,
    /// `mprotect` pairs issued (one per touched object).
    pub mprotect_pairs: u64,
    /// Sampling-rate entries that changed a stored rate.
    pub rates_set: u64,
    /// Patch generation after the batch was applied.
    pub generation: u64,
    /// Objects the whole delta referenced but that were no longer
    /// registered — skipped by [`XRayRuntime::repatch_surviving`]
    /// instead of failing the batch (0 on the strict path).
    pub skipped_objects: u64,
    /// Individual delta entries dropped because their object or
    /// function was gone (0 on the strict path).
    pub skipped_entries: u64,
}

struct Registered {
    inst: InstrumentedObject,
    trampolines: TrampolineSet,
    process_index: usize,
    base: u64,
    relocated: bool,
    /// Patch state per XRay function ID.
    patched: Vec<bool>,
    /// Sampling rate (1-in-N) per XRay function ID; 1 = full
    /// instrumentation. Reset to 1 whenever a function transitions from
    /// unpatched to patched, so a restored function is re-measured at
    /// full fidelity until a policy demotes it again.
    rate: Vec<u32>,
    /// Generation at which each function was last *unpatched*; lets
    /// dispatch distinguish "never patched" (hard fault) from "unpatched
    /// after the caller's snapshot" (tolerated, in-flight adaptation).
    unpatch_gen: Vec<u64>,
    /// `(entry_offset, fid)` sorted by offset — the reverse-lookup index
    /// [`XRayRuntime::id_at_address`] binary-searches instead of walking
    /// every sled entry.
    addr_index: Vec<(u64, u32)>,
}

impl Registered {
    fn new(
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        process_index: usize,
        trampolines: TrampolineSet,
    ) -> Self {
        let n = inst.sleds.num_functions();
        let mut addr_index: Vec<(u64, u32)> = inst
            .sleds
            .entries
            .iter()
            .map(|e| (e.entry_offset, e.fid))
            .collect();
        addr_index.sort_unstable();
        Self {
            patched: vec![false; n],
            rate: vec![1; n],
            unpatch_gen: vec![0; n],
            addr_index,
            trampolines,
            process_index,
            base: loaded.base,
            relocated: !loaded.at_preferred_base,
            inst,
        }
    }

    /// The object's dispatch-table entry under XRay object ID `oid`.
    fn dispatch_entry(&self, oid: u8) -> ObjectDispatch {
        ObjectDispatch {
            object_id: oid,
            process_index: self.process_index,
            patched: self.patched.clone().into_boxed_slice(),
            unpatch_gen: self.unpatch_gen.clone().into_boxed_slice(),
            fault: self.trampolines.check_dispatch(self.relocated).err(),
            fid_by_func: self.inst.sleds.fid_by_func.clone().into_boxed_slice(),
            rate: self.rate.clone().into_boxed_slice(),
        }
    }
}

struct Inner {
    /// Index = object ID.
    objects: Vec<Option<Registered>>,
    handler: Option<Arc<dyn Handler>>,
    stats: RuntimeStats,
    /// The most recently published table — the copy-on-write source:
    /// the next publish clones this `Vec` of `Arc`s and rebuilds only
    /// the touched entries, sharing the rest.
    current: Arc<DispatchTable>,
}

/// Telemetry handles registered once per runtime: the shared
/// [`Telemetry`] instance plus the ids of the metrics this crate owns.
/// The dispatch fast path never touches these — its counters live on
/// the runtime's own reader slots and are *folded* into the registry by
/// [`XRayRuntime::sync_telemetry`] at publish/control points, so
/// enabling telemetry costs the hot path nothing.
struct ObsHandles {
    tel: Telemetry,
    dispatches: CounterId,
    stale: CounterId,
    skips: CounterId,
    publishes: CounterId,
    quiescence_wall: HistogramId,
    publish_wall: HistogramId,
}

/// The XRay runtime.
pub struct XRayRuntime {
    inner: RwLock<Inner>,
    generation: AtomicU64,
    /// The published dispatch fast-path snapshot; swapped atomically by
    /// the mutators above while they hold the `inner` write lock.
    table: TableCell,
    /// Dynamic per-thread/per-rank in-flight guards and event counters
    /// (dispatch is the hot path and runs concurrently on every rank
    /// thread). Slots are claimed lazily and recycled on thread exit.
    slots: SlotRegistry,
    /// Set-once self-telemetry wiring ([`Self::set_telemetry`]).
    obs: OnceLock<ObsHandles>,
}

impl Default for XRayRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl XRayRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        let empty = Arc::new(DispatchTable::empty());
        Self {
            inner: RwLock::new(Inner {
                objects: Vec::new(),
                handler: None,
                stats: RuntimeStats::default(),
                current: Arc::clone(&empty),
            }),
            generation: AtomicU64::new(0),
            table: TableCell::new(empty),
            slots: SlotRegistry::new(),
            obs: OnceLock::new(),
        }
    }

    /// Installs the run's telemetry instance and registers this crate's
    /// metrics. Set-once: a second call on the same runtime is ignored
    /// (the first instance keeps collecting), so a runtime reused
    /// across adaptive runs reports into its original registry.
    pub fn set_telemetry(&self, tel: Telemetry) {
        let _ = self.obs.set(ObsHandles {
            dispatches: tel.counter("xray.dispatches"),
            stale: tel.counter("xray.stale_dispatches"),
            skips: tel.counter("xray.sampled_skips"),
            publishes: tel.counter("xray.publishes"),
            quiescence_wall: tel.histogram("xray.quiescence_wall_ns", HistogramKind::Wall),
            publish_wall: tel.histogram("xray.publish_wall_ns", HistogramKind::Wall),
            tel,
        });
    }

    /// The telemetry instance installed by [`Self::set_telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.obs.get().map(|h| &h.tel)
    }

    /// Folds the reader slots' running totals (dispatches, stale
    /// dispatches, sampled skips) into the telemetry registry. Called
    /// after every publish and at run end; cheap enough (a relaxed load
    /// per allocated slot and a store per registry stripe) to call at
    /// any control point.
    ///
    /// Per-rank totals are summed across live slots *and* the
    /// retired-totals accumulator (departed threads), then folded onto
    /// the registry's fixed stripe set grouped by rank — so with more
    /// distinct ranks than registry stripes the stored values are exact
    /// stripe sums rather than last-writer-wins.
    pub fn sync_telemetry(&self) {
        let Some(h) = self.obs.get() else { return };
        let totals = self.slots.totals();
        h.tel
            .store_folded(h.dispatches, totals.iter().map(|(&r, t)| (r, t.dispatches)));
        h.tel.store_folded(
            h.stale,
            totals.iter().map(|(&r, t)| (r, t.stale_dispatches)),
        );
        h.tel
            .store_folded(h.skips, totals.iter().map(|(&r, t)| (r, t.sampled_skips)));
    }

    /// Pre-claims the calling thread's reader slot for `rank`, so the
    /// thread's first dispatch skips the one-time claim lock. Rank
    /// threads (e.g. the executor's) call this once at startup; calling
    /// it is never required for correctness — slots are claimed lazily
    /// on first dispatch.
    pub fn register_reader(&self, rank: u32) {
        self.slots.register(rank);
    }

    /// Number of reader slots currently allocated (claimed plus
    /// free-listed recycled ones; the control slot is not counted).
    pub fn reader_slots_allocated(&self) -> usize {
        self.slots.allocated()
    }

    /// Acquires the inner read lock. Must never be reached from a
    /// handler's `on_event` (a concurrent publisher holding the write
    /// lock waits for that very dispatch to drain — deadlock); debug
    /// builds panic on the misuse. Guard-based readers
    /// ([`Self::is_patched`], [`Self::sample_rate`], dispatch itself) are
    /// handler-safe.
    fn read_inner(&self, api: &str) -> parking_lot::RwLockReadGuard<'_, Inner> {
        debug_assert_not_dispatching(api);
        self.inner.read()
    }

    /// Acquires the inner write lock; same handler rule as
    /// [`Self::read_inner`].
    fn write_inner(&self, api: &str) -> parking_lot::RwLockWriteGuard<'_, Inner> {
        debug_assert_not_dispatching(api);
        self.inner.write()
    }

    /// Publishes a new dispatch table copy-on-write: only the entries
    /// for the objects in `touched` are rebuilt from the inner state;
    /// every other entry is shared with the previously published table
    /// as an `Arc` (an empty `touched` republishes with all entries
    /// shared — the handler-change path). This makes publish cost
    /// O(touched objects), independent of how many objects are loaded.
    ///
    /// Publication rules: must be called with the `inner` write lock
    /// held (serializing publishers), after the generation bump for the
    /// change being published, and before the lock is released — so
    /// every table pairs a generation with exactly the state it
    /// describes, and dispatchers always observe them together.
    fn publish_locked(&self, inner: &mut Inner, touched: &[u8]) {
        let mut objects = inner.current.objects.clone();
        // Registration can grow the object-ID space; the vec never
        // shrinks (deregistration vacates a slot in place).
        objects.resize_with(inner.objects.len(), || None);
        for &oid in touched {
            objects[oid as usize] = inner.objects[oid as usize]
                .as_ref()
                .map(|r| Arc::new(r.dispatch_entry(oid)));
        }
        let table = Arc::new(DispatchTable {
            generation: self.generation(),
            objects,
            handler: inner.handler.clone(),
        });
        inner.current = Arc::clone(&table);
        let publish_start = std::time::Instant::now();
        let quiescence_ns = self.table.publish(table, &self.slots);
        if let Some(h) = self.obs.get() {
            h.tel
                .observe_control(h.publish_wall, publish_start.elapsed().as_nanos() as u64);
            h.tel.observe_control(h.quiescence_wall, quiescence_ns);
            h.tel.add_control(h.publishes, 1);
            self.sync_telemetry();
            if h.tel.recorder_armed() {
                let patched: usize = inner
                    .current
                    .objects
                    .iter()
                    .flatten()
                    .map(|o| o.patched.iter().filter(|&&p| p).count())
                    .sum();
                h.tel.record(
                    CONTROL_RANK,
                    RecordKind::Repatch,
                    "xray.publish",
                    format!(
                        "gen={} touched={} patched={}",
                        inner.current.generation,
                        touched.len(),
                        patched
                    ),
                );
            }
        }
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Monotonic counter incremented on every state change; used by the
    /// executor to invalidate memoized quiet-subtree summaries.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Registers the main executable as object 0. Its trampolines may use
    /// absolute addressing because the executable runs at its preferred
    /// base.
    pub fn register_main(
        &self,
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        trampolines: TrampolineSet,
    ) -> Result<u8, XRayError> {
        let mut inner = self.write_inner("register_main");
        if !inner.objects.is_empty() {
            return Err(XRayError::MainAlreadyRegistered);
        }
        check_fid_capacity(&inst)?;
        inner
            .objects
            .push(Some(Registered::new(inst, loaded, 0, trampolines)));
        inner.stats.objects_registered += 1;
        self.bump();
        self.publish_locked(&mut inner, &[0]);
        drop(inner);
        Ok(0)
    }

    /// Registers a DSO (what the `xray-dso` runtime does from the DSO's
    /// load-time constructor), passing its sled table, its index in the
    /// loader's object list, and its local position-independent
    /// trampolines.
    pub fn register_dso(
        &self,
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        process_index: usize,
        trampolines: TrampolineSet,
    ) -> Result<u8, XRayError> {
        let mut inner = self.write_inner("register_dso");
        if inner.objects.is_empty() {
            return Err(XRayError::MainMustBeFirst);
        }
        check_fid_capacity(&inst)?;
        // Reuse a vacated slot (deregistered DSO) or append.
        let slot = inner.objects.iter().skip(1).position(Option::is_none);
        let object_id = match slot {
            Some(s) => s + 1,
            None => {
                if inner.objects.len() > u8::MAX as usize {
                    return Err(XRayError::TooManyObjects);
                }
                inner.objects.push(None);
                inner.objects.len() - 1
            }
        };
        inner.objects[object_id] = Some(Registered::new(inst, loaded, process_index, trampolines));
        inner.stats.objects_registered += 1;
        self.bump();
        self.publish_locked(&mut inner, &[object_id as u8]);
        drop(inner);
        Ok(object_id as u8)
    }

    /// Deregisters a DSO (called when the object is `dlclose`d).
    pub fn deregister(&self, object_id: u8) -> Result<(), XRayError> {
        let mut inner = self.write_inner("deregister");
        let slot = inner
            .objects
            .get_mut(object_id as usize)
            .ok_or(XRayError::UnknownObject(object_id))?;
        if slot.take().is_none() {
            return Err(XRayError::UnknownObject(object_id));
        }
        inner.stats.objects_registered -= 1;
        self.bump();
        self.publish_locked(&mut inner, &[object_id]);
        drop(inner);
        Ok(())
    }

    /// Installs the global event handler (`__xray_set_handler`).
    pub fn set_handler(&self, handler: Arc<dyn Handler>) {
        let mut inner = self.write_inner("set_handler");
        inner.handler = Some(handler);
        self.bump();
        // Handler-only change: every object entry is shared.
        self.publish_locked(&mut inner, &[]);
    }

    /// Removes the handler.
    pub fn clear_handler(&self) {
        let mut inner = self.write_inner("clear_handler");
        inner.handler = None;
        self.bump();
        self.publish_locked(&mut inner, &[]);
    }

    /// Patches all sleds of one function. Returns the number of sleds
    /// rewritten. Page protection is flipped around the writes.
    pub fn patch_function(&self, mem: &mut AddressSpace, id: PackedId) -> Result<u32, XRayError> {
        self.set_patch_state(mem, id, true)
    }

    /// Restores the NOP sleds of one function.
    pub fn unpatch_function(&self, mem: &mut AddressSpace, id: PackedId) -> Result<u32, XRayError> {
        self.set_patch_state(mem, id, false)
    }

    fn set_patch_state(
        &self,
        mem: &mut AddressSpace,
        id: PackedId,
        state: bool,
    ) -> Result<u32, XRayError> {
        let mut inner = self.write_inner("set_patch_state");
        let reg = inner
            .objects
            .get_mut(id.object() as usize)
            .and_then(Option::as_mut)
            .ok_or(XRayError::UnknownObject(id.object()))?;
        let entry = reg
            .inst
            .sleds
            .by_fid(id.function())
            .ok_or(XRayError::UnknownFunction(id))?;
        if reg.patched[id.function() as usize] == state {
            return Ok(0); // idempotent
        }
        let base = reg.base;
        let offsets: Vec<u64> = entry.offsets().map(|(o, _)| o).collect();
        // mprotect the page range covering this function's sleds.
        let lo = offsets.iter().min().copied().expect("entry sled exists");
        let hi = offsets.iter().max().copied().expect("entry sled exists") + SLED_BYTES;
        let page_lo = (base + lo) / PAGE_SIZE * PAGE_SIZE;
        let page_hi = (base + hi).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RWX)?;
        for off in &offsets {
            mem.checked_write(base + off, SLED_BYTES)?;
        }
        mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RX)?;
        reg.patched[id.function() as usize] = state;
        if state {
            reg.rate[id.function() as usize] = 1;
        }
        // Bump while still holding the write lock so snapshots always
        // pair a generation with the state it describes.
        let new_gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        if !state {
            reg.unpatch_gen[id.function() as usize] = new_gen;
        }
        let n = offsets.len() as u32;
        inner.stats.sled_writes += n as u64;
        self.publish_locked(&mut inner, &[id.object()]);
        drop(inner);
        Ok(n)
    }

    /// Patches every sled of an object in one pass (a single `mprotect`
    /// over the whole sled region — what XRay does at startup when no
    /// selection is active). Returns sleds rewritten.
    pub fn patch_all(&self, mem: &mut AddressSpace, object_id: u8) -> Result<u32, XRayError> {
        self.set_all(mem, object_id, true)
    }

    /// Patches a *set* of functions of one object with a single
    /// `mprotect` pair over the object's sled region — how DynCaPI
    /// applies an IC: flip the pages once, rewrite only the selected
    /// sleds, restore protection. Returns sleds rewritten.
    pub fn patch_functions(
        &self,
        mem: &mut AddressSpace,
        object_id: u8,
        fids: &[u32],
    ) -> Result<u32, XRayError> {
        if fids.is_empty() {
            return Ok(0);
        }
        let mut inner = self.write_inner("patch_functions");
        let reg = inner
            .objects
            .get_mut(object_id as usize)
            .and_then(Option::as_mut)
            .ok_or(XRayError::UnknownObject(object_id))?;
        let Some((lo, hi)) = reg.inst.sleds.sled_range() else {
            return Ok(0);
        };
        // Validate every fid before mutating anything (like `repatch`),
        // so a bad ID cannot leave half the batch written with no table
        // published.
        for &fid in fids {
            reg.inst.sleds.by_fid(fid).ok_or_else(|| {
                XRayError::UnknownFunction(
                    PackedId::pack(object_id, fid).unwrap_or(PackedId::from_raw(0)),
                )
            })?;
        }
        let base = reg.base;
        let page_lo = (base + lo) / PAGE_SIZE * PAGE_SIZE;
        let page_hi = (base + hi).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut written = 0u32;
        // Memory errors mid-batch can leave some flags flipped; publish
        // unconditionally below so the table never diverges from the
        // inner state, even on the error path.
        let res = (|| -> Result<(), XRayError> {
            mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RWX)?;
            for &fid in fids {
                let entry = reg.inst.sleds.by_fid(fid).expect("validated");
                if reg.patched[fid as usize] {
                    continue;
                }
                for (off, _) in entry.offsets() {
                    mem.checked_write(base + off, SLED_BYTES)?;
                    written += 1;
                }
                reg.patched[fid as usize] = true;
                reg.rate[fid as usize] = 1;
            }
            mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RX)?;
            Ok(())
        })();
        self.generation.fetch_add(1, Ordering::AcqRel);
        inner.stats.sled_writes += written as u64;
        self.publish_locked(&mut inner, &[object_id]);
        drop(inner);
        res.map(|()| written)
    }

    /// Unpatches every sled of an object.
    pub fn unpatch_all(&self, mem: &mut AddressSpace, object_id: u8) -> Result<u32, XRayError> {
        self.set_all(mem, object_id, false)
    }

    fn set_all(
        &self,
        mem: &mut AddressSpace,
        object_id: u8,
        state: bool,
    ) -> Result<u32, XRayError> {
        let mut inner = self.write_inner("set_all");
        let reg = inner
            .objects
            .get_mut(object_id as usize)
            .and_then(Option::as_mut)
            .ok_or(XRayError::UnknownObject(object_id))?;
        let Some((lo, hi)) = reg.inst.sleds.sled_range() else {
            return Ok(0);
        };
        let base = reg.base;
        let page_lo = (base + lo) / PAGE_SIZE * PAGE_SIZE;
        let page_hi = (base + hi).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut written = 0u32;
        let mut changed = Vec::new();
        // Publish unconditionally below: a memory error mid-pass leaves
        // some flags flipped, and the table must reflect them.
        let res = (|| -> Result<(), XRayError> {
            mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RWX)?;
            let num_funcs = reg.inst.sleds.num_functions();
            for fid in 0..num_funcs {
                if reg.patched[fid] == state {
                    continue;
                }
                let entry = reg.inst.sleds.by_fid(fid as u32).expect("fid in range");
                for (off, _) in entry.offsets() {
                    mem.checked_write(base + off, SLED_BYTES)?;
                    written += 1;
                }
                reg.patched[fid] = state;
                if state {
                    reg.rate[fid] = 1;
                }
                changed.push(fid);
            }
            mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RX)?;
            Ok(())
        })();
        let new_gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        if !state {
            for fid in changed {
                reg.unpatch_gen[fid] = new_gen;
            }
        }
        inner.stats.sled_writes += written as u64;
        self.publish_locked(&mut inner, &[object_id]);
        drop(inner);
        res.map(|()| written)
    }

    /// Applies a batch of patch *and* unpatch operations atomically with
    /// respect to snapshots — the in-flight adaptation primitive. Each
    /// touched object pays one `mprotect` pair; the patch generation is
    /// bumped once for the whole batch; functions unpatched here are
    /// remembered with the new generation so dispatches from snapshots
    /// that predate the batch are tolerated instead of faulting.
    ///
    /// When an ID appears in both lists the unpatch wins; duplicate IDs
    /// within a list are applied once.
    pub fn repatch(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
    ) -> Result<RepatchReport, XRayError> {
        self.repatch_inner(mem, delta, false)
    }

    /// Like [`Self::repatch`], but survives DSO churn: delta entries
    /// whose object was deregistered (or whose function has no sled in
    /// the currently-registered image, after a rebuild) are *skipped and
    /// counted* (`skipped_objects` / `skipped_entries` in the report)
    /// instead of failing the whole batch. This is the degradation mode
    /// an adaptation loop uses when an unload may race its decisions:
    /// never a panic, never a write through a recycled slot — a skipped
    /// entry simply leaves that object's sleds as they are.
    ///
    /// Memory faults (e.g. an injected `mprotect` failure) still
    /// propagate: they are environment failures, not staleness.
    pub fn repatch_surviving(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
    ) -> Result<RepatchReport, XRayError> {
        self.repatch_inner(mem, delta, true)
    }

    /// The one repatch path: [`Self::repatch`] is [`Self::repatch_surviving`]
    /// with zero tolerated skips.
    fn repatch_inner(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
        tolerant: bool,
    ) -> Result<RepatchReport, XRayError> {
        if delta.is_empty() {
            return Ok(RepatchReport {
                generation: self.generation(),
                ..Default::default()
            });
        }
        let span = self.obs.get().map(|h| h.tel.span("xray.repatch"));
        let wall_start = std::time::Instant::now();
        let mut inner = self.write_inner("repatch");
        // Group by object, one requested end-state per function; the
        // unpatch insertion overwrites any patch entry (unpatch wins).
        // BTreeMaps keep the application order stable.
        let mut by_obj: std::collections::BTreeMap<u8, std::collections::BTreeMap<u32, bool>> =
            std::collections::BTreeMap::new();
        for &id in &delta.patch {
            by_obj
                .entry(id.object())
                .or_default()
                .insert(id.function(), true);
        }
        for &id in &delta.unpatch {
            by_obj
                .entry(id.object())
                .or_default()
                .insert(id.function(), false);
        }
        // Requested sampling rates, grouped the same way; the last entry
        // for a function wins and rates are clamped to ≥ 1.
        let mut rates_by_obj: std::collections::BTreeMap<u8, std::collections::BTreeMap<u32, u32>> =
            std::collections::BTreeMap::new();
        for &(id, rate) in &delta.set_rate {
            rates_by_obj
                .entry(id.object())
                .or_default()
                .insert(id.function(), rate.max(1));
        }
        // One validation pass: entries that no longer resolve (the object
        // was deregistered, or its rebuilt image lost the function) are
        // dropped and counted. The tolerant path applies the rest; the
        // strict path tolerates zero skips and fails on the first
        // unknown entry, before anything is mutated.
        let mut skipped = Skipped::default();
        skipped.drop_unknown(&mut by_obj, &inner);
        skipped.drop_unknown(&mut rates_by_obj, &inner);
        if let (false, Some(err)) = (tolerant, skipped.first) {
            return Err(err);
        }
        let new_gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let mut report = RepatchReport {
            generation: new_gen,
            skipped_objects: skipped.objects.len() as u64,
            skipped_entries: skipped.entries,
            ..Default::default()
        };
        // Memory errors mid-batch can leave earlier objects applied;
        // publish unconditionally below so the table never diverges
        // from the inner state, even on the error path.
        let res = (|| -> Result<(), XRayError> {
            for (&oid, changes) in &by_obj {
                let reg = inner.objects[oid as usize].as_mut().expect("validated");
                let need: Vec<(u32, bool)> = changes
                    .iter()
                    .map(|(&fid, &state)| (fid, state))
                    .filter(|&(fid, state)| reg.patched[fid as usize] != state)
                    .collect();
                if need.is_empty() {
                    continue;
                }
                let Some((lo, hi)) = reg.inst.sleds.sled_range() else {
                    continue;
                };
                let base = reg.base;
                let page_lo = (base + lo) / PAGE_SIZE * PAGE_SIZE;
                let page_hi = (base + hi).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RWX)?;
                for (fid, state) in need {
                    let entry = reg.inst.sleds.by_fid(fid).expect("validated");
                    let mut sleds = 0u64;
                    for (off, _) in entry.offsets() {
                        mem.checked_write(base + off, SLED_BYTES)?;
                        sleds += 1;
                    }
                    reg.patched[fid as usize] = state;
                    if state {
                        reg.rate[fid as usize] = 1;
                        report.sleds_patched += sleds;
                    } else {
                        reg.unpatch_gen[fid as usize] = new_gen;
                        report.sleds_unpatched += sleds;
                    }
                }
                mem.mprotect(page_lo, page_hi - page_lo, PagePerms::RX)?;
                report.mprotect_pairs += 1;
            }
            // Sampling rates go last, so `patch + set_rate` for the same
            // function ends sampled (the patch transition resets the
            // rate to 1 above). Rate changes touch no sled bytes and
            // cost no `mprotect` pair — they live only in the published
            // table.
            for (&oid, rates) in &rates_by_obj {
                let reg = inner.objects[oid as usize].as_mut().expect("validated");
                for (&fid, &rate) in rates {
                    if reg.rate[fid as usize] != rate {
                        reg.rate[fid as usize] = rate;
                        report.rates_set += 1;
                    }
                }
            }
            Ok(())
        })();
        inner.stats.sled_writes += report.sleds_patched + report.sleds_unpatched;
        inner.stats.repatches += 1;
        // COW publish: only the objects this delta actually referenced
        // are rebuilt — DSO churn and repatch stay O(touched objects).
        let touched: Vec<u8> = by_obj
            .keys()
            .chain(rates_by_obj.keys())
            .copied()
            .collect::<std::collections::BTreeSet<u8>>()
            .into_iter()
            .collect();
        self.publish_locked(&mut inner, &touched);
        drop(inner);
        if let Some(span) = &span {
            span.arg("generation", report.generation);
            span.arg("sleds_patched", report.sleds_patched);
            span.arg("sleds_unpatched", report.sleds_unpatched);
            span.arg("mprotect_pairs", report.mprotect_pairs);
            span.arg("rates_set", report.rates_set);
            if tolerant {
                span.arg("skipped_objects", report.skipped_objects);
                span.arg("skipped_entries", report.skipped_entries);
            }
            span.wall_ns(wall_start.elapsed().as_nanos() as u64);
        }
        res.map(|()| report)
    }

    /// Whether the function's sleds are currently patched.
    pub fn is_patched(&self, id: PackedId) -> bool {
        let guard = DispatchGuard::enter(&self.table, self.slots.control());
        guard
            .table()
            .objects
            .get(id.object() as usize)
            .and_then(Option::as_ref)
            .and_then(|o| o.patched.get(id.function() as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Dispatches an event from a patched sled through the object's
    /// trampolines to the handler. Returns the handler's virtual cost.
    pub fn dispatch(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
    ) -> Result<u64, XRayError> {
        self.dispatch_from_snapshot(id, kind, tsc, rank, self.generation())
    }

    /// Like [`Self::dispatch`], but for callers working from the patch
    /// state of the table published at `generation` (an engine bound to
    /// it). A sled that was unpatched *after* that generation is
    /// tolerated — the in-flight thread already entered the
    /// (then-patched) sled, so the event is delivered and counted as
    /// stale instead of raising [`XRayError::NotPatched`]. A sled that
    /// was already dormant at that generation still faults hard.
    ///
    /// This is the wait-free fast path: no lock, no `Arc` clone — one
    /// striped in-flight bump, one atomic table load, two array indexes,
    /// then straight into the handler. The table guard pins the handler
    /// for the duration of the call, so handlers must never call back
    /// into any API that takes the inner lock — publishers
    /// (registration, patching, `set_handler`) *or* read-lock queries
    /// like [`Self::stats`] and [`Self::published_table`]: a concurrent
    /// publisher would wait forever for the handler's own dispatch to
    /// drain while the handler waits behind the publisher's write lock.
    /// Debug builds panic on the misuse; [`Self::is_patched`] and
    /// [`Self::sample_rate`] are guard-based and handler-safe.
    pub fn dispatch_from_snapshot(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        generation: u64,
    ) -> Result<u64, XRayError> {
        let delivered = self.dispatch_body::<false>(id, kind, tsc, rank, generation, 0)?;
        Ok(delivered.unwrap_or(0))
    }

    /// The sampled variant of [`Self::dispatch_from_snapshot`]: delivers
    /// the event only when the caller's per-rank, per-function sequence
    /// number `sample_seq` lands on the function's published 1-in-N
    /// rate (`sample_seq % rate == 0`). A skipped event costs one
    /// striped counter bump and returns `Ok(None)`; a delivered event
    /// returns `Ok(Some(handler_ns))`.
    ///
    /// At rate 1 every sequence number is delivered, so the path is
    /// behaviorally identical to [`Self::dispatch_from_snapshot`].
    /// Determinism: the caller owns `sample_seq` (one counter per rank
    /// and function), so repeated runs skip exactly the same events.
    pub fn dispatch_sampled_from_snapshot(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        generation: u64,
        sample_seq: u64,
    ) -> Result<Option<u64>, XRayError> {
        self.dispatch_body::<true>(id, kind, tsc, rank, generation, sample_seq)
    }

    /// The one dispatch body: table lookup, stale check, fault check,
    /// then (when `SAMPLED`) the 1-in-N filter and finally the handler
    /// call. `None` means the event was sampled out; without `SAMPLED`
    /// the rate is never loaded and the result is always `Some`.
    #[inline(always)]
    fn dispatch_body<const SAMPLED: bool>(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        generation: u64,
        sample_seq: u64,
    ) -> Result<Option<u64>, XRayError> {
        let slot = self.slots.slot_for(rank);
        let guard = DispatchGuard::enter(&self.table, slot);
        let table = guard.table();
        let obj = table
            .objects
            .get(id.object() as usize)
            .and_then(Option::as_ref)
            .ok_or(XRayError::UnknownObject(id.object()))?;
        let fidx = id.function() as usize;
        let patched = obj.patched.get(fidx).copied().unwrap_or(false);
        let stale = if patched {
            false
        } else {
            let unpatched_at = obj.unpatch_gen.get(fidx).copied().unwrap_or(0);
            if unpatched_at > generation {
                true
            } else {
                return Err(XRayError::NotPatched(id));
            }
        };
        if let Some(fault) = obj.fault {
            return Err(XRayError::Fault(fault));
        }
        if SAMPLED {
            let rate = obj.rate.get(fidx).copied().unwrap_or(1).max(1);
            if !sample_seq.is_multiple_of(rate as u64) {
                slot.sampled_skips.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        slot.dispatches.fetch_add(1, Ordering::Relaxed);
        if stale {
            slot.stale_dispatches.fetch_add(1, Ordering::Relaxed);
        }
        let Some(handler) = table.handler.as_ref() else {
            return Ok(Some(0)); // patched but no handler installed: sled jumps, returns
        };
        let event = Event {
            id,
            kind,
            tsc,
            rank,
        };
        Ok(Some(handler.on_event(event)))
    }

    /// The published sampling rate of a function (1 = full
    /// instrumentation). Guard-based and handler-safe, like
    /// [`Self::is_patched`].
    pub fn sample_rate(&self, id: PackedId) -> u32 {
        let guard = DispatchGuard::enter(&self.table, self.slots.control());
        guard
            .table()
            .objects
            .get(id.object() as usize)
            .and_then(Option::as_ref)
            .and_then(|o| o.rate.get(id.function() as usize))
            .copied()
            .unwrap_or(1)
    }

    /// `__xray_function_address`: absolute address of a function by its
    /// packed ID — the API DynCaPI cross-checks symbol mappings with.
    pub fn function_address(&self, id: PackedId) -> Option<u64> {
        let inner = self.read_inner("function_address");
        let reg = inner.objects.get(id.object() as usize)?.as_ref()?;
        let entry = reg.inst.sleds.by_fid(id.function())?;
        Some(reg.base + entry.entry_offset)
    }

    /// Reverse of [`Self::function_address`]: binary search of each
    /// object's offset-sorted entry index (built at registration)
    /// instead of a linear scan over every sled entry.
    pub fn id_at_address(&self, addr: u64) -> Option<PackedId> {
        let inner = self.read_inner("id_at_address");
        for (oid, reg) in inner.objects.iter().enumerate() {
            let Some(reg) = reg else { continue };
            if addr < reg.base {
                continue;
            }
            let off = addr - reg.base;
            if let Ok(i) = reg.addr_index.binary_search_by_key(&off, |&(o, _)| o) {
                return PackedId::pack(oid as u8, reg.addr_index[i].1).ok();
            }
        }
        None
    }

    /// Object ID registered for a loader object index.
    pub fn object_id_for_process_index(&self, process_index: usize) -> Option<u8> {
        let inner = self.read_inner("object_id_for_process_index");
        inner
            .objects
            .iter()
            .enumerate()
            .find(|(_, r)| r.as_ref().is_some_and(|r| r.process_index == process_index))
            .map(|(i, _)| i as u8)
    }

    /// Current statistics. Event counters are the sum of every live
    /// reader slot plus the retired totals folded out of recycled slots
    /// — exact across thread exits and slot reuse.
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.read_inner("stats").stats;
        for t in self.slots.totals().values() {
            s.dispatches += t.dispatches;
            s.stale_dispatches += t.stale_dispatches;
            s.sampled_skips += t.sampled_skips;
        }
        s
    }

    /// Total sleds across all registered objects.
    pub fn total_sleds(&self) -> usize {
        let inner = self.read_inner("total_sleds");
        inner
            .objects
            .iter()
            .flatten()
            .map(|r| r.inst.sleds.total_sleds())
            .sum()
    }

    /// Packed IDs of all currently patched functions, ordered by
    /// (object, function) — the active set the adaptation controller
    /// starts from.
    pub fn patched_ids(&self) -> Vec<PackedId> {
        let inner = self.read_inner("patched_ids");
        let mut ids = Vec::new();
        for (oid, reg) in inner.objects.iter().enumerate() {
            let Some(reg) = reg else { continue };
            for (fid, &p) in reg.patched.iter().enumerate() {
                if p {
                    if let Ok(id) = PackedId::pack(oid as u8, fid as u32) {
                        ids.push(id);
                    }
                }
            }
        }
        ids
    }

    /// Counts currently patched functions.
    pub fn patched_functions(&self) -> usize {
        let inner = self.read_inner("patched_functions");
        inner
            .objects
            .iter()
            .flatten()
            .map(|r| r.patched.iter().filter(|&&p| p).count())
            .sum()
    }

    /// The currently published [`DispatchTable`], pinned by its own
    /// `Arc` — the one source of patch state. The executor binds each
    /// epoch's per-function patch and rate state from it; tests use it
    /// to assert the copy-on-write sharing contract (`Arc::ptr_eq` on
    /// entries a mutation did not touch).
    pub fn published_table(&self) -> Arc<DispatchTable> {
        Arc::clone(&self.read_inner("published_table").current)
    }

    /// A compact per-object summary of the currently published dispatch
    /// table — generation plus patched/sampled/faulted counts per live
    /// object — the "what was the dispatch state" section of a
    /// post-mortem dump. Fully deterministic (object-ID order, derived
    /// from the published COW table).
    pub fn dispatch_summary(&self) -> (u64, Vec<ObjectPatchSummary>) {
        let table = self.published_table();
        let mut objects = Vec::new();
        for obj in table.objects.iter().flatten() {
            let patched = obj.patched.iter().filter(|&&p| p).count();
            let sampled = obj
                .patched
                .iter()
                .zip(obj.rate.iter())
                .filter(|&(&p, &r)| p && r > 1)
                .count();
            objects.push(ObjectPatchSummary {
                object_id: obj.object_id,
                functions: obj.patched.len(),
                patched,
                sampled,
                faulted: obj.fault.is_some(),
            });
        }
        (table.generation, objects)
    }

    /// Reference implementation of [`Self::published_table`] that
    /// rebuilds every object entry from the full registration/patch
    /// state instead of the incrementally published copy-on-write table
    /// — the oracle the copy-on-write path is checked against, entry by
    /// entry (`tests/dispatch_scaling.rs`). Slower (takes the read lock,
    /// clones everything); not for hot paths.
    pub fn snapshot_full_rebuild(&self) -> DispatchTable {
        let inner = self.read_inner("snapshot_full_rebuild");
        let objects = inner
            .objects
            .iter()
            .enumerate()
            .map(|(oid, reg)| reg.as_ref().map(|r| Arc::new(r.dispatch_entry(oid as u8))))
            .collect();
        // Generation only moves under the write lock, which our read
        // lock excludes — so this pairing is as consistent as the
        // published table's.
        DispatchTable {
            generation: self.generation(),
            objects,
            handler: inner.handler.clone(),
        }
    }
}

/// Delta entries a repatch found unresolvable.
#[derive(Default)]
struct Skipped {
    /// Objects no longer registered.
    objects: std::collections::BTreeSet<u8>,
    /// Entries dropped: every entry of a vanished object, plus entries
    /// naming a function the object has no sled for.
    entries: u64,
    /// The first unknown entry, in (object, function) order, as the
    /// error the strict path reports.
    first: Option<XRayError>,
}

impl Skipped {
    /// Drops `map`'s unresolvable entries, counting them.
    fn drop_unknown<V>(
        &mut self,
        map: &mut std::collections::BTreeMap<u8, std::collections::BTreeMap<u32, V>>,
        inner: &Inner,
    ) {
        map.retain(|&oid, changes| {
            let Some(reg) = inner.objects.get(oid as usize).and_then(Option::as_ref) else {
                self.first.get_or_insert(XRayError::UnknownObject(oid));
                self.objects.insert(oid);
                self.entries += changes.len() as u64;
                return false;
            };
            changes.retain(|&fid, _| {
                let known = reg.inst.sleds.by_fid(fid).is_some();
                if !known {
                    self.first.get_or_insert_with(|| {
                        XRayError::UnknownFunction(
                            PackedId::pack(oid, fid).unwrap_or(PackedId::from_raw(0)),
                        )
                    });
                    self.entries += 1;
                }
                known
            });
            !changes.is_empty()
        });
    }
}

fn check_fid_capacity(inst: &InstrumentedObject) -> Result<(), XRayError> {
    let n = inst.sleds.num_functions();
    if n > (MAX_FUNCTION_ID as usize + 1) {
        return Err(XRayError::Id(IdError::FunctionIdOverflow { fid: n as u32 }));
    }
    Ok(())
}

/// One object's row in [`XRayRuntime::dispatch_summary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectPatchSummary {
    /// XRay object ID.
    pub object_id: u8,
    /// Size of the object's function-ID space.
    pub functions: usize,
    /// Functions currently patched.
    pub patched: usize,
    /// Patched functions running at a sampling rate > 1.
    pub sampled: usize,
    /// Whether the published entry carries a trampoline fault (the
    /// object dispatches nothing until repatched).
    pub faulted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::BasicLog;
    use crate::pass::{instrument_object, PassOptions};
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    use capi_objmodel::{compile, CompileOptions, Process};

    struct Fixture {
        process: Process,
        runtime: XRayRuntime,
        main_inst: InstrumentedObject,
        dso_inst: InstrumentedObject,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(400)
            .calls("kernel", 1)
            .calls("solve", 1)
            .finish();
        b.function("kernel")
            .statements(60)
            .instructions(600)
            .loop_depth(1)
            .finish();
        b.unit("s.cc", LinkTarget::Dso("libsolver.so".into()));
        b.function("solve")
            .statements(70)
            .instructions(800)
            .loop_depth(2)
            .finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let process = Process::launch_binary(&bin).unwrap();
        let main_inst = instrument_object(
            process.object(0).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        let dso_inst = instrument_object(
            process.object(1).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        Fixture {
            process,
            runtime: XRayRuntime::new(),
            main_inst,
            dso_inst,
        }
    }

    #[test]
    fn main_gets_object_zero_dso_must_wait() {
        let f = fixture();
        let loaded_dso = f.process.object(1).unwrap().clone();
        assert!(matches!(
            f.runtime
                .register_dso(f.dso_inst.clone(), &loaded_dso, 1, TrampolineSet::pic()),
            Err(XRayError::MainMustBeFirst)
        ));
        let id = f
            .runtime
            .register_main(
                f.main_inst.clone(),
                f.process.object(0).unwrap(),
                TrampolineSet::absolute(),
            )
            .unwrap();
        assert_eq!(id, 0);
        let dso_id = f
            .runtime
            .register_dso(f.dso_inst.clone(), &loaded_dso, 1, TrampolineSet::pic())
            .unwrap();
        assert_eq!(dso_id, 1);
    }

    fn registered() -> (Fixture, u8, u8) {
        let f = fixture();
        let main_id = f
            .runtime
            .register_main(
                f.main_inst.clone(),
                f.process.object(0).unwrap(),
                TrampolineSet::absolute(),
            )
            .unwrap();
        let dso_id = f
            .runtime
            .register_dso(
                f.dso_inst.clone(),
                f.process.object(1).unwrap(),
                1,
                TrampolineSet::pic(),
            )
            .unwrap();
        (f, main_id, dso_id)
    }

    #[test]
    fn patch_and_dispatch_roundtrip() {
        let (mut f, main_id, _) = registered();
        let fid = f
            .main_inst
            .sleds
            .fid_of(f.main_inst.image.function_index("kernel").unwrap())
            .unwrap();
        let id = PackedId::pack(main_id, fid).unwrap();
        assert!(!f.runtime.is_patched(id));
        // Dispatch before patching is an error.
        assert!(matches!(
            f.runtime.dispatch(id, EventKind::Entry, 0, 0),
            Err(XRayError::NotPatched(_))
        ));
        let n = f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        assert!(n >= 2);
        assert!(f.runtime.is_patched(id));
        let log = Arc::new(BasicLog::new());
        f.runtime.set_handler(log.clone());
        f.runtime.dispatch(id, EventKind::Entry, 100, 0).unwrap();
        f.runtime.dispatch(id, EventKind::Exit, 200, 0).unwrap();
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].kind, EventKind::Entry);
    }

    #[test]
    fn patching_is_idempotent() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        let first = f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        let second = f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    #[test]
    fn unpatch_restores_nop_state() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        f.runtime
            .unpatch_function(&mut f.process.memory, id)
            .unwrap();
        assert!(!f.runtime.is_patched(id));
    }

    #[test]
    fn patch_all_covers_object_with_one_mprotect_pair() {
        let (mut f, main_id, _) = registered();
        let before = f.process.memory.stats.mprotect_calls;
        let written = f.runtime.patch_all(&mut f.process.memory, main_id).unwrap();
        assert_eq!(written as usize, f.main_inst.sleds.total_sleds());
        assert_eq!(f.process.memory.stats.mprotect_calls - before, 2);
    }

    #[test]
    fn dso_dispatch_uses_pic_trampolines() {
        let (mut f, _, dso_id) = registered();
        let fid = f
            .dso_inst
            .sleds
            .fid_of(f.dso_inst.image.function_index("solve").unwrap())
            .unwrap();
        let id = PackedId::pack(dso_id, fid).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        assert!(f.runtime.dispatch(id, EventKind::Entry, 0, 0).is_ok());
    }

    #[test]
    fn absolute_trampolines_in_relocated_dso_fault() {
        let f = fixture();
        f.runtime
            .register_main(
                f.main_inst.clone(),
                f.process.object(0).unwrap(),
                TrampolineSet::absolute(),
            )
            .unwrap();
        // Mis-linked DSO: absolute trampolines.
        let dso_id = f
            .runtime
            .register_dso(
                f.dso_inst.clone(),
                f.process.object(1).unwrap(),
                1,
                TrampolineSet::absolute(),
            )
            .unwrap();
        let mut f = f;
        let id = PackedId::pack(dso_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        assert!(matches!(
            f.runtime.dispatch(id, EventKind::Entry, 0, 0),
            Err(XRayError::Fault(_))
        ));
    }

    #[test]
    fn deregister_frees_slot_for_reuse() {
        let (f, _, dso_id) = registered();
        f.runtime.deregister(dso_id).unwrap();
        assert!(matches!(
            f.runtime.deregister(dso_id),
            Err(XRayError::UnknownObject(_))
        ));
        let again = f
            .runtime
            .register_dso(
                f.dso_inst.clone(),
                f.process.object(1).unwrap(),
                1,
                TrampolineSet::pic(),
            )
            .unwrap();
        assert_eq!(again, dso_id);
    }

    #[test]
    fn function_address_and_reverse_lookup_agree() {
        let (f, _, dso_id) = registered();
        let fid = f
            .dso_inst
            .sleds
            .fid_of(f.dso_inst.image.function_index("solve").unwrap())
            .unwrap();
        let id = PackedId::pack(dso_id, fid).unwrap();
        let addr = f.runtime.function_address(id).unwrap();
        assert_eq!(f.runtime.id_at_address(addr), Some(id));
        // Matches the loader's view.
        let resolved = f.process.resolve("solve").unwrap();
        assert_eq!(resolved.addr, addr);
    }

    #[test]
    fn id_at_address_boundaries() {
        let (f, main_id, dso_id) = registered();
        let inner_entries = |inst: &InstrumentedObject| {
            let mut offs: Vec<(u64, u32)> = inst
                .sleds
                .entries
                .iter()
                .map(|e| (e.entry_offset, e.fid))
                .collect();
            offs.sort_unstable();
            offs
        };
        for (oid, inst, base) in [
            (main_id, &f.main_inst, f.process.object(0).unwrap().base),
            (dso_id, &f.dso_inst, f.process.object(1).unwrap().base),
        ] {
            let offs = inner_entries(inst);
            assert!(!offs.is_empty());
            let (first_off, first_fid) = offs[0];
            let (last_off, last_fid) = *offs.last().unwrap();
            // Exact first and last entry addresses resolve.
            assert_eq!(
                f.runtime.id_at_address(base + first_off),
                PackedId::pack(oid, first_fid).ok()
            );
            assert_eq!(
                f.runtime.id_at_address(base + last_off),
                PackedId::pack(oid, last_fid).ok()
            );
            // One byte off either boundary does not (unless it happens to
            // be another object's entry — impossible here: bases are
            // disjoint and sleds start above the object base).
            assert_eq!(f.runtime.id_at_address(base + first_off + 1), None);
            if first_off > 0 {
                assert_eq!(f.runtime.id_at_address(base + first_off - 1), None);
            }
        }
        // Below every object base.
        let min_base = f
            .process
            .object(0)
            .unwrap()
            .base
            .min(f.process.object(1).unwrap().base);
        assert_eq!(f.runtime.id_at_address(min_base.saturating_sub(1)), None);
        // Way past everything.
        assert_eq!(f.runtime.id_at_address(u64::MAX), None);
    }

    #[test]
    fn snapshot_reflects_patch_state_and_generation() {
        let (mut f, main_id, _) = registered();
        let snap0 = f.runtime.published_table();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        let snap1 = f.runtime.published_table();
        assert!(snap1.generation > snap0.generation);
        let entry = f.main_inst.sleds.by_fid(0).unwrap();
        let obj1 = snap1.object(main_id).unwrap();
        assert_eq!(obj1.process_index, 0);
        let fid = obj1.fid_by_func[entry.func_index as usize].unwrap();
        assert_eq!(PackedId::pack(obj1.object_id, fid).unwrap(), id);
        assert!(obj1.patched[fid as usize]);
        assert!(!snap0.object(main_id).unwrap().patched[fid as usize]);
    }

    #[test]
    fn repatch_applies_batch_with_one_mprotect_pair_per_object() {
        let (mut f, main_id, dso_id) = registered();
        let m0 = PackedId::pack(main_id, 0).unwrap();
        let m1 = PackedId::pack(main_id, 1).unwrap();
        let d0 = PackedId::pack(dso_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, m1).unwrap();
        let before = f.process.memory.stats.mprotect_calls;
        let rep = f
            .runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![m0, d0],
                    unpatch: vec![m1],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        // Two objects touched → two mprotect pairs.
        assert_eq!(rep.mprotect_pairs, 2);
        assert_eq!(f.process.memory.stats.mprotect_calls - before, 4);
        assert!(rep.sleds_patched >= 4); // m0 + d0, entry+exit each
        assert!(rep.sleds_unpatched >= 2);
        assert!(f.runtime.is_patched(m0));
        assert!(f.runtime.is_patched(d0));
        assert!(!f.runtime.is_patched(m1));
        assert_eq!(f.runtime.stats().repatches, 1);
        assert_eq!(f.runtime.patched_ids(), vec![m0, d0]);
    }

    #[test]
    fn repatch_conflicting_entries_unpatch_wins() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        // Unpatched function listed in both directions: stays unpatched.
        let rep = f
            .runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![id],
                    unpatch: vec![id],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        assert!(!f.runtime.is_patched(id));
        assert_eq!(rep.sleds_patched, 0);
        // Patched function in both directions: ends unpatched too.
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        f.runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![id, id], // duplicates applied once
                    unpatch: vec![id],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        assert!(!f.runtime.is_patched(id));
    }

    #[test]
    fn patch_functions_validates_before_mutating() {
        let (mut f, main_id, _) = registered();
        let good = PackedId::pack(main_id, 0).unwrap();
        let writes_before = f.runtime.stats().sled_writes;
        let err = f
            .runtime
            .patch_functions(&mut f.process.memory, main_id, &[0, 9_999])
            .unwrap_err();
        assert!(matches!(err, XRayError::UnknownFunction(_)));
        // Nothing was applied: no patch flag, no sled writes, and the
        // published table still agrees with the inner state.
        assert!(!f.runtime.is_patched(good));
        assert_eq!(f.runtime.stats().sled_writes, writes_before);
        assert_eq!(f.runtime.patched_ids(), Vec::new());
    }

    #[test]
    fn repatch_validates_before_mutating() {
        let (mut f, main_id, _) = registered();
        let good = PackedId::pack(main_id, 0).unwrap();
        let bogus = PackedId::pack(main_id, 9_999).unwrap();
        let err = f
            .runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![good, bogus],
                    unpatch: vec![],
                    ..PatchDelta::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, XRayError::UnknownFunction(_)));
        // Nothing was applied.
        assert!(!f.runtime.is_patched(good));
    }

    #[test]
    fn repatch_surviving_skips_deregistered_object_and_applies_rest() {
        let (mut f, main_id, dso_id) = registered();
        let m0 = PackedId::pack(main_id, 0).unwrap();
        let d0 = PackedId::pack(dso_id, 0).unwrap();
        let bogus_fn = PackedId::pack(main_id, 9_999).unwrap();
        // The object vanishes between the decision and the repatch.
        f.runtime.deregister(dso_id).unwrap();
        let rep = f
            .runtime
            .repatch_surviving(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![m0, d0],
                    unpatch: vec![bogus_fn],
                    set_rate: vec![(d0, 4)],
                },
            )
            .unwrap();
        // The surviving entry applied; the stale ones were counted, not
        // fatal — and never written through the vacated slot.
        assert!(f.runtime.is_patched(m0));
        assert_eq!(rep.skipped_objects, 1);
        assert_eq!(rep.skipped_entries, 3); // d0 patch + bogus fn + d0 rate
                                            // The strict path still fails the same delta typed.
        assert!(matches!(
            f.runtime.repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![d0],
                    ..PatchDelta::default()
                }
            ),
            Err(XRayError::UnknownObject(_))
        ));
    }

    #[test]
    fn unpatch_after_snapshot_is_tolerated_never_patched_faults() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        let never = PackedId::pack(main_id, 1).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        let snap_gen = f.runtime.published_table().generation;
        f.runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![],
                    unpatch: vec![id],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        // A dispatch working from the pre-repatch snapshot is tolerated.
        assert!(f
            .runtime
            .dispatch_from_snapshot(id, EventKind::Entry, 0, 0, snap_gen)
            .is_ok());
        assert_eq!(f.runtime.stats().stale_dispatches, 1);
        // A never-patched sled still faults from the same snapshot.
        assert!(matches!(
            f.runtime
                .dispatch_from_snapshot(never, EventKind::Entry, 0, 0, snap_gen),
            Err(XRayError::NotPatched(_))
        ));
        // And from the *current* generation the unpatched sled faults.
        assert!(matches!(
            f.runtime.dispatch(id, EventKind::Entry, 0, 0),
            Err(XRayError::NotPatched(_))
        ));
    }

    #[test]
    fn set_rate_samples_deterministically_and_counts_skips() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        f.runtime.set_handler(Arc::new(crate::handler::NullHandler));
        let before = f.process.memory.stats.mprotect_calls;
        let rep = f
            .runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    set_rate: vec![(id, 4)],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        // Rate-only deltas rewrite no sleds and flip no pages.
        assert_eq!(rep.rates_set, 1);
        assert_eq!(rep.mprotect_pairs, 0);
        assert_eq!(f.process.memory.stats.mprotect_calls, before);
        assert_eq!(f.runtime.sample_rate(id), 4);
        let generation = f.runtime.generation();
        let mut delivered = 0;
        for seq in 0..8u64 {
            let r = f
                .runtime
                .dispatch_sampled_from_snapshot(id, EventKind::Entry, seq, 0, generation, seq)
                .unwrap();
            if r.is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 2); // seq 0 and 4
        assert_eq!(f.runtime.stats().sampled_skips, 6);
        assert_eq!(f.runtime.stats().dispatches, 2);
    }

    #[test]
    fn rate_one_sampled_dispatch_matches_full_dispatch() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        let log = Arc::new(BasicLog::new());
        f.runtime.set_handler(log.clone());
        let generation = f.runtime.generation();
        for seq in 0..5u64 {
            let r = f
                .runtime
                .dispatch_sampled_from_snapshot(id, EventKind::Entry, seq, 0, generation, seq)
                .unwrap();
            assert!(r.is_some(), "rate 1 delivers every event");
        }
        assert_eq!(log.events().len(), 5);
        assert_eq!(f.runtime.stats().sampled_skips, 0);
    }

    #[test]
    fn repatching_a_function_resets_its_rate_to_one() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        f.runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    set_rate: vec![(id, 8)],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        assert_eq!(f.runtime.sample_rate(id), 8);
        // Unpatch, then re-patch: the function comes back at full rate.
        f.runtime
            .unpatch_function(&mut f.process.memory, id)
            .unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        assert_eq!(f.runtime.sample_rate(id), 1);
        // A delta that both patches and sets a rate ends sampled.
        f.runtime
            .unpatch_function(&mut f.process.memory, id)
            .unwrap();
        f.runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    patch: vec![id],
                    set_rate: vec![(id, 3)],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        assert!(f.runtime.is_patched(id));
        assert_eq!(f.runtime.sample_rate(id), 3);
        // Rates are clamped to ≥ 1 and visible in the published table.
        f.runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    set_rate: vec![(id, 0)],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        assert_eq!(f.runtime.sample_rate(id), 1);
        let entry = f.main_inst.sleds.by_fid(0).unwrap();
        let table = f.runtime.published_table();
        let obj = table.object(main_id).unwrap();
        assert_eq!(obj.process_index, 0);
        let fid = obj.fid_by_func[entry.func_index as usize].unwrap();
        assert_eq!(obj.rate[fid as usize], 1);
    }

    #[test]
    fn set_rate_validates_ids_like_patching() {
        let (mut f, main_id, _) = registered();
        let bogus = PackedId::pack(main_id, 9_999).unwrap();
        let err = f
            .runtime
            .repatch(
                &mut f.process.memory,
                &PatchDelta {
                    set_rate: vec![(bogus, 2)],
                    ..PatchDelta::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, XRayError::UnknownFunction(_)));
    }

    #[test]
    fn stats_accumulate() {
        let (mut f, main_id, _) = registered();
        let id = PackedId::pack(main_id, 0).unwrap();
        f.runtime.patch_function(&mut f.process.memory, id).unwrap();
        f.runtime.set_handler(Arc::new(crate::handler::NullHandler));
        f.runtime.dispatch(id, EventKind::Entry, 0, 0).unwrap();
        let s = f.runtime.stats();
        assert_eq!(s.objects_registered, 2);
        assert!(s.sled_writes >= 2);
        assert_eq!(s.dispatches, 1);
    }

    /// A thread-exit slot release racing [`XRayRuntime::stats`] is
    /// counted once. The fold's test hook sits between its live-slot read
    /// and its retired-totals read; whenever the slot-list lock would
    /// admit a release there, the hook lets the worker exit and joins it,
    /// so its release lands exactly in that window. Deterministic: no
    /// sleeps, no retries.
    #[test]
    fn stats_count_a_release_racing_the_fold_once() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::mpsc::channel;
        let rt = Arc::new(XRayRuntime::new());
        let (counted_tx, counted_rx) = channel::<()>();
        let (exit_tx, exit_rx) = channel::<()>();
        let worker = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                rt.slots
                    .slot_for(3)
                    .dispatches
                    .fetch_add(100, Ordering::Relaxed);
                counted_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
        };
        counted_rx.recv().unwrap();
        // Exiting the worker runs its claim cache's destructor, which
        // releases the slot; joining waits for that destructor.
        type Finish = Box<dyn FnOnce()>;
        let finish: Rc<RefCell<Option<Finish>>> =
            Rc::new(RefCell::new(Some(Box::new(move || {
                exit_tx.send(()).unwrap();
                worker.join().unwrap();
            }))));
        let in_window = Rc::clone(&finish);
        crate::slots::between_reads::arm(move |release_can_run| {
            if release_can_run {
                in_window.borrow_mut().take().unwrap()();
            }
        });
        assert_eq!(rt.stats().dispatches, 100, "release counted twice");
        if let Some(finish) = finish.borrow_mut().take() {
            finish();
        }
        assert_eq!(rt.stats().dispatches, 100);
        assert_eq!(rt.slots.retired_totals()[&3].dispatches, 100);
    }
}
