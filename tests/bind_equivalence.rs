//! Resolve once, bind every epoch: the retained-program oracle.
//!
//! An adaptive run keeps one `ResolvedProgram` across epochs and only
//! binds it to the newly published dispatch table, resolving again only
//! when `ResolvedProgram::is_current` says the loaded objects changed.
//! This oracle drives random sequences of patch, unpatch and `set_rate`
//! repatches, `dlopen`/`dlclose`, and XRay register/deregister, and after
//! every step checks, for strict and lenient resolution alike, that
//! binding the retained program gives the same epoch outcome, spine,
//! call tree and unresolved-call count as a fresh `Engine::prepare` /
//! `Engine::prepare_lenient` — and that the retained program was
//! resolved again exactly once per change of the loaded objects.

use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_exec::{Engine, EpochSpec, OverheadModel, ResolvedProgram};
use capi_mpisim::{CostModel, World};
use capi_objmodel::{compile, CompileOptions, Object, Process};
use capi_xray::{
    instrument_object, BasicLog, PackedId, PassOptions, PatchDelta, TrampolineSet, XRayRuntime,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic splitmix64 stream.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const RANKS: u32 = 3;
const EPOCHS: usize = 3;
const DSOS: [&str; 3] = ["liba.so", "libb.so", "libc.so"];

/// A progress loop in the executable whose body calls into every DSO,
/// with an MPI collective per trip.
fn binary() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("bindhost");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(30)
        .calls("setup", 1)
        .calls("timestep", 6)
        .calls("teardown", 1)
        .finish();
    b.function("setup")
        .statements(40)
        .mpi(MpiCall::Init)
        .finish();
    b.function("teardown")
        .statements(40)
        .mpi(MpiCall::Finalize)
        .finish();
    b.function("timestep")
        .statements(50)
        .instructions(400)
        .calls("a_kernel", 2)
        .calls("b_kernel", 1)
        .calls("c_entry", 1)
        .calls("halo", 1)
        .finish();
    b.function("halo")
        .statements(20)
        .mpi(MpiCall::Allreduce { bytes: 64 })
        .finish();
    for (dso, funcs) in DSOS.iter().zip([
        [("a_kernel", "a_leaf"), ("a_leaf", "")],
        [("b_kernel", "b_leaf"), ("b_leaf", "")],
        [("c_entry", "c_leaf"), ("c_leaf", "")],
    ]) {
        b.unit(format!("{dso}.cc"), LinkTarget::Dso((*dso).into()));
        for (name, callee) in funcs {
            let mut f = b
                .function(name)
                .statements(60)
                .instructions(500)
                .loop_depth(1)
                .imbalance(20);
            if !callee.is_empty() {
                f = f.calls(callee, 3);
            }
            f.finish();
        }
    }
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
}

struct Fixture {
    process: Process,
    runtime: XRayRuntime,
    /// DSO images by name, for re-`dlopen`.
    images: BTreeMap<String, Arc<Object>>,
    /// Registered DSOs: loader index → XRay object ID.
    registered: BTreeMap<usize, u8>,
}

impl Fixture {
    fn new() -> Self {
        let process = Process::launch_binary(&binary()).unwrap();
        let runtime = XRayRuntime::new();
        runtime.set_handler(Arc::new(BasicLog::new()));
        let main = process.object(0).unwrap();
        runtime
            .register_main(
                instrument_object(main.image.clone(), &PassOptions::instrument_all()),
                main,
                TrampolineSet::absolute(),
            )
            .unwrap();
        let mut fx = Self {
            images: process
                .loaded()
                .skip(1)
                .map(|(_, lo)| (lo.image.name.clone(), lo.image.clone()))
                .collect(),
            process,
            runtime,
            registered: BTreeMap::new(),
        };
        let dsos: Vec<usize> = fx.process.loaded().skip(1).map(|(pi, _)| pi).collect();
        for pi in dsos {
            fx.register(pi);
        }
        fx
    }

    fn register(&mut self, pi: usize) {
        let lo = self.process.object(pi).unwrap();
        let inst = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
        let oid = self
            .runtime
            .register_dso(inst, lo, pi, TrampolineSet::pic())
            .unwrap();
        self.registered.insert(pi, oid);
    }

    /// A random live sled: the executable's or a registered DSO's.
    fn random_id(&self, next: &mut impl FnMut() -> u64) -> PackedId {
        let oids: Vec<u8> = std::iter::once(0)
            .chain(self.registered.values().copied())
            .collect();
        let oid = oids[(next() % oids.len() as u64) as usize];
        let functions = self
            .runtime
            .published_table()
            .object(oid)
            .unwrap()
            .patched
            .len() as u64;
        PackedId::pack(oid, (next() % functions) as u32).unwrap()
    }

    /// Applies one random step; returns whether it changed the loaded
    /// objects.
    fn step(&mut self, next: &mut impl FnMut() -> u64) -> bool {
        let loaded: Vec<usize> = self.process.loaded().skip(1).map(|(pi, _)| pi).collect();
        let pick = |v: &[usize], r: u64| v[(r % v.len() as u64) as usize];
        match next() % 6 {
            0 | 1 => {
                let id = self.random_id(next);
                let delta = match next() % 3 {
                    0 => PatchDelta {
                        patch: vec![id],
                        ..PatchDelta::default()
                    },
                    1 => PatchDelta {
                        unpatch: vec![id],
                        ..PatchDelta::default()
                    },
                    _ => PatchDelta {
                        set_rate: vec![(id, 1 + (next() % 4) as u32)],
                        ..PatchDelta::default()
                    },
                };
                self.runtime
                    .repatch(&mut self.process.memory, &delta)
                    .unwrap();
                false
            }
            2 if !loaded.is_empty() => {
                // Unload the way a session does: deregister, then dlclose.
                let pi = pick(&loaded, next());
                if let Some(oid) = self.registered.remove(&pi) {
                    self.runtime.deregister(oid).unwrap();
                }
                let name = self.process.object(pi).unwrap().image.name.clone();
                self.process.dlclose(&name).unwrap();
                true
            }
            3 => {
                let closed: Vec<&Arc<Object>> = self
                    .images
                    .values()
                    .filter(|img| self.process.loaded_index(&img.name).is_none())
                    .collect();
                if closed.is_empty() {
                    return false;
                }
                let image = Arc::clone(closed[(next() % closed.len() as u64) as usize]);
                self.process.dlopen(image).unwrap();
                true
            }
            4 => {
                let unregistered: Vec<usize> = loaded
                    .iter()
                    .copied()
                    .filter(|pi| !self.registered.contains_key(pi))
                    .collect();
                if !unregistered.is_empty() {
                    self.register(pick(&unregistered, next()));
                }
                false
            }
            _ => {
                let registered: Vec<usize> = self.registered.keys().copied().collect();
                if !registered.is_empty() {
                    let pi = pick(&registered, next());
                    let oid = self.registered.remove(&pi).unwrap();
                    self.runtime.deregister(oid).unwrap();
                }
                false
            }
        }
    }
}

/// Everything an epoch consumer reads from an engine, as text: the
/// outcome of every epoch of one program run, then the spine, the call
/// tree and the unresolved-call count.
fn observe(engine: &Engine<'_>) -> String {
    let world = World::new(RANKS, CostModel::default());
    let mut clocks = vec![0; RANKS as usize];
    let mut text = String::new();
    for index in 0..EPOCHS {
        let spec = EpochSpec {
            index,
            total: EPOCHS,
        };
        let out = engine.run_epoch(&world, spec, &clocks).unwrap();
        clocks.clone_from(&out.per_rank_ns);
        text += &format!("{out:?}\n");
    }
    format!(
        "{text}spine {:?}\nchildren {:?}\nunresolved {}",
        engine.spine_sled_ids(),
        engine.call_children(),
        engine.unresolved_calls()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn retained_program_binds_like_a_fresh_prepare(seed in any::<u64>()) {
        let mut fx = Fixture::new();
        let mut next = splitmix(seed);
        let model = OverheadModel::default();
        // Per tolerance: the retained program (None while strict
        // resolution fails) and how often it was resolved.
        let mut retained: [(Option<Arc<ResolvedProgram>>, u32); 2] = [(None, 0), (None, 0)];
        let mut changes = 0u32;
        for _ in 0..14 {
            if fx.step(&mut next) {
                changes += 1;
            }
            for (lenient, (program, resolves)) in [false, true].into_iter().zip(&mut retained) {
                if !program.as_ref().is_some_and(|p| p.is_current(&fx.process)) {
                    *program = ResolvedProgram::resolve(&fx.process, lenient).ok().map(Arc::new);
                    *resolves += 1;
                }
                let fresh = if lenient {
                    Engine::prepare_lenient(&fx.process, &fx.runtime, model)
                } else {
                    Engine::prepare(&fx.process, &fx.runtime, model)
                };
                match (program.as_ref(), fresh) {
                    (Some(p), Ok(fresh)) => {
                        let bound = Engine::bind(Arc::clone(p), &fx.runtime, model);
                        prop_assert_eq!(observe(&bound), observe(&fresh));
                    }
                    (None, Err(_)) => prop_assert!(!lenient, "lenient resolution failed"),
                    (p, fresh) => prop_assert!(
                        false,
                        "resolve ok: {}, prepare ok: {}",
                        p.is_some(),
                        fresh.is_ok()
                    ),
                }
            }
        }
        // Lenient resolution never fails, so it re-resolved exactly once
        // per change of the loaded objects.
        prop_assert_eq!(retained[1].1, 1 + changes);
    }
}
