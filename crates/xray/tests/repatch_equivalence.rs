//! Strict `repatch` is `repatch_surviving` with zero tolerated skips.
//!
//! Both entry points share one validation pass. This oracle drives them
//! over random deltas that mix live entries, entries of a deregistered
//! object, and entries naming a function the object has no sled for
//! (each as a patch, an unpatch, or a `set_rate`), and checks:
//!
//! * `repatch` fails exactly when `repatch_surviving` skips an entry;
//! * the strict error names the variant and ID an independent
//!   first-unknown scan predicts (patch/unpatch entries in (object,
//!   function) order first, then rate entries);
//! * when both succeed, their reports and published tables are equal.

use capi_appmodel::{LinkTarget, ProgramBuilder};
use capi_objmodel::{compile, CompileOptions, Process};
use capi_xray::{
    instrument_object, PackedId, PassOptions, PatchDelta, TrampolineSet, XRayError, XRayRuntime,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// The published patch state — generation plus every object entry of
/// the dispatch table — as comparable text.
fn patch_state(rt: &XRayRuntime) -> String {
    let table = rt.published_table();
    format!("{} {:?}", table.generation, table.objects)
}

const DSOS: usize = 3;
/// The DSO deregistered before the delta, so its entries are stale.
const GONE: u8 = 2;

/// A main executable plus three DSOs of two functions each, every
/// object registered, then object [`GONE`] deregistered. Returns the
/// process, the runtime and the sled-function count per object ID.
fn fixture() -> (Process, XRayRuntime, Vec<u32>) {
    let mut b = ProgramBuilder::new("equivhost");
    b.unit("m.cc", LinkTarget::Executable);
    let mut main_fn = b.function("main").main().statements(50).instructions(400);
    main_fn = main_fn.calls("hot_a", 2).calls("hot_b", 2);
    for d in 0..DSOS {
        main_fn = main_fn
            .calls(&format!("d{d}_fa"), 1)
            .calls(&format!("d{d}_fb"), 1);
    }
    main_fn.finish();
    b.function("hot_a")
        .statements(40)
        .instructions(300)
        .finish();
    b.function("hot_b")
        .statements(45)
        .instructions(350)
        .finish();
    for d in 0..DSOS {
        b.unit(format!("d{d}.cc"), LinkTarget::Dso(format!("libd{d}.so")));
        b.function(&format!("d{d}_fa"))
            .statements(30)
            .instructions(280)
            .finish();
        b.function(&format!("d{d}_fb"))
            .statements(35)
            .instructions(320)
            .finish();
    }
    let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
    let process = Process::launch_binary(&bin).unwrap();
    let runtime = XRayRuntime::new();
    let mut funcs = Vec::new();
    for i in 0..=DSOS {
        let loaded = process.object(i).unwrap();
        let inst = instrument_object(loaded.image.clone(), &PassOptions::instrument_all());
        funcs.push(inst.sleds.num_functions() as u32);
        if i == 0 {
            runtime
                .register_main(inst, loaded, TrampolineSet::absolute())
                .unwrap();
        } else {
            runtime
                .register_dso(inst, loaded, i, TrampolineSet::pic())
                .unwrap();
        }
    }
    runtime.deregister(GONE).unwrap();
    (process, runtime, funcs)
}

/// One random delta entry: a live function, a function of the
/// deregistered object, or a function ID past a live object's sled
/// table — as a patch, an unpatch, or a rate change.
fn random_entry(next: &mut impl FnMut() -> u64, funcs: &[u32], delta: &mut PatchDelta) {
    let live: Vec<u8> = (0..funcs.len() as u8).filter(|&o| o != GONE).collect();
    let id = match next() % 4 {
        0 => PackedId::pack(GONE, (next() % u64::from(funcs[GONE as usize])) as u32),
        1 => {
            let oid = live[(next() % live.len() as u64) as usize];
            PackedId::pack(oid, funcs[oid as usize] + (next() % 3) as u32)
        }
        _ => {
            let oid = live[(next() % live.len() as u64) as usize];
            PackedId::pack(oid, (next() % u64::from(funcs[oid as usize])) as u32)
        }
    }
    .unwrap();
    match next() % 3 {
        0 => delta.patch.push(id),
        1 => delta.unpatch.push(id),
        _ => delta.set_rate.push((id, (next() % 6) as u32)),
    }
}

/// Independent reference for the strict path's error: the first entry,
/// in (object, function) order over patch/unpatch entries and then over
/// rate entries, whose object is not registered or whose function has
/// no sled.
fn first_unknown(delta: &PatchDelta, funcs: &[u32]) -> Option<XRayError> {
    let mut toggles: BTreeMap<u8, BTreeMap<u32, ()>> = BTreeMap::new();
    for id in delta.patch.iter().chain(&delta.unpatch) {
        toggles
            .entry(id.object())
            .or_default()
            .insert(id.function(), ());
    }
    let mut rates: BTreeMap<u8, BTreeMap<u32, ()>> = BTreeMap::new();
    for (id, _) in &delta.set_rate {
        rates
            .entry(id.object())
            .or_default()
            .insert(id.function(), ());
    }
    for (oid, fids) in toggles.iter().chain(rates.iter()) {
        let Some(&n) = funcs.get(*oid as usize).filter(|_| *oid != GONE) else {
            return Some(XRayError::UnknownObject(*oid));
        };
        if let Some(&fid) = fids.keys().find(|&&fid| fid >= n) {
            return Some(XRayError::UnknownFunction(
                PackedId::pack(*oid, fid).unwrap(),
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn strict_repatch_is_surviving_repatch_with_zero_skips(seed in any::<u64>()) {
        let (mut strict_proc, strict_rt, funcs) = fixture();
        let (mut tolerant_proc, tolerant_rt, _) = fixture();
        let mut next = splitmix(seed);
        // A shared live-only history, so the delta under test meets a
        // non-trivial patch state.
        for _ in 0..(next() % 4) {
            let mut warmup = PatchDelta::default();
            for _ in 0..3 {
                let oid = [0u8, 1, 3][(next() % 3) as usize];
                let id = PackedId::pack(oid, (next() % u64::from(funcs[oid as usize])) as u32)
                    .unwrap();
                warmup.patch.push(id);
            }
            strict_rt.repatch(&mut strict_proc.memory, &warmup).unwrap();
            tolerant_rt.repatch(&mut tolerant_proc.memory, &warmup).unwrap();
        }
        let mut delta = PatchDelta::default();
        for _ in 0..1 + next() % 6 {
            random_entry(&mut next, &funcs, &mut delta);
        }
        let before = patch_state(&strict_rt);
        let strict = strict_rt.repatch(&mut strict_proc.memory, &delta);
        let tolerant = tolerant_rt
            .repatch_surviving(&mut tolerant_proc.memory, &delta)
            .expect("no memory faults are injected");
        prop_assert_eq!(strict.is_err(), tolerant.skipped_entries > 0);
        match strict {
            Err(err) => {
                prop_assert_eq!(Some(err), first_unknown(&delta, &funcs));
                prop_assert_eq!(
                    patch_state(&strict_rt),
                    before,
                    "a failed strict repatch mutated the runtime"
                );
            }
            Ok(report) => {
                prop_assert_eq!(first_unknown(&delta, &funcs), None);
                prop_assert_eq!(report, tolerant);
                prop_assert_eq!(
                    patch_state(&strict_rt),
                    patch_state(&tolerant_rt)
                );
                prop_assert_eq!(strict_rt.dispatch_summary(), tolerant_rt.dispatch_summary());
            }
        }
    }
}
