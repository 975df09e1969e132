//! Per-layer attribution for traced runs.
//!
//! The benchmark adds no spans inside the crates. It times each layer
//! by calling the owning crate's public function itself (the startup
//! steps are replayed one by one on a fresh process), and it reads the
//! wall-clock spans the crates already emit (`dyncapi.run`,
//! `exec.epoch`, `xray.repatch`, `persist.load` / `persist.save`) from
//! the Chrome trace of a [`Telemetry`] handed to the run.

use crate::Record;
use capi_dyncapi::resolve_ids;
use capi_objmodel::{Binary, Process};
use capi_obs::Telemetry;
use capi_scorep::FilterFile;
use capi_xray::{instrument_object, PackedId, PassOptions, TrampolineSet, XRayRuntime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Host time of a phase in which both rank threads run: its wall time,
/// and the CPU time the process spent in it, summed over the threads.
/// The CPU time leaves out what a busy shared host adds to the wall
/// time of two threads that meet often: time its vCPUs were taken away,
/// and a blocked rank's late wake-up.
#[derive(Clone, Copy)]
pub struct TwoRank {
    pub wall: Duration,
    pub cpu: Duration,
}

/// Runs `f`, a two-rank phase, returning its result and host times.
pub fn timed_two<T>(f: impl FnOnce() -> T) -> (T, TwoRank) {
    let cpu = process_cpu();
    let (out, wall) = timed(f);
    let cpu = process_cpu().saturating_sub(cpu);
    (out, TwoRank { wall, cpu })
}

/// CPU time of this process, all threads (`CLOCK_PROCESS_CPUTIME_ID`;
/// the standard library has no process clock). Linux, 64-bit.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, exclusively borrowed out-parameter of the
    // layout the C library expects on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    Duration::new(t.sec as u64, t.nsec as u32)
}

/// Replays DynCaPI startup step by step on a fresh process and records
/// each step's host time: launch, XRay pass + registration, ID → name
/// resolution, IC filter matching (`FilterFile::is_included` over every
/// resolved sled name), sled patching and the inlined-away check
/// (`Binary::has_symbol` per literal IC entry). `total` is the measured time
/// of the real startup call; what the replayed steps do not cover is
/// recorded as `dyncapi.startup_other_ms`.
pub fn attribute_startup(
    binary: &Binary,
    filter: Option<&FilterFile>,
    total: Duration,
    rec: &mut Record,
) {
    let (mut process, launch) = timed(|| Process::launch_binary(binary).expect("launch replays"));
    let runtime = XRayRuntime::new();
    let pass_opts = PassOptions::instrument_all();
    let (instrumented, pass) = timed(|| {
        let mut out = Vec::new();
        let main = process.object(0).expect("main object");
        let inst = instrument_object(main.image.clone(), &pass_opts);
        let id = runtime
            .register_main(inst.clone(), main, TrampolineSet::absolute())
            .expect("main registers");
        out.push((id, inst));
        for (pi, lo) in process.loaded().filter(|(i, _)| *i != 0) {
            let inst = instrument_object(lo.image.clone(), &pass_opts);
            let id = runtime
                .register_dso(inst.clone(), lo, pi, TrampolineSet::pic())
                .expect("dso registers");
            out.push((id, inst));
        }
        out
    });
    let refs: Vec<_> = instrumented.iter().map(|(id, i)| (*id, i)).collect();
    let (symbols, resolve) = timed(|| resolve_ids(&process, &runtime, &refs));
    let (selected, filter_match) = timed(|| {
        instrumented
            .iter()
            .map(|(oid, inst)| {
                let fids: Vec<u32> = inst
                    .sleds
                    .entries
                    .iter()
                    .filter(|e| {
                        let Some(f) = filter else { return true };
                        PackedId::pack(*oid, e.fid)
                            .ok()
                            .and_then(|id| symbols.name_of(id))
                            .is_some_and(|name| f.is_included(name))
                    })
                    .map(|e| e.fid)
                    .collect();
                (*oid, fids)
            })
            .collect::<Vec<_>>()
    });
    let (_, patch) = timed(|| {
        for (oid, fids) in &selected {
            match filter {
                None => runtime.patch_all(&mut process.memory, *oid),
                Some(_) => runtime.patch_functions(&mut process.memory, *oid, fids),
            }
            .expect("patch replays");
        }
    });
    // Startup then looks up every literal IC entry in the binary's
    // symbol tables to report the ones inlining removed.
    let (_, missing_check) = timed(|| {
        for want in filter.map(FilterFile::literal_includes).unwrap_or_default() {
            std::hint::black_box(binary.has_symbol(want));
        }
    });
    let covered = launch + pass + resolve + filter_match + patch + missing_check;
    rec.layer("startup_ms", ms(total));
    rec.layer("objmodel.launch_ms", ms(launch));
    rec.layer("xray.pass_ms", ms(pass));
    rec.layer("dyncapi.resolve_ids_ms", ms(resolve));
    if filter.is_some() {
        rec.layer("scorep.filter_match_ms", ms(filter_match));
    }
    rec.layer("xray.patch_ms", ms(patch));
    if filter.is_some() {
        rec.layer("objmodel.symbol_check_ms", ms(missing_check));
    }
    rec.layer("dyncapi.startup_other_ms", ms(total) - ms(covered));
}

/// Summed wall time (ms) per span name, read from the telemetry's
/// Chrome trace. Spans that carry no wall time add nothing.
pub fn span_walls(tel: &Telemetry) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let doc = tel.chrome_trace_json();
    let Some(events) = doc.get("traceEvents").and_then(|v| v.as_array()) else {
        return out;
    };
    for ev in events {
        if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
            continue;
        }
        let Some(name) = ev.get("name").and_then(|v| v.as_str()) else {
            continue;
        };
        let wall = ev
            .get("args")
            .and_then(|a| a.get("wall_ns"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        *out.entry(name.to_string()).or_default() += wall as f64 / 1e6;
    }
    out
}

/// Wall ms of one span name (0 when absent).
pub fn span_ms(walls: &BTreeMap<String, f64>, name: &str) -> f64 {
    walls.get(name).copied().unwrap_or(0.0)
}
