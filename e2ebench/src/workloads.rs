//! The three closed-loop workloads: `refine`, `adapt`, `trace-heavy`.

use crate::layers::{attribute_startup, ms, span_ms, span_walls, timed, timed_two, TwoRank};
use crate::{stats, Args, Record, RANKS};
use capi::{dynamic_session, AdaptiveRunBuilder, Workflow};
use capi_appmodel::SourceProgram;
use capi_dyncapi::{startup, DynCapiConfig, ProfileSource, Session, SessionRun, ToolChoice};
use capi_exec::{Engine, OverheadModel};
use capi_metacg::whole_program_callgraph;
use capi_mpisim::{CostModel, World};
use capi_objmodel::{compile, CompileOptions};
use capi_obs::Telemetry;
use capi_persist::InstrumentationProfile;
use capi_workloads::{lulesh, openfoam, LuleshParams, OpenFoamParams, PAPER_SPECS};
use capi_xray::PassOptions;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["refine", "adapt", "trace-heavy"];

/// OpenFOAM model scale of `refine` and `adapt`.
const OF_SCALE: usize = 60_000;
/// Epochs and overhead budget of the adaptive runs (the table3 path).
const ADAPT_EPOCHS: usize = 6;
const ADAPT_BUDGET_PCT: f64 = 5.0;
/// Controller seeds `adapt` picks from by `--seed`.
const ADAPT_SEEDS: [u64; 4] = [0x5EED, 0xA11CE, 0xB0B, 0xC0FFEE];
/// LULESH time steps `trace-heavy` picks from by `--seed` (default
/// model: 200), raised so one run is event-bound and long.
const LULESH_STEPS: [u64; 4] = [1_600, 1_601, 1_602, 1_603];
/// Set-ups per run; the reported `setup_s` is their median.
const OF_SETUPS: usize = 5;
const LULESH_SETUPS: usize = 25;

#[derive(Clone, Copy)]
enum Model {
    OpenFoam,
    Lulesh { steps: u64 },
}

impl Model {
    fn program(self) -> SourceProgram {
        match self {
            Model::OpenFoam => openfoam(&OpenFoamParams {
                scale: OF_SCALE,
                ..Default::default()
            }),
            Model::Lulesh { steps } => lulesh(&LuleshParams {
                time_steps: steps,
                ..Default::default()
            }),
        }
    }

    fn compile_opts(self) -> CompileOptions {
        match self {
            Model::OpenFoam => CompileOptions::o2(),
            Model::Lulesh { .. } => CompileOptions::o3(),
        }
    }

    fn setups(self) -> usize {
        match self {
            Model::OpenFoam => OF_SETUPS,
            Model::Lulesh { .. } => LULESH_SETUPS,
        }
    }
}

/// Builds the workload and runs `Workflow::analyze` several times,
/// recording `setup_s` per repetition (and, traced, its layers), and
/// returns the last workflow.
fn setup(model: Model, trace: bool, rec: &mut Record) -> Workflow {
    let mut last = None;
    for _ in 0..model.setups() {
        drop(last.take());
        rec.probe_tick();
        let (program, build) = timed(|| model.program());
        if trace {
            let (_, cg) = timed(|| whole_program_callgraph(&program));
            let (_, cc) = timed(|| compile(&program, &model.compile_opts()));
            rec.layer("workloads.build_ms", ms(build));
            rec.layer("metacg.callgraph_ms", ms(cg));
            rec.layer("objmodel.compile_ms", ms(cc));
        }
        let (wf, analyze) = timed(|| Workflow::analyze(program, model.compile_opts()));
        let wf = wf.expect("workload compiles");
        if trace {
            let covered = rec.layers["metacg.callgraph_ms"].last().unwrap()
                + rec.layers["objmodel.compile_ms"].last().unwrap();
            rec.layer("core.analyze_other_ms", ms(analyze) - covered);
            rec.layer("setup_ms", ms(build + analyze));
        }
        rec.time("setup_s", "all", build + analyze, Duration::ZERO, &[]);
        last = Some(wf);
    }
    last.expect("at least one setup")
}

/// Dispatches to the selected workload.
pub fn run(args: &Args, rec: &mut Record) {
    match args.workload.as_str() {
        "refine" => refine(args, rec),
        "adapt" => adapt(args, rec),
        _ => trace_heavy(args, rec),
    }
}

fn talp() -> ToolChoice {
    ToolChoice::Talp(Default::default())
}

/// Startup counts shared by every workload.
fn startup_counts(session: &Session, rec: &mut Record) {
    let r = &session.report;
    rec.layer("xray.sleds_total", r.total_sleds as f64);
    rec.layer("xray.sleds_patched", r.sleds_patched as f64);
    rec.layer("objmodel.mprotect_calls", r.mprotect_calls as f64);
}

/// One measured run. Untraced this is `Session::run`; traced it is the
/// same steps through the public executor API (`Engine::prepare`, then
/// `Engine::run`), each timed, which must give the same virtual outputs.
fn measured_run(
    session: &Session,
    trace: bool,
    rec: &mut Record,
) -> Result<(SessionRun, TwoRank), String> {
    if !trace {
        let (run, t) = timed_two(|| session.run());
        return run.map(|r| (r, t)).map_err(|e| e.to_string());
    }
    let (steps, total) = timed_two(|| {
        let world = World::new(RANKS, CostModel::default());
        if let Some(t) = &session.talp {
            world.add_hook(t.clone());
        }
        let (engine, prepare) =
            timed(|| Engine::prepare(&session.process, &session.runtime, OverheadModel::default()));
        let engine = engine.map_err(|e| e.to_string())?;
        let (report, exec) = timed(|| engine.run(&world));
        Ok::<_, String>((report.map_err(|e| e.to_string())?, prepare, exec))
    });
    let (report, prepare, exec) = steps?;
    rec.layer("exec.prepare_ms", ms(prepare));
    rec.layer("exec.run_ms", ms(exec));
    rec.layer("exec.run_other_ms", ms(total.wall - prepare - exec));
    Ok((
        SessionRun {
            init_ns: session.report.init_ns,
            total_ns: session.report.init_ns + report.total_ns,
            run: report,
        },
        total,
    ))
}

fn run_outputs(prefix: &str, run: &SessionRun) -> Vec<(String, String)> {
    vec![
        (format!("{prefix}/init_ns"), run.init_ns.to_string()),
        (format!("{prefix}/run_ns"), run.run.total_ns.to_string()),
        (format!("{prefix}/total_ns"), run.total_ns.to_string()),
        (format!("{prefix}/events"), run.run.events.to_string()),
    ]
}

fn record_run_virtual(prefix: &str, run: &SessionRun, rec: &mut Record) {
    rec.virtual_ns(&format!("{prefix}.init_ns"), run.init_ns);
    rec.virtual_ns(&format!("{prefix}.run_ns"), run.run.total_ns);
    rec.virtual_ns(&format!("{prefix}.total_ns"), run.total_ns);
}

/// The timed loop's clock. Another iteration starts only if one more
/// as long as the last still ends before the deadline, so a run
/// measures about `--seconds` and does not overrun by a whole
/// iteration. At least one iteration always runs.
struct Budget {
    end: Instant,
    last: Instant,
    once: bool,
}

impl Budget {
    fn new(args: &Args) -> Self {
        let now = Instant::now();
        Self {
            end: now + Duration::from_secs_f64(args.seconds.max(0.0)),
            last: now,
            once: args.emit_refs,
        }
    }

    fn another(&mut self) -> bool {
        let now = Instant::now();
        let took = now - self.last;
        self.last = now;
        !self.once && now + took <= self.end
    }
}

fn key(name: &str) -> String {
    name.replace(' ', "_")
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `step` in a closed loop until the time budget is spent. An
/// iteration that returns an error counts as one failed operation.
fn closed_loop(
    args: &Args,
    rec: &mut Record,
    op: &str,
    mut step: impl FnMut(&mut Record) -> Result<(), String>,
) {
    let mut budget = Budget::new(args);
    loop {
        rec.probe_tick();
        if let Err(e) = step(rec) {
            rec.error(op, e);
        }
        if !budget.another() {
            break;
        }
    }
}

/// `refine`: the paper's refinement loop. The analyst cycles through
/// the four paper specs (starting point rotated by the seed): select →
/// IC → startup → run, one IC change per iteration. Whole cycles only.
fn refine(args: &Args, rec: &mut Record) {
    let wf = setup(Model::OpenFoam, args.trace, rec);
    let rot = (args.seed % PAPER_SPECS.len() as u64) as usize;
    let order: Vec<_> = PAPER_SPECS
        .iter()
        .cycle()
        .skip(rot)
        .take(PAPER_SPECS.len())
        .collect();
    closed_loop(args, rec, "refine", |rec| {
        for spec in &order {
            let name = key(spec.name);
            if let Err(e) = refine_once(&wf, spec.source, &name, args.trace, rec) {
                rec.error(&format!("refine/{name}"), e);
            }
        }
        Ok(())
    });
}

/// One IC change of `refine`: spec source to measured run report.
fn refine_once(
    wf: &Workflow,
    source: &str,
    name: &str,
    trace: bool,
    rec: &mut Record,
) -> Result<(), String> {
    rec.probe_tick();
    let op = format!("refine/{name}");
    let probing = rec.probing();
    let t0 = Instant::now();
    let (sel, t_sel) = timed(|| wf.select(source));
    let sel = sel.map_err(err)?;
    let (ic, t_ic) = timed(|| wf.make_ic(&sel));
    let (session, start) = rec.bracketed(|| dynamic_session(&wf.binary, &ic.ic, talp(), RANKS));
    let t_start = start.took;
    let session = session.map_err(err)?;
    if trace {
        let filter = ic.ic.to_scorep_filter();
        rec.layer(&format!("spec.select_ms.{name}"), ms(t_sel));
        rec.layer(&format!("core.make_ic_ms.{name}"), ms(t_ic));
        rec.layer("scorep.filter_rules", filter.num_rules() as f64);
        attribute_startup(&wf.binary, Some(&filter), t_start, rec);
        startup_counts(&session, rec);
        rec.layer(&format!("startup_ms.{name}"), ms(t_start));
    }
    let (run, t_run) = measured_run(&session, trace, rec)?;
    let turnaround = t0.elapsed() - (rec.probing() - probing);
    rec.check(&op, &run_outputs(&op, &run));
    record_run_virtual(&op, &run, rec);
    rec.virtual_ns(&format!("{op}.events(count)"), run.run.events);
    let rest = turnaround - t_start - t_run.wall;
    rec.time("turnaround_s", name, rest, t_run.cpu, &[start]);
    rec.time_phase("startup_s", name, start);
    rec.time("run_s", name, Duration::ZERO, t_run.cpu, &[]);
    rec.rate("events_per_s", name, run.run.events, t_run.cpu);
    if trace {
        rec.layer(&format!("turnaround_ms.{name}"), ms(turnaround));
        rec.layer(&format!("run_ms.{name}"), ms(t_run.wall));
        rec.layer("run_ms", ms(t_run.wall));
        rec.layer("exec.events", run.run.events as f64);
        rec.layer("exec.nop_sleds", run.run.nop_sleds as f64);
        if let Some(t) = &session.talp {
            rec.layer("talp.regions", t.stats().registered as f64);
        }
    }
    Ok(())
}

fn adaptive_outputs(prefix: &str, out: &capi::AdaptiveOutcome) -> Vec<(String, String)> {
    let a = &out.adaptive;
    vec![
        (format!("{prefix}/init_ns"), a.init_ns.to_string()),
        (format!("{prefix}/adapt_ns"), a.adapt_ns.to_string()),
        (format!("{prefix}/run_ns"), a.run_ns.to_string()),
        (format!("{prefix}/total_ns"), a.total_ns.to_string()),
        (format!("{prefix}/events"), a.events.to_string()),
        (format!("{prefix}/restarts"), a.restarts.to_string()),
        (
            format!("{prefix}/warm_started"),
            out.warm_started.to_string(),
        ),
        (format!("{prefix}/log_digest"), stats::digest(&out.log)),
    ]
}

fn record_adaptive_virtual(prefix: &str, out: &capi::AdaptiveOutcome, rec: &mut Record) {
    let a = &out.adaptive;
    rec.virtual_ns(&format!("{prefix}.init_ns"), a.init_ns);
    rec.virtual_ns(&format!("{prefix}.adapt_ns"), a.adapt_ns);
    rec.virtual_ns(&format!("{prefix}.run_ns"), a.run_ns);
    rec.virtual_ns(&format!("{prefix}.total_ns"), a.total_ns);
}

/// Where `adapt` saves and reloads its profile: inside the checkout.
fn profile_path() -> PathBuf {
    let dir = PathBuf::from("e2ebench/.run");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("adapt_profile_{}.json", std::process::id()))
}

/// `adapt`: the table3 path. Per iteration: the `mpi` spec once, a
/// startup and a cold adaptive run under a 5 % budget, profile save and
/// load, then a second startup warm-started from that profile.
fn adapt(args: &Args, rec: &mut Record) {
    let wf = setup(Model::OpenFoam, args.trace, rec);
    let seed = ADAPT_SEEDS[(args.seed % ADAPT_SEEDS.len() as u64) as usize];
    let prefix = format!("adapt/{seed:x}");
    let path = profile_path();
    let mut iteration = 0u64;
    // Traced runs alternate telemetry on and off for the cold run, so
    // the trace overhead on `adapt_s` can be read off the same run.
    let mut cold_s: [Vec<f64>; 2] = Default::default();
    closed_loop(args, rec, &prefix, |rec| {
        let with_tel = args.trace && iteration.is_multiple_of(2);
        iteration += 1;
        let t_cold = adapt_once(&wf, seed, &prefix, &path, args.trace, with_tel, rec)?;
        cold_s[with_tel as usize].push(t_cold);
        Ok(())
    });
    let _ = std::fs::remove_file(&path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
    if args.trace {
        if let (Some(p), Some(t)) = (stats::median(&cold_s[0]), stats::median(&cold_s[1])) {
            rec.layer("obs.trace_overhead_pct", 100.0 * (t - p) / p);
        }
    }
}

/// One `adapt` iteration; returns the cold adaptive run's host seconds.
fn adapt_once(
    wf: &Workflow,
    seed: u64,
    prefix: &str,
    path: &Path,
    trace: bool,
    with_tel: bool,
    rec: &mut Record,
) -> Result<f64, String> {
    let mpi = PAPER_SPECS
        .iter()
        .find(|s| s.name == "mpi")
        .expect("PAPER_SPECS has an mpi spec");
    let probing = rec.probing();
    let t0 = Instant::now();
    let (sel, t_sel) = timed(|| wf.select(mpi.source));
    let sel = sel.map_err(err)?;
    let (ic, t_ic) = timed(|| wf.make_ic(&sel));
    let runner = AdaptiveRunBuilder::new()
        .epochs(ADAPT_EPOCHS)
        .budget_pct(ADAPT_BUDGET_PCT)
        .seed(seed);

    // Cold: one startup, one adaptive run.
    let (session, start) = rec.bracketed(|| dynamic_session(&wf.binary, &ic.ic, talp(), RANKS));
    let t_start = start.took;
    let mut session = session.map_err(err)?;
    if trace {
        let filter = ic.ic.to_scorep_filter();
        rec.layer("spec.select_ms.mpi", ms(t_sel));
        rec.layer("core.make_ic_ms.mpi", ms(t_ic));
        rec.layer("scorep.filter_rules", filter.num_rules() as f64);
        attribute_startup(&wf.binary, Some(&filter), t_start, rec);
        startup_counts(&session, rec);
        let (engine, prepare) = timed(|| {
            Engine::prepare(&session.process, &session.runtime, OverheadModel::default()).map(drop)
        });
        engine.map_err(err)?;
        rec.layer("exec.prepare_ms", ms(prepare));
    }
    let tel = with_tel.then(Telemetry::new);
    let cold_runner = match &tel {
        Some(t) => runner.clone().telemetry(t.clone()),
        None => runner.clone(),
    };
    let (cold, cold_t) = timed_two(|| cold_runner.run(&mut session));
    let t_cold = cold_t.wall;
    let cold = cold.map_err(err)?;
    let op = format!("{prefix}/cold");
    rec.check(&op, &adaptive_outputs(&op, &cold));
    record_adaptive_virtual(&op, &cold, rec);

    // Persist: save, then load, the refined profile.
    cold.profile.save_with(path, tel.as_ref()).map_err(err)?;
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let profile = InstrumentationProfile::load_with(path, tel.as_ref()).map_err(err)?;

    // Warm: a second startup, warm-started from the loaded profile.
    rec.probe_tick();
    let (warm_session, start_warm) =
        rec.bracketed(|| dynamic_session(&wf.binary, &ic.ic, talp(), RANKS));
    let t_start_warm = start_warm.took;
    let mut warm_session = warm_session.map_err(err)?;
    let warm_runner = runner.profile(ProfileSource::Inline(profile));
    let (warm, warm_t) = timed_two(|| warm_runner.run(&mut warm_session));
    let t_warm = warm_t.wall;
    let warm = warm.map_err(err)?;
    let turnaround = t0.elapsed() - (rec.probing() - probing);
    let op = format!("{prefix}/warm");
    rec.check(&op, &adaptive_outputs(&op, &warm));
    record_adaptive_virtual(&op, &warm, rec);

    // The adaptive runs count as two-rank time, their controller steps
    // included; the startups are bracketed phases; everything else in
    // the iteration, probes left out, is single-threaded.
    let rest = turnaround - t_start - t_start_warm - t_cold - t_warm;
    let runs = cold_t.cpu + warm_t.cpu;
    rec.time("turnaround_s", "all", rest, runs, &[start, start_warm]);
    rec.time_phase("startup_s", "cold", start);
    rec.time_phase("startup_s", "warm", start_warm);
    rec.time("run_s", "cold", Duration::ZERO, cold_t.cpu, &[]);
    rec.rate("events_per_s", "cold", cold.adaptive.events, cold_t.cpu);
    rec.time("adapt_s", "cold", Duration::ZERO, cold_t.cpu, &[]);
    rec.time("warm_adapt_s", "warm", Duration::ZERO, warm_t.cpu, &[]);

    if trace {
        rec.layer("startup_ms.warm", ms(t_start_warm));
        rec.layer("warm_adapt_ms", ms(t_warm));
        rec.layer("turnaround_ms.adapt", ms(turnaround));
        rec.layer("persist.profile_bytes", bytes as f64);
        rec.layer("exec.events", cold.adaptive.events as f64);
        rec.layer("exec.nop_sleds", cold.adaptive.nop_sleds as f64);
        rec.layer(
            "xray.sleds_unpatched",
            cold.adaptive
                .records
                .iter()
                .map(|r| r.sleds_unpatched)
                .sum::<u64>() as f64,
        );
        rec.layer(
            "adapt.converged_epoch",
            cold.converged_at.unwrap_or(ADAPT_EPOCHS) as f64,
        );
        rec.layer(
            "adapt.dropped",
            cold.profile.functions.iter().filter(|f| !f.active).count() as f64,
        );
        if let Some(t) = &session.talp {
            rec.layer("talp.regions", t.stats().registered as f64);
        }
        if let Some(tel) = &tel {
            let walls = span_walls(tel);
            let run = span_ms(&walls, "dyncapi.run");
            let epoch = span_ms(&walls, "exec.epoch");
            let repatch = span_ms(&walls, "xray.repatch");
            rec.layer("adapt_ms", ms(t_cold));
            rec.layer("exec.run_ms", epoch);
            rec.layer("xray.repatch_ms", repatch);
            rec.layer("dyncapi.epoch_gap_ms", run - epoch - repatch);
            rec.layer("dyncapi.builder_other_ms", ms(t_cold) - run);
            rec.layer("persist.save_ms", span_ms(&walls, "persist.save"));
            rec.layer("persist.load_ms", span_ms(&walls, "persist.load"));
        }
    }
    Ok(t_cold.as_secs_f64())
}

/// `trace-heavy`: LULESH with every function patched (`xray full`)
/// under Score-P, run long: event-bound, so the dispatch fast path, the
/// Score-P handler and the executor do the work. Per iteration: one
/// startup and one run.
fn trace_heavy(args: &Args, rec: &mut Record) {
    let steps = LULESH_STEPS[(args.seed % LULESH_STEPS.len() as u64) as usize];
    let wf = setup(Model::Lulesh { steps }, args.trace, rec);
    let op = format!("trace-heavy/{steps}");
    let config = DynCapiConfig {
        tool: ToolChoice::Scorep(Default::default()),
        ic: None,
        pass: PassOptions::instrument_all(),
        ranks: RANKS,
        ..Default::default()
    };
    let mut totals: Vec<u64> = Vec::new();
    closed_loop(args, rec, &op, |rec| {
        let t0 = Instant::now();
        let (session, t_start) = timed(|| startup(&wf.binary, config.clone()));
        let session = session.map_err(err)?;
        if args.trace {
            rec.layer("scorep.filter_rules", 0.0);
            attribute_startup(&wf.binary, None, t_start, rec);
            startup_counts(&session, rec);
        }
        let (run, t_run) = measured_run(&session, args.trace, rec)?;
        let turnaround = t0.elapsed();
        // Known defect: Score-P's shared first-resolution cache charges
        // `first_resolution_ns` to whichever rank resolves an address
        // first, so the virtual total drifts between runs. The event
        // count and T_init are exact; the total is only reported.
        rec.check(
            &op,
            &[
                (format!("{op}/init_ns"), run.init_ns.to_string()),
                (format!("{op}/events"), run.run.events.to_string()),
            ],
        );
        record_run_virtual(&op, &run, rec);
        totals.push(run.total_ns);
        rec.time(
            "turnaround_s",
            "all",
            turnaround - t_run.wall,
            t_run.cpu,
            &[],
        );
        // A startup of a few ms is not bracketed by probe bursts: they
        // would take longer than it.
        rec.time("startup_s", "all", t_start, Duration::ZERO, &[]);
        rec.time("run_s", "all", Duration::ZERO, t_run.cpu, &[]);
        rec.rate("events_per_s", "all", run.run.events, t_run.cpu);
        if args.trace {
            rec.layer("run_ms", ms(t_run.wall));
            rec.layer("exec.events", run.run.events as f64);
            rec.layer("exec.nop_sleds", run.run.nop_sleds as f64);
            if let Some(sp) = &session.scorep {
                let nodes: usize = (0..RANKS).map(|r| sp.profile(r).num_call_paths()).sum();
                rec.layer("scorep.callpath_nodes", nodes as f64);
            }
        }
        Ok(())
    });
    let spread = totals.iter().max().unwrap_or(&0) - totals.iter().min().unwrap_or(&0);
    rec.layer("scorep.virtual_total_spread_ns", spread as f64);
}

/// Prints the traced run's per-layer table: each blocking layer's self
/// time (mean ms per operation) and the residual no layer covers.
pub fn print_layer_table(args: &Args, rec: &Record) {
    let v = |name: &str| rec.layer_value(name);
    let row = |name: &str, unit: &str| {
        if let Some(x) = v(name) {
            println!("    {name:<34} {x:>12.3} {unit}");
        }
    };
    println!(
        "\nper-layer (host, mean per operation; traced run of `{}`):",
        args.workload
    );
    println!("  setup_s = workload build + Workflow::analyze");
    row("setup_ms", "ms  (total)");
    row("workloads.build_ms", "ms");
    row("metacg.callgraph_ms", "ms");
    row("objmodel.compile_ms", "ms");
    row("core.analyze_other_ms", "ms  (residual)");
    if args.workload == "refine" {
        println!("  turnaround_s = select + make_ic + startup + run (per spec)");
        for spec in PAPER_SPECS.iter().map(|s| key(s.name)) {
            println!("   [{spec}]");
            row(&format!("spec.select_ms.{spec}"), "ms");
            row(&format!("core.make_ic_ms.{spec}"), "ms");
            row(&format!("startup_ms.{spec}"), "ms");
            row(&format!("run_ms.{spec}"), "ms");
            row(&format!("turnaround_ms.{spec}"), "ms  (total)");
        }
    }
    if args.workload == "adapt" {
        println!("  turnaround_s = select + make_ic + startup + adapt + save/load + startup + warm adapt");
        row("spec.select_ms.mpi", "ms");
        row("core.make_ic_ms.mpi", "ms");
        row("turnaround_ms.adapt", "ms  (total)");
    }
    println!("  startup_s = dynamic_session / startup (replayed step by step)");
    row("startup_ms", "ms  (total)");
    for name in [
        "objmodel.launch_ms",
        "xray.pass_ms",
        "dyncapi.resolve_ids_ms",
        "scorep.filter_match_ms",
        "xray.patch_ms",
        "objmodel.symbol_check_ms",
    ] {
        row(name, "ms");
    }
    row("dyncapi.startup_other_ms", "ms  (residual)");
    row("scorep.filter_rules", "count");
    row("xray.sleds_total", "count");
    row("xray.sleds_patched", "count");
    row("objmodel.mprotect_calls", "count");
    if args.workload == "adapt" {
        println!("  adapt_s = cold AdaptiveRunBuilder::run (spans: dyncapi.run > exec.epoch, xray.repatch)");
        row("adapt_ms", "ms  (total)");
        row(
            "exec.prepare_ms",
            "ms  (one Engine::prepare on the started session)",
        );
        row("exec.run_ms", "ms  (sum of exec.epoch spans)");
        row("xray.repatch_ms", "ms  (sum)");
        row(
            "dyncapi.epoch_gap_ms",
            "ms  (residual inside dyncapi.run: prepare + view + controller)",
        );
        row(
            "dyncapi.builder_other_ms",
            "ms  (residual outside dyncapi.run)",
        );
        row("xray.sleds_unpatched", "count");
        row("adapt.converged_epoch", "count");
        row("adapt.dropped", "count");
        row("obs.trace_overhead_pct", "%  (traced vs untraced adapt_s)");
        println!("  warm_adapt_s = warm-started run; persistence:");
        row("warm_adapt_ms", "ms  (total)");
        row("startup_ms.warm", "ms");
        row("persist.save_ms", "ms  (span)");
        row("persist.load_ms", "ms  (span)");
        row("persist.profile_bytes", "bytes");
    } else {
        println!("  run_s = Engine::prepare + Engine::run");
        row("run_ms", "ms  (total)");
        row("exec.prepare_ms", "ms");
        row("exec.run_ms", "ms");
        row("exec.run_other_ms", "ms  (residual)");
    }
    println!("  events:");
    row("exec.events", "count");
    row("exec.nop_sleds", "count");
    row("talp.regions", "count");
    row("scorep.callpath_nodes", "count");
    row(
        "scorep.virtual_total_spread_ns",
        "virtual ns (Score-P drift, known defect)",
    );
}
