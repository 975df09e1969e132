//! End-to-end and per-layer host-time benchmark of the CaPI
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload refine|adapt|trace-heavy --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop with one simulated analyst driving the
//! public API of the workspace crates on two rank threads. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it times every layer separately and reports the per-layer metrics
//! plus a table that shows each layer's self time and the residual no
//! layer covers. Host time and the cost model's virtual ns are kept in
//! separate, labelled fields. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--emit-refs` prints the virtual outputs of one iteration as
//! reference lines for `src/refs.rs` instead of checking them.

mod layers;
mod probe;
mod refs;
mod stats;
mod workloads;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rank threads per workload (at most the cores of the reference host).
pub const RANKS: u32 = 2;

/// End-to-end metrics: `(name, unit, lower is better)`.
const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("turnaround_s", "s", true),
    ("startup_s", "s", true),
    ("run_s", "s", true),
    ("events_per_s", "1/s", false),
    ("peak_rss_mb", "MB", true),
];

/// Per-layer metrics reported in the JSON line on every workload:
/// `(name, unit)`. Layers only one workload exercises are printed in
/// the traced table instead (see the README).
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("metacg.callgraph_ms", "ms"),
    ("objmodel.compile_ms", "ms"),
    ("objmodel.launch_ms", "ms"),
    ("xray.pass_ms", "ms"),
    ("dyncapi.resolve_ids_ms", "ms"),
    ("xray.patch_ms", "ms"),
    ("dyncapi.startup_other_ms", "ms"),
    ("exec.prepare_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("scorep.filter_rules", "count"),
    ("xray.sleds_total", "count"),
    ("xray.sleds_patched", "count"),
    ("xray.sleds_unpatched", "count"),
    ("objmodel.mprotect_calls", "count"),
    ("adapt.converged_epoch", "count"),
    ("adapt.dropped", "count"),
    ("persist.profile_bytes", "bytes"),
    ("exec.events", "count"),
    ("exec.nop_sleds", "count"),
    ("scorep.callpath_nodes", "count"),
    ("talp.regions", "count"),
];

/// Measured A/A run-to-run spread of every end-to-end metric (quartile
/// distance over median across ten seeds), stored beside its bound.
const NOISE_FLOOR: &str = include_str!("../noise_floor.json");

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub emit_refs: bool,
    /// A result line saved from an earlier run of the same workload, to
    /// judge each end-to-end metric against.
    pub baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        emit_refs: false,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-refs" {
            args.emit_refs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--baseline" => args.baseline = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(args)
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Record {
    /// End-to-end host samples per metric, grouped (e.g. per spec).
    e2e: BTreeMap<&'static str, BTreeMap<String, Vec<Sample>>>,
    /// Per-layer host samples (ms) and counts, by layer name.
    layers: BTreeMap<String, Vec<f64>>,
    /// Virtual (cost-model) ns outputs, by name. Never mixed with host.
    virt: BTreeMap<String, Vec<u64>>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    emit_refs: bool,
    observed: BTreeMap<String, String>,
    /// Host-speed probe times (ms), about one pair a second: one
    /// thread, and two threads at once.
    probes_single: Vec<f64>,
    probes_pair: Vec<f64>,
    last_probe: Option<Instant>,
    /// Host time spent in probes so far, so that a phase that contains
    /// probes can leave them out.
    probing: Duration,
}

/// A phase timed by [`Record::bracketed`]: its host time and its local
/// speed factor.
#[derive(Clone, Copy)]
pub struct Bracketed {
    pub took: Duration,
    factor: f64,
}

/// One end-to-end sample: host time spent single-threaded and with both
/// rank threads running, and, for a rate, the events it counts.
#[derive(Clone, Copy)]
pub struct Sample {
    serial: f64,
    parallel: f64,
    events: Option<f64>,
    /// Host time of the phases timed by [`Record::bracketed`]: raw, and
    /// each scaled by its own local factor. `serial` and `parallel`
    /// hold the rest.
    bracketed_raw: f64,
    bracketed_scaled: f64,
}

impl Sample {
    /// The raw value, or with `Some((single, pair))` the scaled value:
    /// bracketed phases scaled by their local factors, the rest of the
    /// serial part by `single` and of the parallel part by `pair`.
    fn value(self, factors: Option<(f64, f64)>) -> f64 {
        let t = match factors {
            None => self.serial + self.parallel + self.bracketed_raw,
            Some((single, pair)) => {
                self.serial * single + self.parallel * pair + self.bracketed_scaled
            }
        };
        self.events.map_or(t, |n| n / t)
    }
}

impl Record {
    fn push(&mut self, metric: &'static str, group: &str, sample: Sample) {
        self.e2e
            .entry(metric)
            .or_default()
            .entry(group.to_string())
            .or_default()
            .push(sample);
    }

    /// One end-to-end time sample of `metric` in `group`: the `phases`
    /// timed by [`Record::bracketed`], plus `serial` spent on one thread
    /// and `parallel` with both rank threads running outside them.
    pub fn time(
        &mut self,
        metric: &'static str,
        group: &str,
        serial: Duration,
        parallel: Duration,
        phases: &[Bracketed],
    ) {
        let sample = Sample {
            serial: serial.as_secs_f64(),
            parallel: parallel.as_secs_f64(),
            events: None,
            bracketed_raw: phases.iter().map(|p| p.took.as_secs_f64()).sum(),
            bracketed_scaled: phases.iter().map(|p| p.took.as_secs_f64() * p.factor).sum(),
        };
        self.push(metric, group, sample);
    }

    /// One end-to-end time sample that is one bracketed phase.
    pub fn time_phase(&mut self, metric: &'static str, group: &str, phase: Bracketed) {
        self.time(metric, group, Duration::ZERO, Duration::ZERO, &[phase]);
    }

    /// One rate sample: `events` over `parallel` host time.
    pub fn rate(&mut self, metric: &'static str, group: &str, events: u64, parallel: Duration) {
        let sample = Sample {
            serial: 0.0,
            parallel: parallel.as_secs_f64(),
            events: Some(events as f64),
            bracketed_raw: 0.0,
            bracketed_scaled: 0.0,
        };
        self.push(metric, group, sample);
    }

    /// One per-layer sample (host ms, or a count).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.entry(name.to_string()).or_default().push(value);
    }

    /// One virtual-ns output of the cost model.
    pub fn virtual_ns(&mut self, name: &str, value: u64) {
        self.virt.entry(name.to_string()).or_default().push(value);
    }

    /// Checks one operation's outputs against the references kept in
    /// `refs.rs`. Any missing or different value fails the operation.
    pub fn check(&mut self, op: &str, outputs: &[(String, String)]) {
        self.attempted += 1;
        if self.emit_refs {
            for (k, v) in outputs {
                self.observed.insert(k.clone(), v.clone());
            }
            return;
        }
        let mut ok = true;
        for (key, got) in outputs {
            match refs::get(key) {
                Some(want) if want == got => {}
                want => {
                    ok = false;
                    self.mismatches
                        .push(format!("{op}: {key} = {got}, reference {want:?}"));
                }
            }
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Times the host-speed probe, unless one ran less than a second ago.
    pub fn probe_tick(&mut self) {
        if self
            .last_probe
            .is_some_and(|t| t.elapsed() < Duration::from_secs(1))
        {
            return;
        }
        let start = Instant::now();
        self.probes_single.push(probe::run_once());
        self.probes_pair.push(probe::run_pair());
        self.last_probe = Some(Instant::now());
        self.probing += start.elapsed();
    }

    /// Runs `f`, a single-threaded phase of seconds, between two bursts
    /// of the one-thread probe, and returns its result and the timed
    /// phase with its local speed factor: reference probe time over the
    /// median of both bursts. The host's speed swings within seconds,
    /// so a run-wide factor cannot follow it across such a phase.
    pub fn bracketed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Bracketed) {
        let burst = || (0..probe::BURST).map(|_| probe::run_once());
        let start = Instant::now();
        let mut probes: Vec<f64> = burst().collect();
        let (out, took) = layers::timed(f);
        probes.extend(burst());
        self.probing += start.elapsed() - took;
        let factor = probe::REFERENCE_SINGLE_MS / stats::median(&probes).expect("bursts run");
        (out, Bracketed { took, factor })
    }

    /// Host time spent in probes so far.
    pub fn probing(&self) -> Duration {
        self.probing
    }

    /// Reference probe time over this run's median probe time, for one
    /// thread and for two: above 1 when the host ran faster than the
    /// reference, below when slower.
    fn speed_factors(&self) -> (f64, f64) {
        let f =
            |probes: &[f64], reference: f64| stats::median(probes).map_or(1.0, |m| reference / m);
        (
            f(&self.probes_single, probe::REFERENCE_SINGLE_MS),
            f(&self.probes_pair, probe::REFERENCE_PAIR_MS),
        )
    }

    /// Counts an operation that returned an error.
    pub fn error(&mut self, op: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.mismatches.push(format!("{op}: error: {err}"));
    }

    /// The value of an end-to-end metric, scaled to the reference probe
    /// speed or raw: the mean over groups of each group's median, so a
    /// run that covers each group (spec, cold / warm) weighs them
    /// equally whatever their sample counts.
    fn e2e_value(&self, metric: &str, scaled: bool) -> Option<f64> {
        let factors = scaled.then(|| self.speed_factors());
        let groups = self.e2e.get(metric)?;
        let meds: Vec<f64> = groups
            .values()
            .filter_map(|v| stats::median(&v.iter().map(|s| s.value(factors)).collect::<Vec<_>>()))
            .collect();
        (!meds.is_empty()).then(|| meds.iter().sum::<f64>() / meds.len() as f64)
    }

    /// All raw samples of a metric, across groups.
    fn e2e_pooled(&self, metric: &str) -> Vec<f64> {
        self.e2e
            .get(metric)
            .map(|g| g.values().flatten().map(|s| s.value(None)).collect())
            .unwrap_or_default()
    }

    /// Mean of a layer's samples: per operation, a layer's times plus
    /// the residual recorded beside them add up to the operation's
    /// total, and means keep that sum.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        let v = self.layers.get(name)?;
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Bounds from `BENCHMARK.json` in the working directory, if present.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = serde_json::from_str(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(|v| v.as_array())
        .map(|ms| {
            ms.iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// End-to-end values of a saved result line (its last line is used).
fn baseline_values(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text.lines().last().ok_or(format!("{path}: empty"))?;
    let doc = serde_json::from_str(line).map_err(|e| format!("{path}: {e:?}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or(format!("{path}: no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

fn noise_floor(workload: &str, metric: &str) -> Option<f64> {
    let doc = serde_json::from_str(NOISE_FLOOR).ok()?;
    doc.get(workload)?.get(metric)?.as_f64()
}

fn print_host_facts(args: &Args) {
    let n = cores();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "== e2ebench {} (seed {}, {} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: cores {n} | build {profile} | {} | ranks {RANKS}{}",
        env!("E2EBENCH_RUSTC"),
        if RANKS > n {
            " | COUNTS-ONLY: rank threads exceed cores, host times are not comparable"
        } else {
            ""
        }
    );
}

fn print_e2e(args: &Args, rec: &Record) {
    let bounds = bounds();
    let baseline = args.baseline.as_deref().map(baseline_values);
    if let Some(Err(e)) = &baseline {
        println!("baseline unreadable: {e}");
    }
    let baseline = baseline.and_then(Result::ok);
    let (single, pair) = rec.speed_factors();
    println!(
        "\nhost-speed probes ({} each): one thread median {:.3} ms (reference {:.1}), factor {:.4}; two threads median {:.3} ms (reference {:.1}), factor {:.4}",
        rec.probes_single.len(),
        stats::median(&rec.probes_single).unwrap_or(f64::NAN),
        probe::REFERENCE_SINGLE_MS,
        single,
        stats::median(&rec.probes_pair).unwrap_or(f64::NAN),
        probe::REFERENCE_PAIR_MS,
        pair,
    );
    println!("end-to-end (value = host time at reference speed; raw = as measured; median, pooled in-run quartile spread, tail = highest raw percentile with >=10 samples beyond):");
    println!(
        "  {:<14} {:>14} {:>14} {:<4} {:>5} {:>7} {:>18}  {:>6} {:>6}  gate",
        "metric", "value", "raw", "unit", "n", "iqr", "tail", "bound", "noise"
    );
    for &(name, unit, lower_is_better) in END_TO_END {
        let (Some(value), Some(raw)) = (
            metric_value(rec, name, true),
            metric_value(rec, name, false),
        ) else {
            continue;
        };
        let pooled = rec.e2e_pooled(name);
        let tail = stats::tail_percentile(&pooled)
            .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.5}"));
        let iqr = stats::spread(&pooled).map_or("-".to_string(), |s| format!("{s:.3}"));
        let bound = bounds.get(name).copied();
        let floor = noise_floor(&args.workload, name);
        let gate = match (bound, floor, baseline.as_ref().and_then(|b| b.get(name))) {
            (Some(b), Some(f), Some(&base)) => stats::verdict(base, value, lower_is_better, b, f)
                .label()
                .to_string(),
            // A bound inside the noise floor cannot resolve a regression.
            (Some(b), Some(f), None) if b <= f => "unresolved".to_string(),
            (Some(_), Some(_), None) => "resolvable".to_string(),
            _ => "no floor".to_string(),
        };
        println!(
            "  {:<14} {:>14.5} {:>14.5} {:<4} {:>5} {:>7} {:>18}  {:>6} {:>6}  {gate}",
            name,
            value,
            raw,
            unit,
            pooled.len().max(1),
            iqr,
            tail,
            bound.map_or("-".into(), |b| format!("{b:.3}")),
            floor.map_or("-".into(), |f| format!("{f:.3}")),
        );
    }
    for extra in ["adapt_s", "warm_adapt_s"] {
        if let Some(v) = rec.e2e_value(extra, true) {
            let pooled = rec.e2e_pooled(extra);
            println!(
                "  {:<14} {:>14.5} {:<4} {:>5}  (adapt only, not in the JSON line)",
                extra,
                v,
                "s",
                pooled.len()
            );
        }
    }
}

/// Value of an end-to-end metric: times and rates scaled to the
/// reference probe speed (see `probe.rs`) or raw; memory as measured.
fn metric_value(rec: &Record, name: &str, scaled: bool) -> Option<f64> {
    match name {
        "peak_rss_mb" => peak_rss_mb(),
        _ => rec.e2e_value(name, scaled),
    }
}

fn print_virtual(rec: &Record) {
    if rec.virt.is_empty() {
        return;
    }
    println!("\nvirtual (cost-model outputs, ns unless marked count; not host time):");
    for (name, vs) in &rec.virt {
        let lo = vs.iter().min().unwrap_or(&0);
        let hi = vs.iter().max().unwrap_or(&0);
        if lo == hi {
            println!("  {name:<40} {lo:>16}  (n={})", vs.len());
        } else {
            println!("  {name:<40} {lo:>16} .. {hi}  (n={}, varies)", vs.len());
        }
    }
}

fn result_line(rec: &Record, trace: bool) -> Value {
    let mut metrics = Map::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            let value = rec.layer_value(name).unwrap_or(0.0);
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
    } else {
        for &(name, unit, _) in END_TO_END {
            if let Some(value) = metric_value(rec, name, true) {
                metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
            }
        }
    }
    let complete = trace || metrics.len() == END_TO_END.len();
    json!({
        "correct": rec.failed == 0 && rec.attempted > 0 && complete,
        "attempted": rec.attempted.max(1),
        "failed": rec.failed,
        "metrics": Value::Object(metrics),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    print_host_facts(&args);
    let mut rec = Record {
        emit_refs: args.emit_refs,
        ..Default::default()
    };
    workloads::run(&args, &mut rec);

    if args.emit_refs {
        for (k, v) in &rec.observed {
            println!("    (\"{k}\", \"{v}\"),");
        }
        return ExitCode::SUCCESS;
    }
    if args.trace {
        workloads::print_layer_table(&args, &rec);
    } else {
        print_e2e(&args, &rec);
    }
    print_virtual(&rec);
    println!(
        "\nchecks: {} operations, {} failed (failed_ops {:.4})",
        rec.attempted,
        rec.failed,
        stats::failed_share(rec.failed, rec.attempted)
    );
    for m in rec.mismatches.iter().take(20) {
        println!("  MISMATCH {m}");
    }
    println!(
        "{}",
        serde_json::to_string(&result_line(&rec, args.trace)).expect("serialisable")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::Sample;

    #[test]
    fn samples_scale_serial_and_parallel_parts_separately() {
        let t = Sample {
            serial: 2.0,
            parallel: 1.0,
            events: None,
            bracketed_raw: 0.0,
            bracketed_scaled: 0.0,
        };
        assert_eq!(t.value(None), 3.0);
        // Host ran slower than the reference on one thread (0.5) and on
        // two (0.25): each part is scaled by its own factor.
        assert_eq!(t.value(Some((0.5, 0.25))), 1.25);
        let r = Sample {
            serial: 0.0,
            parallel: 2.0,
            events: Some(100.0),
            bracketed_raw: 0.0,
            bracketed_scaled: 0.0,
        };
        assert_eq!(r.value(None), 50.0);
        assert_eq!(r.value(Some((1.0, 0.5))), 100.0);
    }

    #[test]
    fn bracketed_phases_keep_their_local_factors() {
        // 1 s serial, 1 s parallel, and a 2 s phase the probes around it
        // timed at 1.5x the reference speed.
        let t = Sample {
            serial: 1.0,
            parallel: 1.0,
            events: None,
            bracketed_raw: 2.0,
            bracketed_scaled: 3.0,
        };
        assert_eq!(t.value(None), 4.0);
        assert_eq!(t.value(Some((0.5, 0.25))), 3.75);
    }
}
