//! Host-speed probes.
//!
//! The reference host is a 2-core VM that shares its cores with other
//! tenants: its speed moved by 30 % between two sets of runs twenty
//! minutes apart, and by 2–3x at busy times, more than any bound a
//! metric may have. So each run also times a fixed CPU task that does
//! not touch the program under test, about once a second, in two forms:
//! on one thread (wall time), and on two threads at once (the CPU time
//! both spent). Single-threaded phases (set-up, startup) are wall time
//! and follow the first; phases where both rank threads run are
//! measured in process CPU time (`layers::timed_two`) and follow the
//! second. The end-to-end times are reported scaled by reference probe
//! time / the run's median probe time, per phase kind: host time at the
//! reference probe speed. The host's speed also swings within seconds,
//! which a run-wide median cannot follow across a startup of several
//! seconds, so each startup of `refine` and `adapt` is timed between two
//! bursts of `BURST` one-thread probes and scaled by their median
//! instead (`Record::bracketed`). Raw host values are printed beside the
//! scaled ones.

use crate::layers::timed_two;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Single-thread probe time on the reference host (2-core Xeon VM,
/// release build) at a quiet time, in ms.
pub const REFERENCE_SINGLE_MS: f64 = 8.0;
/// CPU time of the two-thread probe, both threads, on the same host at
/// a quiet time, in ms.
pub const REFERENCE_PAIR_MS: f64 = 18.0;

/// One-thread probes run right before and again right after a phase
/// timed by `Record::bracketed` (about 8 ms each on the reference host).
pub const BURST: usize = 8;

/// Runs the probe once and returns its wall time in ms. The task mixes
/// what the workloads spend host time on: building and hashing symbol
/// names, wildcard matching them, sorting.
pub fn run_once() -> f64 {
    let start = Instant::now();
    let names: Vec<String> = (0..12_000u32)
        .map(|i| format!("ns{}::Field{}::op_{}", i % 37, i % 211, i))
        .collect();
    let patterns: Vec<String> = (0..24u32)
        .map(|i| format!("ns{}::*::op_*{}", i % 37, i % 10))
        .collect();
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(names.len());
    for (i, n) in names.iter().enumerate() {
        index.insert(n, i);
    }
    let mut hits = 0usize;
    for n in &names {
        for p in &patterns {
            if glob(p.as_bytes(), n.as_bytes()) {
                hits += index[n.as_str()] & 1;
            }
        }
    }
    let mut sorted: Vec<&String> = names.iter().collect();
    sorted.sort_by(|a, b| b.cmp(a));
    black_box((hits, sorted.len()));
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the probe on two threads at once and returns the CPU time (ms)
/// the process spent until both had finished, summed over the threads:
/// two-rank phases are measured the same way (`layers::timed_two`).
pub fn run_pair() -> f64 {
    let ((), t) = timed_two(|| {
        std::thread::scope(|s| {
            let other = s.spawn(run_once);
            run_once();
            other.join().expect("probe thread does not panic");
        })
    });
    t.cpu.as_secs_f64() * 1e3
}

/// Shell-style `*` / `?` matching.
fn glob(p: &[u8], s: &[u8]) -> bool {
    let (mut pi, mut si) = (0, 0);
    let (mut star, mut mark) = (usize::MAX, 0);
    while si < s.len() {
        if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = si;
            pi += 1;
        } else if pi < p.len() && (p[pi] == b'?' || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == b'*')
}

#[cfg(test)]
mod tests {
    use super::glob;

    #[test]
    fn glob_matches_like_a_shell() {
        assert!(glob(b"ns1::*::op_*3", b"ns1::Field4::op_13"));
        assert!(!glob(b"ns1::*::op_*3", b"ns1::Field4::op_14"));
        assert!(glob(b"a?c*", b"abcdef"));
        assert!(glob(b"*", b""));
        assert!(!glob(b"a", b""));
    }
}
