//! Host-speed reference.
//!
//! On a shared VM the same work can take from 1× to 2× as long from one
//! minute to the next: the neighbours' load changes how fast a vCPU runs,
//! and no steal time is reported. Passes inside one run cannot remove a
//! phase that outlasts the run, so a run interleaves its timed work with
//! runs of a fixed reference kernel and reports every time at reference
//! speed:
//!
//! ```text
//! reported = measured × REF_MS / (mean time of the run's reference runs)
//! ```
//!
//! The mean is what makes the ratio hold. A reference run is short and
//! mostly falls inside one of the host's fast or slow phases, so its times
//! are bimodal, while a campaign spans several phases. A ratio to the
//! neighbouring reference runs, or to their median, then jumps as the share
//! of slow phases crosses a half. Means over interleaved work weigh every
//! phase by its time, for the work and the reference alike, so their ratio
//! does not depend on that share. Timed work is reported as means over
//! passes for the same reason.
//!
//! The kernel belongs to the benchmark and calls nothing in the program:
//! reverse probabilistic BFS (the shape of an IC reverse-reachable set) on a
//! fixed benchmark-owned graph, with its own CSR, coin flips and append
//! buffer. Its work is identical on every call, so its time moves with the
//! host alone. A change to the program leaves it untouched, so the ratio
//! cancels host speed and nothing else. The kernel only runs while the
//! program has no request or campaign in flight; a change that left threads
//! spinning between calls would slow it too, and `sampling.cpu_util` would
//! show that. `REF_MS` is a fixed constant (the kernel's time on a quiet
//! 2-vCPU x86-64 VM), so a reported value reads as milliseconds on that
//! host.

use crate::inputs::{self, SplitMix};
use std::time::Instant;

/// The kernel's time on a quiet host: the scale of every reported time.
pub const REF_MS: f64 = 6.0;
const N: usize = 15_200;
const M: usize = 62_800;
const SEED: u64 = 0x5EED_00F0;
/// Reverse-reachable sets per kernel run.
const SETS: usize = 24_000;
/// Reference runs after each cold set-up. Set-ups run apart from the timed
/// passes, so they are scaled by their own reference runs.
pub const SETUP_RUNS: usize = 3;

/// The reference kernel's state; each thread that runs it owns one.
#[derive(Clone)]
pub struct Reference {
    offsets: Vec<u32>,
    sources: Vec<u32>,
    /// Edge `e` is live when a uniform `u64` falls below `thresholds[e]`.
    thresholds: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
    members: Vec<u32>,
    /// Nodes visited by one run: the same on every run.
    work: Option<usize>,
}

impl Reference {
    pub fn new() -> Self {
        let el = inputs::chung_lu(N, M, 2.1, SEED);
        let mut offsets = vec![0u32; N + 1];
        for &(_, v, _) in &el.edges {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..N {
            offsets[i + 1] += offsets[i];
        }
        let mut next: Vec<u32> = offsets[..N].to_vec();
        let mut sources = vec![0u32; M];
        let mut thresholds = vec![0u64; M];
        for &(u, v, p) in &el.edges {
            let slot = next[v as usize] as usize;
            next[v as usize] += 1;
            sources[slot] = u;
            thresholds[slot] = (p * u64::MAX as f64) as u64;
        }
        Reference {
            offsets,
            sources,
            thresholds,
            stamp: vec![0; N],
            epoch: 0,
            queue: Vec::with_capacity(N),
            members: Vec::with_capacity(1 << 20),
            work: None,
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut rng = SplitMix::new(SEED);
        self.members.clear();
        for _ in 0..SETS {
            self.epoch += 1;
            let root = rng.below(N) as u32;
            self.stamp[root as usize] = self.epoch;
            self.queue.clear();
            self.queue.push(root);
            let mut head = 0;
            while head < self.queue.len() {
                let v = self.queue[head] as usize;
                head += 1;
                self.members.push(v as u32);
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                for e in lo..hi {
                    let u = self.sources[e];
                    if rng.next_u64() < self.thresholds[e] && self.stamp[u as usize] != self.epoch {
                        self.stamp[u as usize] = self.epoch;
                        self.queue.push(u);
                    }
                }
            }
        }
        let elapsed = crate::ms(t.elapsed());
        let visited = std::hint::black_box(self.members.len());
        // The kernel's work is fixed; a change here would make its times
        // incomparable across runs.
        assert_eq!(*self.work.get_or_insert(visited), visited);
        elapsed
    }
}

/// The factor that scales a run's times to reference speed, from the times
/// (ms) of the reference runs interleaved with its work.
pub fn scale(ref_ms: &[f64]) -> f64 {
    REF_MS / crate::mean(ref_ms)
}

/// Runs the kernel on every reference at once, one thread each, and returns
/// their mean time in ms: the reference for work that keeps as many cores
/// busy. A kernel that panics makes the result NaN, which fails the run.
pub fn run_parallel(refs: &mut [Reference]) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = refs.iter_mut().map(|r| s.spawn(move || r.run())).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
