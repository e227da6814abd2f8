//! The machine's speed, measured with a fixed reference kernel that
//! belongs to the benchmark and calls no code of the repository.
//!
//! On a shared machine the speed of the same code drifts by a factor of
//! two or more over tens of minutes (other tenants), far more than a
//! change worth detecting. Each run therefore measures the reference
//! kernel in short bursts around its set-ups and after each segment of its
//! timed window, and multiplies the CPU-bound times it reports by
//! `(NOMINAL_MS / kernel_ms) ^ ELASTICITY`: the figures read as times on
//! a machine where the kernel takes `NOMINAL_MS`. The factor does not
//! depend on the repository's code, so a change to that code moves a
//! scaled figure by the same share as its wall time. The wall times and
//! the kernel times are printed beside the scaled figures.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::{median, SplitMix};

/// The kernel's median time on the 2-core reference box, ms.
pub const NOMINAL_MS: f64 = 3.8;
/// How much faster than the kernel the workloads slow down when the
/// machine does: when the kernel took 1.5–1.75 times `NOMINAL_MS`, the
/// workloads' times grew 1.8–2.6 times, which fits a power of 1.2–2.0
/// (median 1.6) of the kernel's slowdown. The kernel fits its working set
/// in cache more easily than the workloads do, and it does not wake other
/// threads or processes.
const ELASTICITY: f64 = 1.5;
/// Length of one burst of kernel runs, s.
const BURST_S: f64 = 0.4;
/// Side of the kernel's grid.
const SIDE: usize = 192;

/// One run of the reference kernel: breadth-first searches over a seeded
/// grid with blocked cells, a hash over the distances, and a sort. Grid
/// search, hashing and sorting are what the planner, the codec and the
/// server spend their time on. Returns a checksum so the work is kept.
fn kernel(grid: &[bool]) -> u64 {
    let mut dist = vec![u32::MAX; grid.len()];
    let mut queue = VecDeque::new();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for source in [0, SIDE - 1, grid.len() - SIDE, grid.len() / 2 + SIDE / 2] {
        dist.fill(u32::MAX);
        dist[source] = 0;
        queue.push_back(source);
        while let Some(cell) = queue.pop_front() {
            let (r, c) = (cell / SIDE, cell % SIDE);
            let next = dist[cell] + 1;
            let neighbours = [
                (r > 0).then(|| cell - SIDE),
                (r + 1 < SIDE).then(|| cell + SIDE),
                (c > 0).then(|| cell - 1),
                (c + 1 < SIDE).then(|| cell + 1),
            ];
            for n in neighbours.into_iter().flatten() {
                if !grid[n] && dist[n] == u32::MAX {
                    dist[n] = next;
                    queue.push_back(n);
                }
            }
        }
        for d in &dist {
            for b in d.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let mut keys: Vec<u64> = dist
        .iter()
        .enumerate()
        .map(|(i, d)| u64::from(*d).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64)
        .collect();
    keys.sort_unstable();
    hash ^ keys[keys.len() / 2]
}

/// The speed measurements of one run.
pub struct Speed {
    grid: Vec<bool>,
    threads: usize,
    /// Median kernel time of each burst so far, ms.
    pub bursts_ms: Vec<f64>,
}

impl Speed {
    /// A probe that runs the kernel on `threads` threads at once (one per
    /// thread the workload keeps busy, so every core it uses is measured).
    pub fn new(threads: usize) -> Self {
        // A fixed grid: the kernel's work does not depend on the run's seed.
        let mut rng = SplitMix::new(0, 99);
        let grid = (0..SIDE * SIDE)
            .map(|i| i != 0 && rng.next_u64().is_multiple_of(4))
            .collect();
        Speed {
            grid,
            threads,
            bursts_ms: Vec::new(),
        }
    }

    /// Runs the kernel on every probe thread for [`BURST_S`] and records
    /// the median time of one kernel run.
    pub fn burst(&mut self) {
        let grid = &self.grid;
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        let mut times = Vec::new();
                        let mut sum = 0u64;
                        while start.elapsed().as_secs_f64() < BURST_S {
                            let t = Instant::now();
                            sum = sum.wrapping_add(kernel(grid));
                            times.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        std::hint::black_box(sum);
                        times
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("speed probe thread"))
                .collect()
        });
        self.bursts_ms.push(median(&times));
    }

    /// The factor that turns the run's wall times into times at the
    /// nominal speed, from the median of the bursts. Speed drifts over
    /// minutes, so one factor covers a run.
    pub fn scale(&self) -> f64 {
        (NOMINAL_MS / median(&self.bursts_ms)).powf(ELASTICITY)
    }
}
