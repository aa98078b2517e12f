//! Host-speed calibration.
//!
//! On a small shared box the same code runs at visibly different speeds
//! from one second to the next (CPU time moves with wall time, so it is
//! host speed, not scheduling). Every timing the benchmark reports is
//! therefore expressed in *calibrated* units: the measured time scaled by
//! how fast a fixed work-alike kernel ran right next to it.
//!
//! The kernel never calls into `kairos`; it imitates the manager's hot
//! paths instead — many small, short-lived `Vec`/`VecDeque`/`BTreeMap`/
//! `HashMap` allocations and a breadth-first search over an
//! adjacency-list grid — so allocator, cache and memory-bus contention
//! slow it down by about the same factor as they slow an admission down.
//! A pure arithmetic loop does not: measured side by side in a noisy
//! phase of the host, identical rounds spread 18.5 % raw, 15 % scaled by
//! an arithmetic loop, and 5 % scaled by this kernel.
//!
//! Each repetition works on a small grid, so the kernel's peak footprint
//! stays far below the allocator's trim threshold: a kernel that grew and
//! trimmed the heap on every call would time the heap's layout, not the
//! host.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds one kernel sample takes on the reference host. A
/// calibrated time is `measured * K_REF_NS / kernel_ns`, i.e. "what the
/// reference host would have measured".
pub const K_REF_NS: f64 = 400_000.0;

const GRID_W: u32 = 16;
const GRID_H: u32 = 12;
/// Searches per kernel sample.
const REPS: u32 = 16;

/// One breadth-first search from `origin` over a freshly built grid;
/// returns a checksum so the optimiser cannot delete the work.
fn search(origin: u32) -> u64 {
    let cells = (GRID_W * GRID_H) as usize;
    let mut adjacency: Vec<Vec<u32>> = Vec::with_capacity(cells);
    for y in 0..GRID_H {
        for x in 0..GRID_W {
            let mut next = Vec::new();
            if x > 0 {
                next.push(y * GRID_W + x - 1);
            }
            if x + 1 < GRID_W {
                next.push(y * GRID_W + x + 1);
            }
            if y > 0 {
                next.push((y - 1) * GRID_W + x);
            }
            if y + 1 < GRID_H {
                next.push((y + 1) * GRID_W + x);
            }
            adjacency.push(next);
        }
    }
    let mut distance: Vec<u32> = vec![u32::MAX; cells];
    let mut frontier: VecDeque<u32> = VecDeque::new();
    distance[origin as usize] = 0;
    frontier.push_back(origin);
    while let Some(cell) = frontier.pop_front() {
        let d = distance[cell as usize];
        for &n in &adjacency[cell as usize] {
            if distance[n as usize] == u32::MAX {
                distance[n as usize] = d + 1;
                frontier.push_back(n);
            }
        }
    }
    let mut rings: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut owners: HashMap<u32, u32> = HashMap::new();
    for (cell, &d) in distance.iter().enumerate() {
        rings.entry(d).or_default().push(cell as u32);
        owners.insert(cell as u32, d);
    }
    let mut checksum = owners.len() as u64;
    for (d, ring) in &rings {
        checksum = checksum.wrapping_mul(31).wrapping_add((*d as u64) * ring.len() as u64);
    }
    checksum
}

/// Times one kernel sample, in nanoseconds.
pub fn sample_ns() -> f64 {
    let start = Instant::now();
    let mut checksum = 0u64;
    for rep in 0..REPS {
        checksum = checksum.wrapping_add(search((rep * 7) % (GRID_W * GRID_H)));
    }
    black_box(checksum);
    start.elapsed().as_nanos() as f64
}

/// The factor that turns a time measured between two kernel samples into
/// calibrated units: the reference over the mean of the two. (The mean
/// tracked identical work better than the faster of the two, which looks
/// more robust to a hiccup in one sample but left twice the spread.)
pub fn scale(before_ns: f64, after_ns: f64) -> f64 {
    K_REF_NS / ((before_ns + after_ns) / 2.0)
}

/// A stopwatch with `K` slots whose readings come out calibrated: raw
/// time accumulates per slot until [`CalClock::close`] ends the window
/// with a kernel sample and scales the window's raw time by it.
#[derive(Debug, Clone)]
pub struct CalClock<const K: usize> {
    last_kernel_ns: f64,
    raw: [f64; K],
    /// Calibrated nanoseconds per slot, over all closed windows.
    pub calibrated: [f64; K],
    /// Raw nanoseconds per slot, over all closed windows.
    pub raw_total: [f64; K],
    /// Every kernel sample taken, the opening one included.
    pub kernel_ns: Vec<f64>,
}

impl<const K: usize> CalClock<K> {
    /// Opens the first window with a kernel sample.
    pub fn start() -> Self {
        let first = sample_ns();
        CalClock {
            last_kernel_ns: first,
            raw: [0.0; K],
            calibrated: [0.0; K],
            raw_total: [0.0; K],
            kernel_ns: vec![first],
        }
    }

    pub fn add(&mut self, slot: usize, raw_ns: f64) {
        self.raw[slot] += raw_ns;
    }

    /// Times `work` into `slot` of the open window.
    pub fn time<T>(&mut self, slot: usize, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = work();
        self.add(slot, start.elapsed().as_nanos() as f64);
        out
    }

    /// Closes the open window and returns its scale, so the caller can
    /// calibrate whatever else it measured inside the window.
    pub fn close(&mut self) -> f64 {
        let kernel = sample_ns();
        let scale = scale(self.last_kernel_ns, kernel);
        for slot in 0..K {
            self.calibrated[slot] += self.raw[slot] * scale;
            self.raw_total[slot] += self.raw[slot];
            self.raw[slot] = 0.0;
        }
        self.last_kernel_ns = kernel;
        self.kernel_ns.push(kernel);
        scale
    }

    /// Times `work` as a window of its own.
    pub fn stage<T>(&mut self, slot: usize, work: impl FnOnce() -> T) -> T {
        let out = self.time(slot, work);
        self.close();
        out
    }
}
