//! Host calibration: how fast this machine runs a pure ALU loop and a
//! pointer chase through 1 MiB, on one thread and on every CPU at once.
//!
//! A code change cannot move these numbers, so they tell a host limit
//! (a noisy neighbour, a shared memory path) from a code limit when two
//! runs disagree.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::util::{pin_to, Rng};

pub struct HostProbe {
    /// Aggregate ALU throughput at `threads` over one thread (2.0 = perfect
    /// scaling on two CPUs).
    pub alu_scale: f64,
    /// Pointer-chase steps per second on one thread, in millions.
    pub chase_mops_1t: f64,
    /// Pointer-chase steps per second per thread with `threads` threads
    /// chasing at once, in millions.
    pub chase_mops_nt: f64,
    pub threads: usize,
}

const PROBE: Duration = Duration::from_millis(150);
const CPU_PROBE: Duration = Duration::from_millis(300);
/// 1 MiB of 8-byte slots.
const CHASE_SLOTS: usize = (1 << 20) / 8;

pub fn probe(seed: u64) -> HostProbe {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alu_1 = run_threads(1, |_| alu_rate(PROBE));
    let alu_n = run_threads(threads, |_| alu_rate(PROBE));
    let chase_1 = run_threads(1, |t| chase_rate(seed ^ t as u64, PROBE));
    let chase_n = run_threads(threads, |t| chase_rate(seed ^ t as u64, PROBE));
    HostProbe {
        alu_scale: alu_n.iter().sum::<f64>() / alu_1[0],
        chase_mops_1t: chase_1[0] / 1e6,
        chase_mops_nt: chase_n.iter().sum::<f64>() / threads as f64 / 1e6,
        threads,
    }
}

/// Of `cpus`, the one on which a 1 MiB pointer chase runs fastest now, all
/// probed at once by threads pinned one to each. A neighbour's load on the
/// host falls on one virtual CPU at a time and lasts from seconds to
/// minutes, so a workload that fits on one CPU starts on the calmest.
pub fn fastest_cpu(cpus: &[usize], seed: u64) -> std::io::Result<usize> {
    let rates = run_threads(cpus.len(), |t| {
        pin_to(cpus[t]).map(|()| chase_rate(seed ^ t as u64, CPU_PROBE))
    });
    let mut best = (cpus[0], 0.0);
    for (&cpu, rate) in cpus.iter().zip(rates) {
        let rate = rate?;
        if rate > best.1 {
            best = (cpu, rate);
        }
    }
    Ok(best.0)
}

fn run_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                s.spawn({
                    let f = &f;
                    move || f(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("host probe thread panicked"))
            .collect()
    })
}

/// Dependent integer operations per second.
fn alu_rate(budget: Duration) -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x1234_5678_u64);
    let mut steps = 0u64;
    while start.elapsed() < budget {
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        steps += 4096;
    }
    black_box(x);
    steps as f64 / start.elapsed().as_secs_f64()
}

/// Dependent loads per second through a random single cycle over 1 MiB.
fn chase_rate(seed: u64, budget: Duration) -> f64 {
    let mut order: Vec<usize> = (0..CHASE_SLOTS).collect();
    let mut rng = Rng::new(seed);
    for i in (1..CHASE_SLOTS).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut next = vec![0usize; CHASE_SLOTS];
    for w in 0..CHASE_SLOTS {
        next[order[w]] = order[(w + 1) % CHASE_SLOTS];
    }
    let start = Instant::now();
    let mut at = 0usize;
    let mut steps = 0u64;
    while start.elapsed() < budget {
        for _ in 0..4096 {
            at = next[at];
        }
        steps += 4096;
    }
    black_box(at);
    steps as f64 / start.elapsed().as_secs_f64()
}
