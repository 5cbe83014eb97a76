//! Fixed reference kernels that measure how fast this machine is running
//! right now, so that the end-to-end times can be expressed at one
//! nominal machine speed.
//!
//! On a shared host, neighbours slow the code by 10 % to nearly 2× for
//! tens of seconds at a time, and taking each op's best time over the
//! passes cannot remove a slowdown that lasts the whole run. Three kernels cover
//! what the library's speed depends on: a dependent random walk over a
//! 256 KiB table (cache latency), a sort of random floats (branches and
//! moves), and progressive-filling max-min sharing over a PS star (the
//! engine's own arithmetic). They are the benchmark's own code, so a
//! change to the library never moves them.

use std::hint::black_box;
use std::time::Instant;

/// The kernels' summed best times on the development machine, seconds.
/// Times are reported as `measured · NOMINAL_S / the run's summed best
/// kernel times`.
pub const NOMINAL_S: f64 = 0.0065;

const ENTRIES: usize = 1 << 16;
const STEPS: usize = 1_000_000;
const SORTED: usize = 50_000;

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *s >> 33
}

/// The kernels and every time they took.
pub struct Reference {
    /// A random single-cycle permutation, walked by `chase`.
    next: Vec<u32>,
    /// Per kernel (chase, sort, max-min), every sample, seconds.
    samples: [Vec<f64>; 3],
}

impl Reference {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15;
        for i in (1..ENTRIES).rev() {
            next.swap(i, lcg(&mut s) as usize % i);
        }
        Reference {
            next,
            samples: Default::default(),
        }
    }

    fn chase(&self) -> u32 {
        let mut i = 0u32;
        for _ in 0..STEPS {
            i = self.next[i as usize];
        }
        black_box(i)
    }

    fn sort() -> f64 {
        let mut s = 12_345;
        let mut v: Vec<f64> = (0..SORTED).map(|_| lcg(&mut s) as f64).collect();
        v.sort_by(f64::total_cmp);
        black_box(v[SORTED / 2])
    }

    /// Max-min fair rates of 96 two-link flows over 32 worker NICs and 2
    /// PS NICs, re-solved by progressive filling after each of 40 random
    /// re-routings.
    fn max_min() -> f64 {
        const LINKS: usize = 34;
        let mut s = 99;
        let cap: Vec<f64> = (0..LINKS)
            .map(|l| if l < 32 { 125.0 } else { 400.0 })
            .collect();
        let mut flows: Vec<[usize; 2]> = (0..96).map(|f| [f % 32, 32 + f % 2]).collect();
        let mut total = 0.0;
        for round in 0..40 {
            let k = lcg(&mut s) as usize % flows.len();
            flows[k] = [lcg(&mut s) as usize % 32, 32 + round % 2];
            let mut fixed = vec![false; flows.len()];
            let mut left = cap.clone();
            loop {
                let mut users = [0usize; LINKS];
                for (f, links) in flows.iter().enumerate() {
                    if !fixed[f] {
                        links.iter().for_each(|&l| users[l] += 1);
                    }
                }
                let Some((bottleneck, share)) = (0..LINKS)
                    .filter(|&l| users[l] > 0)
                    .map(|l| (l, left[l] / users[l] as f64))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                else {
                    break;
                };
                for (f, links) in flows.iter().enumerate() {
                    if !fixed[f] && links.contains(&bottleneck) {
                        fixed[f] = true;
                        links.iter().for_each(|&l| left[l] -= share);
                        total += share;
                    }
                }
            }
        }
        black_box(total)
    }

    /// Times each kernel once (the walk after an untimed one that brings
    /// its table back into cache) and records the times.
    pub fn sample(&mut self) {
        self.chase();
        let timed = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        };
        let chase = timed(&mut || {
            self.chase();
        });
        let sort = timed(&mut || {
            Self::sort();
        });
        let max_min = timed(&mut || {
            Self::max_min();
        });
        for (v, t) in self.samples.iter_mut().zip([chase, sort, max_min]) {
            v.push(t);
        }
    }

    /// Summed kernel times of every sample, seconds.
    pub fn totals(&self) -> Vec<f64> {
        (0..self.samples[0].len())
            .map(|i| self.samples.iter().map(|v| v[i]).sum())
            .collect()
    }

    /// The factor that turns a time measured in this run into nominal
    /// seconds: `NOMINAL_S` over the sum of each kernel's best time.
    pub fn scale(&self) -> f64 {
        let best: f64 = self
            .samples
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        NOMINAL_S / best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_entry() {
        let r = Reference::new();
        let (mut i, mut n) = (0u32, 0);
        loop {
            i = r.next[i as usize];
            n += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(n, ENTRIES);
    }

    #[test]
    fn scale_sums_each_kernels_best_sample() {
        let mut r = Reference::new();
        r.samples = [vec![0.004, 0.002], vec![0.003, 0.005], vec![0.001, 0.002]];
        assert!((r.scale() - NOMINAL_S / 0.006).abs() < 1e-12);
        assert_eq!(r.totals().len(), 2);
    }
}
