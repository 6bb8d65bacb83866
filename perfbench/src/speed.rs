//! The host's speed, read from a fixed reference kernel, so that times
//! measured on a host that changes speed can be stated at one speed.
//!
//! The floors of `segments` take out the host's slow stretches within a
//! run, but not a run that never reaches the fast speed, nor a fast speed
//! that differs from run to run: on the host this benchmark was sized on,
//! the floor of a `paper` pass ranged from 2.5 to 4.2 s over thirteen
//! runs. The kernel below is timed three times before and after every
//! diagram and keeps its fastest time, as each segment does. The ratio of
//! a floor to the kernel's fastest time held within a few per cent over
//! the runs where both were timed, so the times this benchmark reports are
//! floors restated at the speed at which the kernel takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed. It took about this long at
/// the fast speed of the host the benchmark was sized on (a 2-vCPU
/// "Intel Xeon Processor" VM at 2.0 GHz), so reported times read close to
/// the seconds that host takes when nothing slows it.
pub const REFERENCE_S: f64 = 0.37e-3;

/// Kernel runs per sample.
const ROUNDS: u64 = 3;

/// Grid side of the kernel.
const W: usize = 300;

/// The kernel's fastest time over the samples taken so far, and the
/// buffers it searches.
pub struct Speed {
    fastest: f64,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Speed {
    /// Allocates the kernel's buffers once, before the program runs, so
    /// that nothing the program does to the heap changes the kernel.
    pub fn new() -> Speed {
        Speed {
            fastest: f64::INFINITY,
            dist: vec![0; W * W],
            queue: vec![0; W * W],
        }
    }

    /// Breadth-first search over a 300 × 300 grid with about one cell in
    /// eleven blocked, from a start cell chosen by `seed`: the kind of
    /// work the router does. Of the kernels tried, its speed tracked the
    /// program's most closely.
    fn kernel(&mut self, seed: u64) -> u64 {
        let blocked = |n: usize| (n * 31 + seed as usize).is_multiple_of(11);
        let (dist, queue) = (&mut self.dist, &mut self.queue);
        dist.fill(u32::MAX);
        let start = (seed as usize * 7919) % (W * W);
        dist[start] = 0;
        queue[0] = start as u32;
        let (mut head, mut tail) = (0, 1);
        let mut sum = 0u64;
        while head < tail {
            let p = queue[head] as usize;
            head += 1;
            let d = dist[p];
            sum += u64::from(d);
            let (x, y) = (p % W, p / W);
            let mut neighbours = [usize::MAX; 4];
            if x > 0 {
                neighbours[0] = p - 1;
            }
            if x + 1 < W {
                neighbours[1] = p + 1;
            }
            if y > 0 {
                neighbours[2] = p - W;
            }
            if y + 1 < W {
                neighbours[3] = p + W;
            }
            for n in neighbours {
                if n != usize::MAX && dist[n] == u32::MAX && !blocked(n) {
                    dist[n] = d + 1;
                    queue[tail] = n as u32;
                    tail += 1;
                }
            }
        }
        sum
    }

    /// Times the kernel [`ROUNDS`] times.
    pub fn sample(&mut self) {
        for seed in 0..ROUNDS {
            let t = Instant::now();
            black_box(self.kernel(black_box(seed)));
            self.fastest = self.fastest.min(t.elapsed().as_secs_f64());
        }
    }

    /// The kernel's fastest time, in seconds.
    pub fn fastest(&self) -> f64 {
        self.fastest
    }

    /// `seconds`, measured at the fastest speed seen, restated at the
    /// reference speed.
    pub fn at_reference(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.fastest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut s = Speed::new();
        assert_eq!(s.kernel(1), s.kernel(1));
        assert_ne!(s.kernel(1), s.kernel(2));
    }

    #[test]
    fn restates_at_the_reference_speed() {
        let mut s = Speed::new();
        s.sample();
        assert!(s.fastest() > 0.0 && s.fastest().is_finite());
        let half = s.at_reference(s.fastest() / 2.0);
        assert!((half - REFERENCE_S / 2.0).abs() < 1e-12);
    }
}
