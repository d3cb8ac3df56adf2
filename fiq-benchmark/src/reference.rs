//! A fixed reference workload, independent of every `fiq` crate, timed
//! between repetitions to measure how fast the host runs at the moment.
//!
//! Host speed on the reference machine drifts by up to 1.5x over tens of
//! seconds, and a whole run can fall in a slow stretch. Every host-time
//! metric is therefore reported at a nominal host speed: each
//! repetition's times are multiplied by [`NOMINAL_SECONDS`] ÷ the fastest
//! reference pass timed just before or just after it. A change to `fiq`
//! cannot move the reference, so it cannot move this scale.

use std::hint::black_box;
use std::time::Instant;

/// The reference pass's fastest time on the reference host (2 vCPU
/// Intel Xeon VM), so that scaled times read as seconds there.
pub const NOMINAL_SECONDS: f64 = 0.0078;

/// A reference timed on as many threads at once as the workload keeps
/// busy, so that it sees the host's speed on every vCPU the workload
/// uses: on a shared host one vCPU can be slowed while the other is not.
pub struct Reference {
    lanes: Vec<Lane>,
    /// The fastest pass of each sample, in seconds.
    samples: Vec<f64>,
}

/// One thread's buffers, allocated once so a timing never includes page
/// faults, and small so they add little to peak memory.
struct Lane {
    table: Vec<u64>,
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Reference {
    /// A reference run on `threads` threads at once.
    pub fn new(threads: usize) -> Reference {
        let lane = || Lane {
            table: vec![0; 1 << 14],
            src: (0..1u64 << 15).collect(),
            dst: vec![0; 1 << 15],
        };
        Reference {
            lanes: (0..threads).map(|_| lane()).collect(),
            samples: Vec::new(),
        }
    }

    /// Times three passes and keeps the fastest. Called once before the
    /// first repetition and once after each.
    pub fn sample(&mut self) {
        let fastest = (0..3).map(|_| self.pass()).fold(f64::INFINITY, f64::min);
        self.samples.push(fastest);
    }

    /// The host-time scale of repetition `r`: [`NOMINAL_SECONDS`] ÷ the
    /// faster of the samples taken just before and just after it.
    ///
    /// # Panics
    ///
    /// Panics when those samples were not taken: a bug in the caller.
    pub fn scale(&self, r: usize) -> f64 {
        NOMINAL_SECONDS / self.samples[r].min(self.samples[r + 1])
    }

    /// One pass on every lane at once, in seconds until the last ends.
    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for lane in &mut self.lanes {
                s.spawn(|| lane.pass());
            }
        });
        t.elapsed().as_secs_f64()
    }
}

impl Lane {
    /// A table-driven xorshift loop with data-dependent branches (the
    /// shape of an interpreter's inner loop), then block copies (the
    /// shape of a snapshot restore).
    fn pass(&mut self) {
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..black_box(2_000_000) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(self.table[(x as usize) & mask]);
            if x & 3 == 0 {
                self.table[(acc as usize) & mask] ^= x;
            }
        }
        black_box(acc);
        for _ in 0..64 {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_is_scaled_by_the_faster_sample_around_it() {
        let mut r = Reference::new(1);
        r.samples = vec![0.010, 0.0078, 0.0156];
        assert_eq!(r.scale(0), 1.0);
        assert_eq!(r.scale(1), 1.0);
        r.samples.push(0.0156);
        assert_eq!(r.scale(2), 0.5);
    }

    #[test]
    fn a_sample_times_every_lane() {
        let mut r = Reference::new(2);
        r.sample();
        assert_eq!(r.samples.len(), 1);
        assert!(r.samples[0] > 0.0);
    }
}
