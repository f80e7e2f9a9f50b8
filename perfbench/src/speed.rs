//! Timings scaled to a reference speed of the host.
//!
//! The shared host this benchmark was built on lends each vCPU a core
//! whose speed for the codec's work changes with the load of its other
//! tenants, in phases from a fraction of a second to minutes. Running the
//! same code, a `qec-stream` fetch took 4.2 µs in one phase and 7.5 µs in
//! the next, so ten runs that straddle phases spread by more than any
//! bound allows. The core's clock explains little of it: a dependent
//! chain of integer adds slowed by a few percent while the decode slowed
//! by 1.7x. Work that streams through the core's L1 cache and vector
//! units, as a decode does, slows with it.
//!
//! A [`Speed`] measures how fast the calling thread's core runs such work
//! right now. It times a fixed sweep of 256-bit integer loads, multiplies,
//! adds and stores over 32 KiB (about what one decode touches) beside the
//! work, and scales a wall time by [`REFERENCE_NS`] over the sweep's time:
//! the time the work would take on a core that runs the sweep in
//! [`REFERENCE_NS`], this host's speed when nothing slowed it. Over 160
//! quarter-second windows of `qec-stream`, the sweep's time correlated
//! 0.93 with the decode's, and scaling cut the windows' coefficient of
//! variation from 0.22 to 0.09. The sweep is the benchmark's own code, so
//! a change to the program moves the scaled times in full.
//!
//! Waiting on another core or on the kernel scales too, which is why the
//! hot-set hit path of `qec-fit`, bound by cache lines moving between the
//! two cores, is timed on the wall clock instead.

use std::hint::black_box;
use std::time::Instant;

/// The sweep time scaled timings are reported at, in nanoseconds.
pub const REFERENCE_NS: f64 = 1000.0;

/// 32-bit words the sweep covers: 32 KiB.
const WORDS: usize = 8192;

/// Sweeps whose median is the current speed: one interrupted sweep
/// does not set it.
const KEEP: usize = 5;

/// One pass over `buf`: each 8-word group becomes a mix of itself and
/// the next group (multiply, round, shift, add, subtract, xor), the row
/// arithmetic of an integer transform.
fn sweep(buf: &mut [i32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just checked.
        unsafe { sweep_avx2(buf) };
        return;
    }
    for i in 0..buf.len() - 8 {
        let (a, b) = (buf[i], buf[i + 8]);
        let s = (a.wrapping_mul(181).wrapping_add(1 << 7) >> 8).wrapping_add(b);
        buf[i] = s ^ a.wrapping_sub(b);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(buf: &mut [i32]) {
    use std::arch::x86_64::*;
    let k = _mm256_set1_epi32(181);
    let round = _mm256_set1_epi32(1 << 7);
    let p = buf.as_mut_ptr();
    for g in 0..buf.len() / 8 - 1 {
        // SAFETY: groups `g` and `g + 1` lie inside `buf`.
        let a = _mm256_loadu_si256(p.add(g * 8) as *const __m256i);
        let b = _mm256_loadu_si256(p.add(g * 8 + 8) as *const __m256i);
        let m = _mm256_srai_epi32(_mm256_add_epi32(_mm256_mullo_epi32(a, k), round), 8);
        let s = _mm256_add_epi32(m, b);
        let d = _mm256_sub_epi32(a, b);
        _mm256_storeu_si256(p.add(g * 8) as *mut __m256i, _mm256_xor_si256(s, d));
    }
}

/// The current speed of one thread's core, from its last few sweeps.
pub struct Speed {
    buf: Vec<i32>,
    recent: [f64; KEEP],
    next: usize,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// A speed primed with [`KEEP`] sweeps.
    pub fn new() -> Self {
        let mut s = Speed { buf: (0..WORDS as i32).collect(), recent: [0.0; KEEP], next: 0 };
        s.measure();
        s
    }

    /// Times one sweep, replacing the oldest. A first, untimed sweep
    /// brings the buffer back into L1, so the timed one measures the
    /// core and not how much of the buffer the work evicted.
    pub fn probe(&mut self) {
        sweep(&mut self.buf);
        let t = Instant::now();
        sweep(&mut self.buf);
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&self.buf);
        self.recent[self.next % KEEP] = ns;
        self.next += 1;
    }

    /// Takes [`KEEP`] fresh sweeps; returns their median in ns.
    pub fn measure(&mut self) -> f64 {
        (0..KEEP).for_each(|_| self.probe());
        self.sweep_ns()
    }

    /// The median of the last [`KEEP`] sweeps, in ns.
    pub fn sweep_ns(&self) -> f64 {
        let mut v = self.recent;
        v.sort_by(f64::total_cmp);
        v[KEEP / 2]
    }

    /// `ns` of wall time at the current speed, as time at the reference
    /// speed.
    pub fn scale(&self, ns: u64) -> u64 {
        (ns as f64 * REFERENCE_NS / self.sweep_ns()).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scaled_time_is_its_time_at_the_reference_speed() {
        // A core that sweeps in twice the reference time; the median
        // ignores one interrupted sweep.
        let slow = 2.0 * REFERENCE_NS;
        let s = Speed { buf: Vec::new(), recent: [slow, slow, 1e6, slow, slow], next: 5 };
        assert_eq!(s.scale(10_000), 5_000);
    }

    #[test]
    fn the_vector_and_scalar_sweeps_agree() {
        let mut a: Vec<i32> = (0..64).map(|k| k * 7919 - 200_000).collect();
        let mut b = a.clone();
        sweep(&mut a);
        for i in 0..b.len() - 8 {
            let (x, y) = (b[i], b[i + 8]);
            let s = (x.wrapping_mul(181).wrapping_add(1 << 7) >> 8).wrapping_add(y);
            b[i] = s ^ x.wrapping_sub(y);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn a_sweep_takes_a_plausible_time() {
        let ns = Speed::new().sweep_ns();
        assert!(ns > 50.0 && ns < 1e6, "{ns} ns");
    }
}
