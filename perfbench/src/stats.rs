//! Percentiles from raw per-operation samples.
//!
//! Every timing is kept at full nanosecond resolution: [`Lat`] holds one
//! counter per nanosecond below 16.4 µs and the raw value above, so a
//! quantile read from it is the same number a sort of the raw samples
//! gives. A percentile is reported only when at least ten samples lie
//! beyond it.

/// Samples needed beyond a reported percentile.
pub const BEYOND: u64 = 10;

/// Nanoseconds kept as dense counters: the bulk of every workload's
/// latencies. The array is 64 KiB, so the pages a recorder can make
/// resident stay a small, steady share of `peak_rss_mb`.
const DENSE: usize = 1 << 14;

/// An exact recorder of per-operation nanosecond latencies.
pub struct Lat {
    counts: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Default for Lat {
    fn default() -> Self {
        Lat::new()
    }
}

impl Lat {
    pub fn new() -> Self {
        Lat { counts: vec![0; DENSE], over: Vec::new(), n: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.n += 1;
    }

    /// Forgets every sample. Only counters that hold one are written,
    /// so the untouched pages of the dense array stay unmapped and out
    /// of the process's resident set (`peak_rss_mb`).
    pub fn clear(&mut self) {
        for c in self.counts.iter_mut().filter(|c| **c != 0) {
            *c = 0;
        }
        self.over.clear();
        self.n = 0;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The nearest-rank `q`-quantile in nanoseconds, or `None` when
    /// fewer than [`BEYOND`] samples lie beyond it.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let rank = rank_of(q, self.n)?;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        self.over.sort_unstable();
        self.over.get((rank - seen - 1) as usize).copied()
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples, if at
/// least [`BEYOND`] samples lie beyond it.
fn rank_of(q: f64, n: u64) -> Option<u64> {
    let rank = ((q * n as f64).ceil() as u64).max(1);
    (n >= rank + BEYOND).then_some(rank)
}

/// The quantiles a [`Windows`] reads from each window.
pub const WINDOW_QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Latencies split into fixed windows of a leg (by when each request
/// started or fell due). A tail read per window and then taken as the
/// median over windows describes a typical stretch of the run, so one
/// burst of host noise (a stolen millisecond on a shared core) moves it
/// less than it moves the tail of the pooled samples.
///
/// Requests arrive in time order, so only the current window is kept
/// as samples. When a request falls into a later window, the current
/// one is read at [`WINDOW_QUANTILES`] and its recorder reused: a leg
/// holds one recorder however long it runs.
pub struct Windows {
    width_ns: u64,
    current: usize,
    lat: Lat,
    /// The quantiles read from each window, one entry per merged leg
    /// that recorded it.
    closed: Vec<Vec<[Option<u64>; WINDOW_QUANTILES.len()]>>,
    n: u64,
}

impl Windows {
    /// `count` windows of `width` (at least one).
    pub fn new(width: std::time::Duration, count: usize) -> Self {
        Windows {
            width_ns: width.as_nanos() as u64,
            current: 0,
            lat: Lat::new(),
            closed: vec![Vec::new(); count.max(1)],
            n: 0,
        }
    }

    /// Whole windows of `width` that fit in `leg`.
    pub fn covering(width: std::time::Duration, leg: std::time::Duration) -> Self {
        Windows::new(width, (leg.as_nanos() / width.as_nanos()) as usize)
    }

    /// Records `ns` for a request at `at_ns` into the leg; requests past
    /// the last whole window are not recorded. Requests must come in
    /// order of `at_ns`.
    #[inline]
    pub fn record(&mut self, at_ns: u64, ns: u64) {
        let w = (at_ns / self.width_ns) as usize;
        if w >= self.closed.len() {
            return;
        }
        if w != self.current {
            self.close();
            self.current = w;
        }
        self.lat.record(ns);
        self.n += 1;
    }

    /// Reads the current window's quantiles and empties its recorder.
    fn close(&mut self) {
        if self.lat.len() > 0 {
            self.closed[self.current].push(WINDOW_QUANTILES.map(|q| self.lat.quantile(q)));
            self.lat.clear();
        }
    }

    /// Adds the windows of another leg of the same length run at the
    /// same time (another controller).
    pub fn merge(&mut self, mut other: Windows) {
        other.close();
        for (a, b) in self.closed.iter_mut().zip(other.closed) {
            a.extend(b);
        }
        self.n += other.n;
    }

    /// Windows per leg.
    pub fn count(&self) -> usize {
        self.closed.len()
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The median over windows of each window's `q`-quantile (`q` one
    /// of [`WINDOW_QUANTILES`]), averaged over the merged legs. Two
    /// controllers on two cores of a shared host can run at steadily
    /// different speeds; a median over both controllers' windows would
    /// then fall in the gap between them, and jump across it from run
    /// to run, where their mean holds. A window with fewer than ten
    /// samples beyond it (a leg that ended inside it) is left out;
    /// `None` when no window qualifies.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let per = self.per_window(q);
        (!per.is_empty()).then(|| median(&per) as u64)
    }

    /// Each qualifying window's `q`-quantile, averaged over the merged
    /// legs, in time order.
    pub fn per_window(&mut self, q: f64) -> Vec<f64> {
        let k = WINDOW_QUANTILES.iter().position(|&x| x == q).expect("a window quantile");
        self.close();
        self.closed
            .iter()
            .filter_map(|legs| {
                let v: Vec<f64> = legs.iter().filter_map(|w| w[k]).map(|v| v as f64).collect();
                (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
            })
            .collect()
    }
}

/// The nearest-rank `q`-quantile of unsorted raw samples (sorted in
/// place), under the same ten-beyond rule as [`Lat::quantile`].
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    let rank = rank_of(q, samples.len() as u64)?;
    samples.sort_unstable();
    Some(samples[(rank - 1) as usize])
}

/// Median of a small set of measurements (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    spot(values, 0.5)
}

/// The `at`-quantile of a small set of measurements, interpolated
/// between the two nearest ranks.
pub fn spot(values: &[f64], at: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let x = at * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lat_quantiles_match_a_sort_of_the_raw_samples() {
        let mut raw: Vec<u64> = (0..5000u64).map(|k| (k * 7919) % 90_000).collect();
        let mut lat = Lat::new();
        raw.iter().for_each(|&v| lat.record(v));
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(lat.quantile(q), quantile(&mut raw.clone(), q));
        }
        raw.sort_unstable();
        assert_eq!(lat.quantile(0.5), Some(raw[2499]));
    }

    #[test]
    fn windowed_tails_are_the_median_of_per_window_tails() {
        let mut w = Windows::new(std::time::Duration::from_secs(1), 3);
        for win in 0..3u64 {
            // Window 1 carries a burst that inflates its own tail only.
            let tail = if win == 1 { 1_000_000 } else { 1_000 + win };
            for k in 0..1000u64 {
                let v = if k >= 980 { tail } else { 100 };
                w.record(win * 1_000_000_000 + k, v);
            }
        }
        w.record(5_000_000_000, 7); // past the last window: dropped
        assert_eq!(w.len(), 3000);
        assert_eq!(w.quantile(0.99), Some(1_002));
        assert_eq!(w.quantile(0.5), Some(100));
        // A second controller's window tails are averaged in, window by
        // window: (1_000 + 5_000) / 2, (1_000_000 + 5_000) / 2,
        // (1_002 + 5_000) / 2.
        let mut other = Windows::new(std::time::Duration::from_secs(1), 3);
        for win in 0..3u64 {
            (0..1000u64).for_each(|k| other.record(win * 1_000_000_000 + k, 5_000));
        }
        w.merge(other);
        assert_eq!(w.len(), 6000);
        assert_eq!(w.quantile(0.99), Some(3_001));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut small: Vec<u64> = (0..999).collect();
        assert_eq!(quantile(&mut small, 0.99), None);
        let mut enough: Vec<u64> = (0..1000).collect();
        assert_eq!(quantile(&mut enough, 0.99), Some(989));
        let mut lat = Lat::new();
        (0..19).for_each(|v| lat.record(v));
        assert_eq!(lat.quantile(0.5), None);
    }

    #[test]
    fn spots_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=10).map(f64::from).rev().collect();
        assert_eq!(spot(&v, 0.1), 1.0);
        assert!((spot(&v[..10], 0.1) - 1.9).abs() < 1e-12);
    }
}
