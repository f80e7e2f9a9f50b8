//! Seeded inputs: random streams, gate popularity, circuit traces and
//! recalibration draws. Everything the program under test receives is
//! generated here from the workload seed.

use compaqt_pulse::library::{GateId, GateKind, PulseLibrary};
use compaqt_pulse::vendor::Vendor;
use compaqt_pulse::waveform::Waveform;
use compaqt_quantum::circuits::{Circuit, Op};
use compaqt_quantum::schedule::asap;
use compaqt_quantum::surface::SurfacePatch;
use compaqt_quantum::transpile::transpile;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// An independent stream for one consumer of the seed.
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut r = Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.below(k + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` drawn with weight `1 / (r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Gate indices (into `gates`, sorted) in popularity order: a seeded
/// permutation that is stratified by gate kind. Which kind sits at each
/// popularity rank is fixed by the library, so the mix of pulse lengths
/// a Zipf draw sees is the same for every seed; which qubit of that
/// kind holds the rank is what the seed permutes.
pub fn popularity_order(gates: &[GateId], rng: &mut Rng) -> Vec<usize> {
    let mut kinds: Vec<&GateKind> = gates.iter().map(|g| &g.kind).collect();
    kinds.dedup();
    let mut buckets: Vec<Vec<usize>> = kinds
        .iter()
        .map(|k| (0..gates.len()).filter(|&i| &gates[i].kind == *k).collect())
        .collect();
    // Fixed interleave: the j-th member of a bucket of size m sits at
    // fractional position (j + 0.5) / m; ranks follow that position.
    let mut slots: Vec<(f64, usize, usize)> = Vec::with_capacity(gates.len());
    for (b, bucket) in buckets.iter().enumerate() {
        let m = bucket.len() as f64;
        slots.extend((0..bucket.len()).map(|j| ((j as f64 + 0.5) / m, b, j)));
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    buckets.iter_mut().for_each(|bucket| rng.shuffle(bucket));
    slots.into_iter().map(|(_, b, j)| buckets[b][j]).collect()
}

/// Maps a scheduled IBM-basis op to the gate id its waveform lives
/// under (`None` for virtual gates). CX edges are normalized to the
/// (low, high) order the topology generators emit.
fn gate_of(op: Op) -> Option<GateId> {
    match op {
        Op::X(q) => Some(GateId::single(GateKind::X, q as u16)),
        Op::Sx(q) => Some(GateId::single(GateKind::Sx, q as u16)),
        Op::Measure(q) => Some(GateId::single(GateKind::Measure, q as u16)),
        Op::Cx(a, b) => Some(GateId::pair(GateKind::Cx, a.min(b) as u16, a.max(b) as u16)),
        _ => None,
    }
}

/// Transpiles and ASAP-schedules a circuit, returning its gate plays
/// grouped by start time (one group per schedule layer), in time order.
fn scheduled_layers(circuit: &Circuit) -> Vec<Vec<GateId>> {
    let lowered = transpile(circuit);
    let sched = asap(&lowered, &Vendor::Ibm.params());
    let mut timed: Vec<(f64, usize, Op)> =
        sched.ops.iter().enumerate().map(|(k, s)| (s.start_ns, k, s.op)).collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut layers: Vec<Vec<GateId>> = Vec::new();
    let mut last = f64::NAN;
    for (start, _, op) in timed {
        let Some(gate) = gate_of(op) else { continue };
        if start != last || layers.is_empty() {
            layers.push(Vec::new());
            last = start;
        }
        layers.last_mut().expect("pushed above").push(gate);
    }
    layers
}

/// One transpiled, ASAP-ordered syndrome-extraction cycle of the
/// unrotated distance-`d` surface code.
pub fn syndrome_cycle(d: usize) -> Vec<GateId> {
    scheduled_layers(&SurfacePatch::unrotated(d).syndrome_cycle()).concat()
}

/// A seeded amplitude drift factor within ±2%.
pub fn drift(rng: &mut Rng) -> f64 {
    1.0 + (rng.next_f64() - 0.5) * 0.04
}

/// A source pulse with its amplitude scaled by `f`: the new calibration
/// a recalibration publishes.
pub fn drifted(source: &Waveform, f: f64) -> Waveform {
    let scale = |v: &[f64]| v.iter().map(|x| (x * f).clamp(-1.0, 1.0)).collect::<Vec<f64>>();
    Waveform::new(source.name(), scale(source.i()), scale(source.q()), source.sample_rate_gs())
}

/// Index of every gate of a library, sorted.
pub fn sorted_gates(library: &PulseLibrary) -> Vec<GateId> {
    library.iter_sorted().map(|(g, _)| g.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        (0..100_000).for_each(|_| counts[z.sample(&mut rng)] += 1);
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
        // Rank 0 carries 1/H(100) ≈ 19.3% of draws.
        assert!((counts[0] as f64 / 1e5 - 0.193).abs() < 0.01);
    }

    #[test]
    fn popularity_order_is_a_permutation_with_a_seed_independent_kind_mix() {
        let spec = compaqt_pulse::registry::Registry::builtin().get("hex-27").unwrap();
        let gates = sorted_gates(&spec.build_library());
        let a = popularity_order(&gates, &mut Rng::new(1));
        let b = popularity_order(&gates, &mut Rng::new(2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..gates.len()).collect::<Vec<_>>());
        assert_ne!(a, b);
        let kinds = |o: &[usize]| o.iter().map(|&i| gates[i].kind.clone()).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&b));
    }

    #[test]
    fn the_syndrome_cycle_plays_surface_d5_gates() {
        let reg = compaqt_pulse::registry::Registry::builtin();
        let cycle = syndrome_cycle(5);
        let lib = reg.get("surface-d5").unwrap().build_library();
        let mut distinct = cycle.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!((cycle.len(), distinct.len()), (224, 204));
        assert!(cycle.iter().all(|g| lib.get(g).is_some()));
    }
}
