//! Set-up: registry library build → compress → container write → eager
//! `Reader::open` → `into_store` → daemon bind, timed phase by phase,
//! plus the reference ledger every served waveform is checked against.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use compaqt_core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt_core::engine::{DecodeScratch, DecompressionEngine, EncodeScratch, EngineStats};
use compaqt_core::store::{Store, StoreConfig};
use compaqt_io::serve::{serve, ServerHandle};
use compaqt_io::{Reader, ReaderOptions, Writer};
use compaqt_pulse::library::{GateId, PulseLibrary};
use compaqt_pulse::registry::{DeviceSpec, Registry};
use compaqt_pulse::waveform::Waveform;

use crate::speed::{Speed, REFERENCE_NS};
use crate::traffic::sorted_gates;

/// The design-point codec: integer DCT over 16-sample windows.
pub fn compressor() -> Compressor {
    Compressor::new(Variant::IntDctW { ws: 16 })
}

pub fn device(name: &str) -> &'static DeviceSpec {
    Registry::builtin().get(name).expect("workload devices are registry builtins")
}

/// Wall time of each set-up phase.
#[derive(Clone, Copy, Default)]
pub struct Phases {
    pub build_library: Duration,
    pub compress: Duration,
    pub write: Duration,
    pub open: Duration,
    pub into_store: Duration,
    pub bind: Duration,
}

impl Phases {
    pub fn total(&self) -> Duration {
        self.build_library + self.compress + self.write + self.open + self.into_store + self.bind
    }
}

/// A served library: the store, the daemon in front of it, and the
/// artefacts set-up produced on the way.
pub struct Fixture {
    pub library: Arc<PulseLibrary>,
    /// Every gate of the library, sorted; gate indices refer to this.
    pub gates: Vec<GateId>,
    pub index: HashMap<GateId, usize>,
    /// The compressed stream of each gate as set-up wrote it.
    pub compressed: Vec<CompressedWaveform>,
    pub container: Bytes,
    pub store: Arc<Store>,
    pub server: ServerHandle,
    pub phases: Phases,
    /// Per-gate `compress_into` nanoseconds (traced set-ups only).
    pub encode_ns: Vec<u64>,
}

/// Runs set-up once. With `trace`, each gate's encode is timed on its
/// own; the phase timings are taken either way.
pub fn setup(spec: &DeviceSpec, config: StoreConfig, trace: bool) -> Result<Fixture, String> {
    let mut phases = Phases::default();
    let t = Instant::now();
    let library = spec.build_library();
    phases.build_library = t.elapsed();

    let t = Instant::now();
    let gates = sorted_gates(&library);
    let codec = compressor();
    let mut scratch = EncodeScratch::new();
    let mut encode_ns = Vec::new();
    let mut compressed = Vec::with_capacity(gates.len());
    for gate in &gates {
        let wf = library.get(gate).expect("gate listed from this library");
        let mut z = CompressedWaveform::empty();
        let t0 = trace.then(Instant::now);
        codec
            .compress_into(wf, &mut scratch, &mut z)
            .map_err(|e| format!("compress {gate}: {e}"))?;
        if let Some(t0) = t0 {
            encode_ns.push(t0.elapsed().as_nanos() as u64);
        }
        compressed.push(z);
    }
    phases.compress = t.elapsed();

    let t = Instant::now();
    let mut writer = Writer::new();
    for (gate, z) in gates.iter().zip(&compressed) {
        writer.add(gate, z).map_err(|e| format!("container add {gate}: {e}"))?;
    }
    let container = writer.finish().map_err(|e| format!("container write: {e}"))?;
    phases.write = t.elapsed();

    let t = Instant::now();
    let reader = Reader::open(container.clone(), ReaderOptions::new())
        .map_err(|e| format!("container open: {e}"))?;
    phases.open = t.elapsed();

    let t = Instant::now();
    let store = Arc::new(reader.into_store(config).map_err(|e| format!("into_store: {e}"))?);
    phases.into_store = t.elapsed();

    let t = Instant::now();
    let server = serve(Arc::clone(&store), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    phases.bind = t.elapsed();

    let index = gates.iter().enumerate().map(|(k, g)| (g.clone(), k)).collect();
    Ok(Fixture { library, gates, index, compressed, container, store, server, phases, encode_ns })
}

/// Set-ups per group; a run times several groups.
pub const SETUP_GROUP: usize = 20;

/// Timings of repeated set-ups of one workload, taken in groups spread
/// over a run (before and after its legs). Each set-up's wall time is
/// also scaled to the reference speed, measured just before and just
/// after it.
pub struct Setups {
    spec: &'static DeviceSpec,
    config: StoreConfig,
    speed: Speed,
    pub phases: Vec<Phases>,
    /// Each set-up's total at the reference speed.
    pub scaled: Vec<Duration>,
    /// Per-gate `compress_into` nanoseconds of traced set-ups.
    pub encode_ns: Vec<u64>,
}

impl Setups {
    pub fn new(spec: &'static DeviceSpec, config: StoreConfig) -> Self {
        Setups {
            spec,
            config,
            speed: Speed::new(),
            phases: Vec::new(),
            scaled: Vec::new(),
            encode_ns: Vec::new(),
        }
    }

    /// Runs set-up once, times it, and returns the fixture.
    pub fn setup(&mut self, trace: bool) -> Result<Fixture, String> {
        let before = self.speed.measure();
        let mut f = setup(self.spec, self.config, trace)?;
        let sweep_ns = (before + self.speed.measure()) / 2.0;
        self.scaled.push(f.phases.total().mul_f64(REFERENCE_NS / sweep_ns));
        self.phases.push(f.phases);
        self.encode_ns.append(&mut f.encode_ns);
        Ok(f)
    }

    /// Times one group of set-ups, dropping each fixture.
    pub fn group(&mut self, trace: bool) -> Result<(), String> {
        (0..SETUP_GROUP).try_for_each(|_| self.setup(trace).map(drop))
    }

    /// The fastest time of one phase (or, with `Phases::total`, of the
    /// whole set-up) over every set-up timed.
    pub fn fastest(&self, phase: fn(&Phases) -> Duration) -> Duration {
        self.phases.iter().map(phase).min().unwrap_or(Duration::MAX)
    }
}

/// One servable calibration of a gate: the fingerprint of its direct
/// decode, and what serving it costs and delivers.
pub struct Version {
    /// [`fingerprint`] of the decoded I and Q samples.
    pub fp: u64,
    /// I/Q sample pairs.
    pub len: usize,
    /// MSE of the decode against the uncompressed source pulse.
    pub mse: f64,
    pub stats: EngineStats,
}

impl Version {
    /// Decodes `z` directly (no store) and scores it against `source`.
    pub fn of(z: &CompressedWaveform, source: &Waveform) -> Result<Version, String> {
        let engine = DecompressionEngine::for_variant(z.variant).map_err(|e| e.to_string())?;
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let stats = engine
            .decompress_into(z, &mut DecodeScratch::new(), &mut i, &mut q)
            .map_err(|e| format!("direct decode of {}: {e}", z.name))?;
        let fp = fingerprint(&i, &q);
        let len = i.len();
        let mse = source.mse(&Waveform::new(z.name.clone(), i, q, z.sample_rate_gs));
        Ok(Version { fp, len, mse, stats })
    }

    /// Whether `(i, q)` is bit-for-bit this version's decode.
    pub fn matches(&self, i: &[f64], q: &[f64]) -> bool {
        i.len() == self.len && q.len() == self.len && fingerprint(i, q) == self.fp
    }
}

/// A 64-bit fingerprint of the exact bits of an I/Q pair: a multiply-xor
/// chain over each sample's bits, in four interleaved lanes. Every step
/// is a bijection of its lane's state, so changing any one sample always
/// changes the fingerprint; other differences collide with probability
/// about 2^-64.
pub fn fingerprint(i: &[f64], q: &[f64]) -> u64 {
    const K: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64, 1, 2, 3];
    for (n, x) in i.iter().chain(q).enumerate() {
        let l = &mut lanes[n & 3];
        *l = (*l ^ x.to_bits()).wrapping_mul(K);
    }
    lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48)
}

/// Every version ever published for each gate, oldest first. A served
/// waveform is correct when it is bit-identical to one of its gate's
/// versions; after a run, each gate must serve its newest. Versions are
/// kept as fingerprints, so a long run's recalibrations cost the ledger
/// a few dozen bytes each.
pub struct Ledger {
    versions: Vec<Mutex<Vec<Arc<Version>>>>,
}

impl Ledger {
    /// Version 0 of every gate: the direct decode of set-up's stream.
    pub fn new(fx: &Fixture) -> Result<Ledger, String> {
        let versions = fx
            .gates
            .iter()
            .zip(&fx.compressed)
            .map(|(gate, z)| {
                let source = fx.library.get(gate).expect("gate of this library");
                Ok(Mutex::new(vec![Arc::new(Version::of(z, source)?)]))
            })
            .collect::<Result<_, String>>()?;
        Ok(Ledger { versions })
    }

    pub fn publish(&self, gate: usize, v: Version) {
        self.versions[gate].lock().expect("ledger lock").push(Arc::new(v));
    }

    /// The version `(i, q)` is a bit-exact copy of, newest first.
    pub fn find(&self, gate: usize, i: &[f64], q: &[f64]) -> Option<Arc<Version>> {
        let fp = fingerprint(i, q);
        let versions = self.versions[gate].lock().expect("ledger lock");
        versions.iter().rev().find(|v| v.fp == fp && v.len == i.len() && v.len == q.len()).cloned()
    }

    pub fn latest(&self, gate: usize) -> Arc<Version> {
        Arc::clone(self.versions[gate].lock().expect("ledger lock").last().expect("version 0"))
    }

    pub fn original(&self, gate: usize) -> Arc<Version> {
        Arc::clone(&self.versions[gate].lock().expect("ledger lock")[0])
    }
}

/// What the served traffic delivered, accumulated from the ledger
/// version each fetch matched.
#[derive(Clone, Copy, Default)]
pub struct Served {
    pub fetches: u64,
    pub failed: u64,
    /// I/Q sample pairs handed to the caller.
    pub samples: u64,
    /// DAC samples (both channels) the engine produced for them.
    pub dac: u64,
    pub words: u64,
    pub windows: u64,
    pub mse_sum: f64,
}

impl Served {
    pub fn book(&mut self, v: Option<&Version>) {
        self.fetches += 1;
        match v {
            Some(v) => {
                self.samples += v.len as u64;
                self.dac += v.stats.output_samples as u64;
                self.words += v.stats.memory_words_read as u64;
                self.windows += v.stats.idct_windows as u64;
                self.mse_sum += v.mse;
            }
            None => self.failed += 1,
        }
    }

    pub fn merge(&mut self, o: &Served) {
        self.fetches += o.fetches;
        self.failed += o.failed;
        self.samples += o.samples;
        self.dac += o.dac;
        self.words += o.words;
        self.windows += o.windows;
        self.mse_sum += o.mse_sum;
    }

    /// DAC samples per compressed 16-bit word read (Fig. 2b's "5x"),
    /// weighted by the traffic served.
    pub fn bandwidth_expansion(&self) -> f64 {
        self.dac as f64 / self.words as f64
    }

    pub fn mean_mse(&self) -> f64 {
        self.mse_sum / (self.fetches - self.failed) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fingerprint_sees_every_single_sample_change() {
        let i: Vec<f64> = (0..37).map(|k| (k as f64 * 0.37).sin()).collect();
        let q: Vec<f64> = (0..37).map(|k| (k as f64 * 0.11).cos()).collect();
        let fp = fingerprint(&i, &q);
        for k in 0..37 {
            let mut j = i.clone();
            j[k] = f64::from_bits(j[k].to_bits() ^ 1);
            assert_ne!(fingerprint(&j, &q), fp, "I[{k}]");
            let mut r = q.clone();
            r[k] = -r[k];
            assert_ne!(fingerprint(&i, &r), fp, "Q[{k}]");
        }
        // I and Q are not interchangeable.
        assert_ne!(fingerprint(&q, &i), fp);
    }
}
