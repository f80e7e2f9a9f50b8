//! The workloads and the services their legs drive.
//!
//! - `qec-fit`: surface-d5 syndrome cycles replayed by two closed-loop
//!   controllers through `Store::fetch_cached` into a hot set that holds
//!   the whole library.
//! - `qec-stream`: the same cycle replayed by one controller through
//!   `Store::fetch_into`, which decodes on every call and never touches
//!   the hot set, beside the recalibration writer.
//! - `zipf-spill-recal`: one closed-loop reader drawing surface-d5 gates
//!   by Zipf popularity through a hot set of 32 (hit ratio about 0.37),
//!   beside the recalibration writer.
//!
//! Every workload also runs the open-loop recalibration writer beside
//! one reader (its latencies are `recal_p50_us`) and checks every
//! waveform it is served against the ledger. The traced run drives the
//! same reader open loop at a fixed rate.
//!
//! Fetch timings of the core-bound workloads and every recalibration
//! timing are scaled to a reference speed of the host (see
//! [`crate::speed`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use compaqt_core::compress::CompressedWaveform;
use compaqt_core::engine::EncodeScratch;
use compaqt_core::store::{Store, StoreConfig};
use compaqt_io::serve::Client;
use compaqt_pulse::library::GateId;
use compaqt_pulse::waveform::Waveform;

use crate::fixture::{compressor, Fixture, Ledger, Served, Version};
use crate::openloop::{wait_until, Service};
use crate::speed::Speed;
use crate::stats::{Lat, Windows};
use crate::traffic::{drift, drifted, popularity_order, syndrome_cycle, Rng, Zipf};

/// The registry device every workload serves. Over the 2269 gates of
/// `hex-433` the miss path was memory-bound and its timings followed the
/// host's memory speed; the 531 gates of `surface-d5` keep the working
/// set about a quarter the size.
pub const DEVICE: &str = "surface-d5";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    QecFit,
    QecStream,
    ZipfSpillRecal,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::QecFit, Kind::QecStream, Kind::ZipfSpillRecal];

    pub fn name(self) -> &'static str {
        match self {
            Kind::QecFit => "qec-fit",
            Kind::QecStream => "qec-stream",
            Kind::ZipfSpillRecal => "zipf-spill-recal",
        }
    }

    pub fn store_config(self, library_len: usize) -> StoreConfig {
        match self {
            Kind::QecFit => StoreConfig { hot_capacity: library_len, ..StoreConfig::default() },
            Kind::QecStream => StoreConfig { hot_capacity: 0, ..StoreConfig::default() },
            Kind::ZipfSpillRecal => StoreConfig { hot_capacity: 32, ..StoreConfig::default() },
        }
    }

    /// The store of the traced run's single-threaded hot-set leg: the
    /// workload's own, or, for `qec-stream`, which bypasses the hot set,
    /// `qec-fit`'s.
    pub fn hot_leg_config(self, library_len: usize) -> StoreConfig {
        match self {
            Kind::QecStream => Kind::QecFit.store_config(library_len),
            kind => kind.store_config(library_len),
        }
    }

    /// Whether the workload's fetch timings are scaled to the reference
    /// speed. The decodes of `qec-stream` and of `zipf-spill-recal`'s
    /// misses are bound by their core and slow with it; `qec-fit`'s hits
    /// wait on cache lines moving between the two cores.
    pub fn scaled(self) -> bool {
        self != Kind::QecFit
    }

    /// Recalibrations per second offered by the open-loop writer.
    pub const RECAL_RATE: f64 = 200.0;

    /// The rate of the traced run's fixed-rate open-loop leg: well
    /// under what one caller of the workload's fetch sustains.
    pub fn open_rate(self) -> f64 {
        match self {
            Kind::QecFit => 500_000.0,
            Kind::QecStream | Kind::ZipfSpillRecal => 20_000.0,
        }
    }
}

/// The seed of the popularity permutation: part of the workload's
/// definition, like its library. Which gates are hot decides where they
/// hash and so how the sharded hot set treats them; holding it fixed
/// keeps that out of the run-to-run spread, while the run's own seed
/// drives every draw.
const POPULARITY_SEED: u64 = 0xC0FF_EE11;

/// Which gates a workload's readers and writer ask for.
pub struct Traffic {
    /// `qec-fit`: the gate index of each play of one syndrome cycle.
    cycle: Vec<usize>,
    /// `zipf-spill-recal`: gate indices in popularity order.
    order: Vec<usize>,
    zipf: Option<Zipf>,
    /// Readers fetch with `Store::fetch_into` instead of `fetch_cached`.
    streaming: bool,
}

impl Traffic {
    pub fn new(kind: Kind, fx: &Fixture) -> Result<Traffic, String> {
        let idx = |g: &GateId| fx.index.get(g).copied().ok_or(format!("{g} not in the library"));
        let mut t = Traffic {
            cycle: Vec::new(),
            order: Vec::new(),
            zipf: None,
            streaming: kind == Kind::QecStream,
        };
        match kind {
            Kind::QecFit | Kind::QecStream => {
                t.cycle = syndrome_cycle(5).iter().map(idx).collect::<Result<_, _>>()?;
            }
            Kind::ZipfSpillRecal => {
                t.order = popularity_order(&fx.gates, &mut Rng::new(POPULARITY_SEED));
                t.zipf = Some(Zipf::new(t.order.len(), 1.0));
            }
        }
        Ok(t)
    }

    /// One gate drawn by popularity.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        match &self.zipf {
            Some(z) => self.order[z.sample(rng)],
            None => self.cycle[rng.below(self.cycle.len())],
        }
    }

    /// The writer's random stream for a run seed.
    pub fn recal_rng(seed: u64) -> Rng {
        Rng::stream(seed, 3)
    }

    /// The next recalibration: a gate drawn by popularity and the drift
    /// of its new calibration.
    pub fn recal(&self, rng: &mut Rng) -> (usize, f64) {
        let g = self.draw(rng);
        (g, drift(rng))
    }

    /// The gate stream of reader `reader` out of `readers`: staggered
    /// cycle replays, or independent popularity draws.
    pub fn stream(&self, seed: u64, reader: usize, readers: usize) -> Stream<'_> {
        let start = self.cycle.len() * reader / readers.max(1);
        Stream { t: self, rng: Rng::stream(seed, 100 + reader as u64), pos: start }
    }
}

pub struct Stream<'a> {
    t: &'a Traffic,
    rng: Rng,
    pos: usize,
}

impl Stream<'_> {
    pub fn next_gate(&mut self) -> usize {
        if self.t.zipf.is_some() {
            return self.t.draw(&mut self.rng);
        }
        let g = self.t.cycle[self.pos % self.t.cycle.len()];
        self.pos += 1;
        g
    }
}

/// `Store::fetch_cached` (or, for a streaming workload,
/// `Store::fetch_into` into reused buffers) for a stream of gates, every
/// answer checked against the ledger. A `fetch_cached` answer that is the
/// very `Arc` already checked for its gate is the same immutable decode
/// and needs no second comparison; the `Weak` kept for it pins its
/// allocation, so no later decode can reuse the address.
/// A fetch's answer: the shared decode, or `None` when it was written
/// into the reader's own buffers.
type Answer = Result<Option<Arc<Waveform>>, String>;

pub struct StoreReader<'a> {
    pub store: &'a Store,
    gates: &'a [GateId],
    ledger: &'a Ledger,
    stream: Stream<'a>,
    checked: Vec<Option<(Weak<Waveform>, Arc<Version>)>>,
    /// The last call's gate and answer.
    pending: Option<(usize, Answer)>,
    i: Vec<f64>,
    q: Vec<f64>,
    pub served: Served,
    pub calls: u64,
}

impl<'a> StoreReader<'a> {
    pub fn new(fx: &'a Fixture, ledger: &'a Ledger, stream: Stream<'a>) -> Self {
        StoreReader {
            store: &fx.store,
            gates: &fx.gates,
            ledger,
            stream,
            checked: vec![None; fx.gates.len()],
            pending: None,
            i: Vec::new(),
            q: Vec::new(),
            served: Served::default(),
            calls: 0,
        }
    }
}

impl Service for StoreReader<'_> {
    fn call(&mut self, _k: u64) -> bool {
        let g = self.stream.next_gate();
        self.calls += 1;
        let gate = &self.gates[g];
        let r = if self.stream.t.streaming {
            self.store.fetch_into(gate, &mut self.i, &mut self.q).map(|_| None)
        } else {
            self.store.fetch_cached(gate).map(Some)
        };
        let r = r.map_err(|e| e.to_string());
        let ok = r.is_ok();
        self.pending = Some((g, r));
        ok
    }

    fn check(&mut self, _k: u64) -> bool {
        let Some((g, r)) = self.pending.take() else { return false };
        let wf = match r {
            Ok(Some(wf)) => wf,
            Ok(None) => {
                let v = self.ledger.find(g, &self.i, &self.q);
                self.served.book(v.as_deref());
                return v.is_some();
            }
            Err(_) => {
                self.served.book(None);
                return false;
            }
        };
        if let Some((held, v)) = &self.checked[g] {
            if std::ptr::eq(held.as_ptr(), Arc::as_ptr(&wf)) {
                self.served.book(Some(v));
                return true;
            }
        }
        let v = self.ledger.find(g, wf.i(), wf.q());
        self.served.book(v.as_deref());
        let ok = v.is_some();
        self.checked[g] = v.map(|v| (Arc::downgrade(&wf), v));
        ok
    }

    fn delivered(&self) -> u64 {
        self.served.samples
    }
}

/// A closed-loop leg: back-to-back calls for `duration`, each call
/// timed, kept by `window`. The checks run outside the timed calls.
/// With `scaled`, each call's time is scaled to the reference speed by a
/// probe taken every [`PROBE_EVERY`] calls, outside the timed calls.
pub struct Closed {
    pub lat: Windows,
    pub calls: u64,
    pub failed: u64,
    /// Time spent inside calls, and samples they delivered, per window.
    pub busy_ns: Vec<u64>,
    pub samples: Vec<u64>,
    /// The reference sweep's time at each probe, in ns (scaled legs
    /// only).
    pub sweep_ns: Vec<f64>,
}

impl Closed {
    /// Delivered samples per second of fetch time, per window.
    pub fn rates(&self) -> Vec<f64> {
        self.samples.iter().zip(&self.busy_ns).map(|(&s, &b)| s as f64 * 1e9 / b as f64).collect()
    }

    /// Calls per second of fetch time over the whole leg.
    pub fn call_rate(&self) -> f64 {
        self.calls as f64 * 1e9 / self.busy_ns.iter().sum::<u64>() as f64
    }
}

/// Calls between two probes of a scaled leg's speed: a probe every
/// millisecond or so, under a percent of the leg. A probe sweeps the
/// core's L1 cache, so it slows the call after it: one call in 256, a
/// fixed share that can lift a p99 a little but adds nothing to its
/// spread.
pub const PROBE_EVERY: u64 = 256;

pub fn closed_loop(
    svc: &mut impl Service,
    duration: Duration,
    window: Duration,
    scaled: bool,
) -> Closed {
    // Whole windows that tile the leg exactly.
    let n = (duration.as_nanos() / window.min(duration).as_nanos()).max(1) as usize;
    let width = duration.as_nanos() as u64 / n as u64;
    let lat = Windows::new(Duration::from_nanos(width), n);
    let mut c = Closed {
        lat,
        calls: 0,
        failed: 0,
        busy_ns: vec![0; n],
        samples: vec![0; n],
        sweep_ns: Vec::new(),
    };
    let mut speed = scaled.then(Speed::new);
    let start = Instant::now();
    loop {
        if let Some(speed) = speed.as_mut().filter(|_| c.calls.is_multiple_of(PROBE_EVERY)) {
            speed.probe();
            c.sweep_ns.push(speed.sweep_ns());
        }
        let before = svc.delivered();
        let t0 = Instant::now();
        let ok = svc.call(c.calls);
        let t1 = Instant::now();
        let ok = svc.check(c.calls) && ok;
        let at = (t0 - start).as_nanos() as u64;
        let wall = (t1 - t0).as_nanos() as u64;
        let ns = speed.as_ref().map_or(wall, |speed| speed.scale(wall));
        c.lat.record(at, ns);
        if let Some(w) = c.busy_ns.get_mut((at / width) as usize) {
            *w += ns;
            c.samples[(at / width) as usize] += svc.delivered() - before;
        }
        c.calls += 1;
        c.failed += u64::from(!ok);
        if t1 - start >= duration {
            return c;
        }
    }
}

/// The open-loop recalibration writer: at each due time it recompresses
/// a drifted pulse (`compress_into`) and publishes it (`Store::insert`).
/// The latency is the time from `compress_into` starting to `insert`
/// returning, plus any wait behind the previous recalibration when that
/// ran past this one's due time, scaled to the reference speed by a
/// probe taken right after. How late the host woke the writer thread is
/// the host's delay, not the program's: on a shared 2-vCPU host it
/// reached milliseconds for a tenth of the recalibrations in some runs
/// and moved the median by a quarter, so it is kept apart (`late`).
/// Each new version enters the ledger before it is inserted.
pub struct Recal {
    /// Latency to published, by [`RECAL_WINDOW`] of due time.
    pub lat: Windows,
    /// The same latencies pooled over the leg, for its tail.
    pub pooled: Lat,
    /// How late the writer started each recalibration it was free for.
    pub late: Lat,
    pub count: u64,
    pub failed: u64,
}

pub fn recal_writer(
    fx: &Fixture,
    ledger: &Ledger,
    traffic: &Traffic,
    seed: u64,
    stop: &AtomicBool,
    leg: Duration,
) -> Recal {
    let codec = compressor();
    let mut rng = Traffic::recal_rng(seed);
    let mut scratch = EncodeScratch::new();
    let mut r = Recal {
        lat: Windows::covering(RECAL_WINDOW.min(leg), leg),
        pooled: Lat::new(),
        late: Lat::new(),
        count: 0,
        failed: 0,
    };
    let mut speed = Speed::new();
    // When the previous recalibration's insert returned.
    let mut free_at = 0u64;
    let period = 1e9 / Kind::RECAL_RATE;
    let start = Instant::now();
    for k in 0u64.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (g, f) = traffic.recal(&mut rng);
        let gate = fx.gates[g].clone();
        let source = fx.library.get(&gate).expect("gate of this library");
        let wf = drifted(source, f);
        let Ok(v) =
            codec.compress(&wf).map_err(|e| e.to_string()).and_then(|z| Version::of(&z, &wf))
        else {
            r.failed += 1;
            continue;
        };
        ledger.publish(g, v);
        let due = (k as f64 * period) as u64;
        wait_until(start, due, Duration::from_millis(1));
        let begin = start.elapsed().as_nanos() as u64;
        let mut z = CompressedWaveform::empty();
        let ok = codec.compress_into(&wf, &mut scratch, &mut z).is_ok()
            && fx.store.insert(gate, z).is_ok();
        let end = start.elapsed().as_nanos() as u64;
        speed.probe();
        let queued = free_at.saturating_sub(due);
        r.late.record(begin.saturating_sub(due.max(free_at)));
        free_at = end;
        let ns = speed.scale(end - begin + queued);
        r.lat.record(due, ns);
        r.pooled.record(ns);
        r.count += 1;
        r.failed += u64::from(!ok);
    }
    r
}

/// Windows of the recalibration latencies: two hundred recalibrations
/// each.
pub const RECAL_WINDOW: Duration = Duration::from_secs(1);

/// Runs `body`, which takes about `leg`, while the recalibration writer
/// runs beside it.
pub fn with_writer<T>(
    fx: &Fixture,
    ledger: &Ledger,
    traffic: &Traffic,
    seed: u64,
    leg: Duration,
    body: impl FnOnce() -> T,
) -> (T, Recal) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| recal_writer(fx, ledger, traffic, seed, &stop, leg));
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (out, writer.join().expect("recalibration writer panicked"))
    })
}

/// Every gate must now serve its newest version, through the hot set,
/// the streaming fetch and the wire. Returns (checks, failures).
pub fn final_check(fx: &Fixture, ledger: &Ledger) -> Result<(u64, u64), String> {
    let mut client =
        Client::connect(fx.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let (mut checks, mut failed) = (0u64, 0u64);
    for (g, gate) in fx.gates.iter().enumerate() {
        let latest = ledger.latest(g);
        let cached = fx.store.fetch_cached(gate).ok();
        failed += u64::from(!cached.is_some_and(|w| latest.matches(w.i(), w.q())));
        failed += u64::from(
            !(fx.store.fetch_into(gate, &mut i, &mut q).is_ok() && latest.matches(&i, &q)),
        );
        failed +=
            u64::from(!(client.fetch_into(gate, &mut i, &mut q).is_ok() && latest.matches(&i, &q)));
        checks += 3;
    }
    Ok((checks, failed))
}

/// Two controllers replaying staggered streams side by side, each on
/// its own thread. Returns their legs.
#[allow(clippy::too_many_arguments)]
pub fn parallel_readers<'a>(
    fx: &'a Fixture,
    ledger: &'a Ledger,
    traffic: &'a Traffic,
    seed: u64,
    threads: usize,
    duration: Duration,
    window: Duration,
    scaled: bool,
) -> Vec<(Closed, Served)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut r = StoreReader::new(fx, ledger, traffic.stream(seed, t, threads));
                    let c = closed_loop(&mut r, duration, window, scaled);
                    (c, r.served)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{device, setup};
    use bytes::BytesMut;
    use compaqt_io::serve::{Responder, ServeConfig};
    use compaqt_io::wire::encode_fetch_gate;

    /// Everything a seed decides, and the exact counts that follow from
    /// it: the reader's gates, the writer's recalibrations, the
    /// single-threaded hot-set hits and misses from cold, the wire
    /// response bytes, and the traffic's DAC samples and words read.
    #[derive(Debug, PartialEq)]
    struct Exact {
        gates: Vec<usize>,
        recals: Vec<(usize, u64)>,
        hits_misses: (u64, u64),
        response_bytes: u64,
        dac_words: (u64, u64),
    }

    fn exact(kind: Kind, seed: u64) -> Exact {
        let spec = device(DEVICE);
        let fx = setup(spec, kind.store_config(spec.build_library().len()), false).unwrap();
        let ledger = Ledger::new(&fx).unwrap();
        let traffic = Traffic::new(kind, &fx).unwrap();
        let mut s = traffic.stream(seed, 0, 1);
        let gates: Vec<usize> = (0..3000).map(|_| s.next_gate()).collect();
        let mut rng = Traffic::recal_rng(seed);
        let recals = (0..200)
            .map(|_| {
                let (g, f) = traffic.recal(&mut rng);
                (g, f.to_bits())
            })
            .collect();
        let store = Store::from_entries(
            fx.gates.iter().cloned().zip(fx.compressed.iter().cloned()),
            kind.hot_leg_config(fx.gates.len()),
        )
        .unwrap();
        for &g in &gates {
            let wf = store.fetch_cached(&fx.gates[g]).unwrap();
            assert!(ledger.original(g).matches(wf.i(), wf.q()));
        }
        let st = store.stats();
        let mut responder = Responder::new(&ServeConfig::default());
        let mut req = BytesMut::new();
        let response_bytes = gates[..500]
            .iter()
            .map(|&g| {
                encode_fetch_gate(&mut req, &fx.gates[g]).unwrap();
                responder.respond(&*fx.store, &req).unwrap().len() as u64
            })
            .sum();
        let mut served = Served::default();
        gates.iter().for_each(|&g| served.book(Some(&ledger.original(g))));
        Exact {
            gates,
            recals,
            hits_misses: (st.hot_hits, st.hot_misses),
            response_bytes,
            dac_words: (served.dac, served.words),
        }
    }

    #[test]
    fn a_seed_fixes_every_input_and_exact_count() {
        for kind in Kind::ALL {
            let a = exact(kind, 7);
            assert_eq!(a, exact(kind, 7), "{}: same seed, same inputs and counts", kind.name());
            let b = exact(kind, 8);
            assert_ne!(
                a.recals,
                b.recals,
                "{}: another seed recalibrates differently",
                kind.name()
            );
            // The qec workloads replay the fixed syndrome cycle whatever
            // the seed.
            assert_eq!(kind != Kind::ZipfSpillRecal, a.gates == b.gates, "{}", kind.name());
            assert!(a.hits_misses.0 > 0 && a.hits_misses.1 > 0);
        }
    }
}
