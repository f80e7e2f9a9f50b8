//! The traced run: per-layer metrics, timed around calls into each
//! layer's public functions from outside the program.
//!
//! Every timed call is a span (name, request id, start, end) kept in
//! memory and written to `.bench_out/<workload>-spans.jsonl` at the end.
//! The per-layer numbers are percentiles of span durations by name.

use std::io::Write as _;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use compaqt_core::engine::{DecodeScratch, DecompressionEngine};
use compaqt_core::store::Store;
use compaqt_io::crc32::crc32;
use compaqt_io::serve::{Client, Responder, ServeConfig};
use compaqt_io::wire::{encode_fetch_gate, parse_frame};
use compaqt_io::{ContainerScratch, Reader, ReaderOptions};

use crate::fixture::{Fixture, Phases};
use crate::openloop::{self, Service};
use crate::run::{prepare, us, Prepared, WINDOW};
use crate::stats::{median, quantile};
use crate::workloads::{closed_loop, parallel_readers, Kind, StoreReader};
use crate::Report;

/// One timed call.
struct Span {
    name: &'static str,
    req: u64,
    start: u64,
    end: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, req, start, end });
        r
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    fn q(&self, name: &str, q: f64) -> Option<u64> {
        quantile(&mut self.durations(name), q)
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_out")?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Gate indices of the workload's single-gate traffic.
fn traffic_sample(traffic: &crate::workloads::Traffic, seed: u64, n: usize) -> Vec<usize> {
    let mut s = traffic.stream(seed, 0, 1);
    (0..n).map(|_| s.next_gate()).collect()
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let total = Duration::from_secs(seconds);
    let Prepared { fx, mut setups, ledger, traffic } = prepare(kind, true)?;
    let mut encode_ns = std::mem::take(&mut setups.encode_ns);
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let ms = |f: fn(&Phases) -> Duration| setups.fastest(f).as_secs_f64() * 1e3;
    report.put("pulse.build_library_ms", ms(|p| p.build_library), "ms");
    report.put("core.compress.library_ms", ms(|p| p.compress), "ms");
    report.put("io.writer.write_ms", ms(|p| p.write), "ms");
    report.put("io.reader.open_ms", ms(|p| p.open), "ms");
    report.put("io.reader.into_store_ms", ms(|p| p.into_store), "ms");
    report.put("io.serve.bind_ms", ms(|p| p.bind), "ms");
    report.put("core.compress.encode_us.p50", us(quantile(&mut encode_ns, 0.5)), "us");
    report.put("core.compress.encode_us.p99", us(quantile(&mut encode_ns, 0.99)), "us");

    let sample = traffic_sample(&traffic, seed, 20_000);

    // Codec: direct decodes of the fetched gates, and the exact engine
    // work per fetch of the traffic.
    let engine =
        DecompressionEngine::for_variant(fx.compressed[0].variant).map_err(|e| e.to_string())?;
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for (k, &g) in sample.iter().take(4000).enumerate() {
        let r = tr.span("core.engine.decode", k as u64, || {
            engine.decompress_into(&fx.compressed[g], &mut scratch, &mut i, &mut q)
        });
        report.check(r.is_ok() && ledger.original(g).matches(&i, &q), || {
            format!("direct decode of gate {g}")
        });
    }
    let (words, windows) = sample.iter().fold((0u64, 0u64), |(w, x), &g| {
        let s = ledger.original(g).stats;
        (w + s.memory_words_read as u64, x + s.idct_windows as u64)
    });
    report.put("core.engine.decode_us.p50", us(tr.q("core.engine.decode", 0.5)), "us");
    report.put("core.engine.words_per_fetch", words as f64 / sample.len() as f64, "count");
    report.put("dsp.idct_windows_per_fetch", windows as f64 / sample.len() as f64, "count");

    // Store, single-threaded from cold: exact hit ratio, hits and misses
    // told apart by the StoreStats delta of each call.
    let store = Store::from_entries(
        fx.gates.iter().cloned().zip(fx.compressed.iter().cloned()),
        kind.hot_leg_config(fx.gates.len()),
    )
    .map_err(|e| e.to_string())?;
    let mut overheads = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (k, &g) in sample.iter().enumerate() {
        let before = store.stats();
        let t0 = Instant::now();
        let r = store.fetch_cached(&fx.gates[g]);
        let ns = t0.elapsed().as_nanos() as u64;
        let after = store.stats();
        let start = t0.duration_since(tr.origin).as_nanos() as u64;
        if after.hot_hits > before.hot_hits {
            hits += 1;
            tr.spans.push(Span { name: "core.store.hit", req: k as u64, start, end: start + ns });
        } else {
            misses += 1;
            tr.spans.push(Span { name: "core.store.miss", req: k as u64, start, end: start + ns });
            overheads.push(ns.saturating_sub(after.decode_ns - before.decode_ns));
        }
        report.check(r.is_ok_and(|w| ledger.original(g).matches(w.i(), w.q())), || {
            format!("store fetch of gate {g}")
        });
    }
    report.put("core.store.hit_ratio", hits as f64 / (hits + misses) as f64, "ratio");
    report.put(
        "core.store.hit_ns.p50",
        tr.q("core.store.hit", 0.5).map_or(f64::NAN, |v| v as f64),
        "ns",
    );
    report.put(
        "core.store.hit_ns.p99",
        tr.q("core.store.hit", 0.99).map_or(f64::NAN, |v| v as f64),
        "ns",
    );
    report.put("core.store.miss_us.p50", us(tr.q("core.store.miss", 0.5)), "us");
    report.put("core.store.miss_overhead_us", us(quantile(&mut overheads, 0.5)), "us");
    report.put("core.store.hot_len", store.hot_len() as f64, "count");

    // Inserts into the warm store (re-publishing the same streams, so
    // the ledger still holds).
    let before = store.stats();
    for (k, &g) in sample.iter().take(2000).enumerate() {
        let z = fx.compressed[g].clone();
        let id = fx.gates[g].clone();
        let r = tr.span("core.store.insert", k as u64, || store.insert(id, z));
        report.check(r.is_ok(), || format!("insert of gate {g}"));
    }
    report.put("core.store.insert_us.p50", us(tr.q("core.store.insert", 0.5)), "us");
    report.put("core.store.insert_us.p99", us(tr.q("core.store.insert", 0.99)), "us");
    report.put(
        "core.store.invalidations",
        (store.stats().invalidations - before.invalidations) as f64,
        "count",
    );
    drop(store);

    // Scaling: aggregate fetch rate of two readers over one.
    let leg = total.mul_f64(0.1).max(Duration::from_millis(200));
    let mut warm = StoreReader::new(&fx, &ledger, traffic.stream(seed, 0, 1));
    let w = closed_loop(&mut warm, Duration::from_millis(50), WINDOW, false);
    report.attempted += w.calls;
    report.failed += w.failed;
    let rate = |legs: &[(crate::workloads::Closed, crate::fixture::Served)]| {
        legs.iter().map(|(c, _)| c.call_rate()).sum::<f64>()
    };
    let one = parallel_readers(&fx, &ledger, &traffic, seed, 1, leg, leg, false);
    let two = parallel_readers(&fx, &ledger, &traffic, seed, 2, leg, leg, false);
    for (c, _) in one.iter().chain(&two) {
        report.attempted += c.calls;
        report.failed += c.failed;
    }
    report.put("core.store.scaling_2v1", rate(&two) / rate(&one), "ratio");

    wire_layers(&fx, &ledger, &sample, &mut tr, &mut report)?;

    // Open loop: one caller at a fixed rate, timed from due times; and
    // what tracing costs.
    let mut svc = StoreReader::new(&fx, &ledger, traffic.stream(seed, 5, 1));
    let mut open = open_loop(kind, total, &mut svc, &mut report);
    let overhead = trace_overhead(&mut svc, leg, &mut tr, &mut report);
    report.put("bench.open_p50_us", us(open.lat.quantile(0.5)), "us");
    report.put("bench.open_p99_us", us(open.lat.quantile(0.99)), "us");
    report.put("bench.gen_lag_us", us(open.gen_lag.quantile(0.99)), "us");
    report.put("trace.overhead_pct", overhead, "%");
    tr.write(&format!(".bench_out/{}-spans.jsonl", kind.name()))
        .map_err(|e| format!("writing spans: {e}"))?;
    report.note(format!("{} spans recorded", tr.spans.len()));
    Ok(report)
}

/// The wire fetch split into its parts, each timed on its own for the
/// same gates: request encode, server respond (parse + lookup +
/// serialize + CRC), response parse with CRC verify, client parse +
/// decode, and the socket round trip (a ping). The parts must add up to
/// the whole `Client::fetch_into` within jitter.
fn wire_layers(
    fx: &Fixture,
    ledger: &crate::fixture::Ledger,
    sample: &[usize],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut client =
        Client::connect(fx.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let reader =
        Reader::open(fx.container.clone(), ReaderOptions::new()).map_err(|e| e.to_string())?;
    let mut cscratch = ContainerScratch::new();
    let mut responder = Responder::new(&ServeConfig::default());
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let mut req = BytesMut::new();
    let mut resp: Vec<u8> = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0u64;
    let serve_before = fx.server.stats();
    let n = 2000.min(sample.len());
    for (k, &g) in sample.iter().take(n).enumerate() {
        let k = k as u64;
        let gate = &fx.gates[g];
        let pong = tr.span("io.socket.ping", k, || client.ping());
        report.check(pong.is_ok(), || "ping".into());
        let r = tr.span("io.wire.fetch", k, || client.fetch_into(gate, &mut i, &mut q));
        report.check(r.is_ok() && ledger.original(g).matches(&i, &q), || {
            format!("wire fetch of gate {g}")
        });
        let enc = tr.span("io.wire.encode_request", k, || encode_fetch_gate(&mut req, gate));
        report.check(enc.is_ok(), || "request encode".into());
        let ok =
            tr.span("io.serve.respond", k, || responder.respond(&*fx.store, &req).map(|f| f.len()));
        report.check(ok.is_ok(), || "respond".into());
        // The timed call's frame borrows the responder; answer once more,
        // untimed, to keep a copy for the parse and CRC legs.
        resp.clear();
        resp.extend_from_slice(responder.respond(&*fx.store, &req).map_err(|e| e.to_string())?);
        bytes += resp.len() as u64;
        let parsed = tr.span("io.wire.parse_response", k, || {
            parse_frame(&resp, u32::MAX).map(|(_, p)| p.len())
        });
        report.check(parsed.is_ok(), || "response parse".into());
        let dec = tr.span("io.serve.client_decode", k, || {
            reader.fetch_into(gate, &mut cscratch, &mut i, &mut q)
        });
        report.check(dec.is_ok() && ledger.original(g).matches(&i, &q), || {
            format!("client decode of gate {g}")
        });
        if frames.len() < 500 {
            frames.push(resp.clone());
        }
    }
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let serve = fx.server.stats();
    let fetched = serve.fetches_served - serve_before.fetches_served;
    report.check(fetched == n as u64, || format!("daemon served {fetched} fetches of {n}"));

    let p50 = |name: &str| tr.q(name, 0.5).map_or(f64::NAN, |v| v as f64);
    let parts = [
        "io.wire.encode_request",
        "io.serve.respond",
        "io.wire.parse_response",
        "io.serve.client_decode",
        "io.socket.ping",
    ];
    let sum: f64 = parts.iter().map(|p| p50(p)).sum();
    let whole = p50("io.wire.fetch");
    let residual = whole - sum;
    let mut d = tr.durations("io.wire.fetch");
    let iqr = quantile(&mut d, 0.75)
        .zip(quantile(&mut d, 0.25))
        .map_or(f64::NAN, |(a, b)| (a - b) as f64);
    let jitter = iqr.max(0.25 * whole);
    report.check(residual.abs() <= jitter, || {
        format!("wire parts sum {sum} ns vs whole {whole} ns (jitter {jitter} ns)")
    });
    report.note(format!("wire layer sum: parts {:.0} ns + residual {:.0} ns = whole {:.0} ns (jitter {:.0} ns, {} fetches)", sum, residual, whole, jitter, n));

    report.put("io.wire.encode_request_ns", p50("io.wire.encode_request"), "ns");
    report.put("io.serve.respond_us", p50("io.serve.respond") / 1e3, "us");
    report.put("io.wire.parse_response_us", p50("io.wire.parse_response") / 1e3, "us");
    report.put("io.serve.client_decode_us", p50("io.serve.client_decode") / 1e3, "us");
    report.put("io.socket.ping_us", p50("io.socket.ping") / 1e3, "us");
    report.put("io.wire.fetch_us", whole / 1e3, "us");
    report.put("io.wire.residual_us", residual / 1e3, "us");
    report.put("io.wire.response_bytes", bytes as f64 / n as f64, "bytes");
    report.put("io.serve.fetches_served", fetched as f64, "count");
    report.put(
        "io.serve.protocol_errors",
        (serve.protocol_errors - serve_before.protocol_errors) as f64,
        "count",
    );
    report.put("io.serve.timeouts", (serve.timeouts - serve_before.timeouts) as f64, "count");

    // CRC-32 over the workload's own response frames.
    let kib: f64 = frames.iter().map(|f| f.len() as f64).sum::<f64>() / 1024.0;
    let mut per_kib = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        let mut acc = 0u32;
        for f in &frames {
            acc ^= crc32(std::hint::black_box(f));
        }
        std::hint::black_box(acc);
        per_kib.push(t.elapsed().as_nanos() as f64 / kib);
    }
    report.put("io.crc32.ns_per_kib", median(&per_kib), "ns/KiB");
    Ok(())
}

/// One open-loop caller of `svc` at the workload's fixed rate: its
/// latencies from due times, its generator lag, whether its backlog
/// grew.
fn open_loop(
    kind: Kind,
    total: Duration,
    svc: &mut impl Service,
    report: &mut Report,
) -> openloop::Probe {
    let rate = kind.open_rate();
    let leg = total.mul_f64(0.3).max(Duration::from_secs(1));
    let open = openloop::run(rate, leg, WINDOW, svc);
    report.attempted += open.sent;
    report.failed += open.failed;
    report.note(format!(
        "open loop at {rate} /s: {} requests, backlog growing {}",
        open.sent, open.backlog_growing
    ));
    open
}

/// The fetch p50 of closed-loop legs with each call recorded as a span,
/// against legs without, alternated; returns the traced excess in %.
fn trace_overhead(
    svc: &mut impl Service,
    leg: Duration,
    tr: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let mut c = closed_loop(svc, leg / 2, leg, false);
        report.attempted += c.calls;
        report.failed += c.failed;
        plain.push(c.lat.quantile(0.5).map_or(f64::NAN, |v| v as f64));
        let mut traced_svc = Traced { svc: &mut *svc, tr: &mut *tr };
        let mut c = closed_loop(&mut traced_svc, leg / 2, leg, false);
        report.attempted += c.calls;
        report.failed += c.failed;
        traced.push(c.lat.quantile(0.5).map_or(f64::NAN, |v| v as f64));
        // Keep the span file to the layer spans.
        tr.spans.retain(|s| s.name != "fetch");
    }
    (median(&traced) / median(&plain) - 1.0) * 100.0
}

/// A service whose calls are recorded as `fetch` spans.
struct Traced<'a, S> {
    svc: &'a mut S,
    tr: &'a mut Tracer,
}

impl<S: Service> Service for Traced<'_, S> {
    fn call(&mut self, k: u64) -> bool {
        let svc = &mut *self.svc;
        self.tr.span("fetch", k, || svc.call(k))
    }

    fn check(&mut self, k: u64) -> bool {
        self.svc.check(k)
    }

    fn delivered(&self) -> u64 {
        self.svc.delivered()
    }
}
