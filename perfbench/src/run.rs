//! The untraced run: end-to-end metrics of one workload.

use std::time::Duration;

use compaqt_core::store::StoreStats;
use compaqt_io::serve::{Client, ServeStats};

use crate::fixture::{device, Fixture, Ledger, Phases, Served, Setups};
use crate::speed::REFERENCE_NS;
use crate::stats::{median, spot, Windows};
use crate::workloads::{
    final_check, parallel_readers, with_writer, Closed, Kind, Recal, Traffic, DEVICE,
};
use crate::Report;

/// Where the result came from: host parallelism, SIMD tier, toolchain,
/// source revision, date and seed, as one JSON line.
pub fn provenance(kind: Kind, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tier = compaqt_dsp::batched::KernelTier::detected();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"kernel_tier\": \"{tier:?}\", \"rustc\": \"{rustc}\", \
         \"git_rev\": \"{}\", \"date\": \"{}\"}}}}",
        kind.name(),
        git_rev(),
        utc_date(secs)
    )
}

/// The checked-out revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (civil-from-days).
fn utc_date(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem / 60 % 60, rem % 60)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// A workload ready to run: its fixture (from the last of a first
/// group of set-ups), the set-up timings, the checking ledger and the
/// traffic.
pub struct Prepared {
    pub fx: Fixture,
    pub setups: Setups,
    pub ledger: Ledger,
    pub traffic: Traffic,
}

pub fn prepare(kind: Kind, trace: bool) -> Result<Prepared, String> {
    let spec = device(DEVICE);
    let mut setups = Setups::new(spec, kind.store_config(spec.build_library().len()));
    setups.group(trace)?;
    let fx = setups.setup(trace)?;
    let ledger = Ledger::new(&fx)?;
    let traffic = Traffic::new(kind, &fx)?;
    Ok(Prepared { fx, setups, ledger, traffic })
}

/// The harness's own counts of what it asked each layer for.
pub struct Counts {
    /// `Store::fetch_cached` + `Store::fetch_into` calls.
    pub store_calls: u64,
    /// `Store::fetch_cached` calls.
    pub cached_calls: u64,
    /// Gate streams requested over the wire (one per gate of a batch).
    pub wire_fetches: u64,
}

/// Checks the harness's counts against the `StoreStats` / `ServeStats`
/// deltas and a `Client::metrics()` scrape. Every wire connection the
/// run used has closed after its last answer was read; the daemon books
/// a request only after writing its answer, so the scrape's own
/// connection first pings to let the last booking land.
pub fn cross_check(
    fx: &Fixture,
    store_before: StoreStats,
    serve_before: ServeStats,
    counts: Counts,
    report: &mut Report,
) -> Result<(), String> {
    let Counts { store_calls, cached_calls, wire_fetches } = counts;
    let mut scrape =
        Client::connect(fx.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    scrape.ping().map_err(|e| format!("ping: {e}"))?;
    let s = fx.store.stats();
    let v = fx.server.stats();
    report.check(s.fetches - store_before.fetches == store_calls, || {
        format!("store fetches {} != harness {store_calls}", s.fetches - store_before.fetches)
    });
    let cached = s.hot_hits + s.hot_misses - store_before.hot_hits - store_before.hot_misses;
    report.check(cached == cached_calls, || {
        format!("store hot hits+misses {cached} != harness fetch_cached calls {cached_calls}")
    });
    let served = v.fetches_served - serve_before.fetches_served;
    report.check(served == wire_fetches, || {
        format!("daemon fetches_served {served} != harness wire fetches {wire_fetches}")
    });
    report.check(v.protocol_errors == serve_before.protocol_errors, || "protocol errors".into());
    report.check(v.timeouts == serve_before.timeouts, || "daemon timeouts".into());
    let snap = scrape.metrics().map_err(|e| format!("metrics scrape: {e}"))?;
    report.check(snap.counter("serve_fetches") == Some(v.fetches_served), || {
        format!("scraped serve_fetches {:?} != {}", snap.counter("serve_fetches"), v.fetches_served)
    });
    report.check(snap.counter("store_fetches") == Some(s.fetches), || {
        format!("scraped store_fetches {:?} != {}", snap.counter("store_fetches"), s.fetches)
    });
    report.check(snap.counter("store_hot_hits") == Some(s.hot_hits), || {
        format!("scraped store_hot_hits {:?} != {}", snap.counter("store_hot_hits"), s.hot_hits)
    });
    Ok(())
}

/// Width of the windows latencies and throughput are read over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// What the measured legs of a run produced.
#[derive(Default)]
struct Legs {
    /// Per-call fetch latencies of the main leg.
    lat: Option<Windows>,
    /// Delivered samples per second of the main leg, per window.
    rates: Vec<f64>,
    /// The reference sweep's time at each probe of the main leg, in ns.
    sweep_ns: Vec<f64>,
    /// What the main leg served.
    served: Served,
    recal: Option<Recal>,
    /// Calls made and failed across every leg.
    attempted: u64,
    failed: u64,
    /// `Store::fetch_cached` calls, for the cross-check.
    store_calls: u64,
    notes: Vec<String>,
}

impl Legs {
    /// Books closed-loop legs run side by side as the main leg.
    fn main(&mut self, legs: Vec<(Closed, Served)>) {
        self.book(&legs);
        let mut lat = Windows::new(WINDOW, legs[0].0.lat.count());
        self.rates = vec![0.0; lat.count()];
        for (c, s) in legs {
            self.rates.iter_mut().zip(c.rates()).for_each(|(a, b)| *a += b);
            self.sweep_ns.extend_from_slice(&c.sweep_ns);
            self.served.merge(&s);
            lat.merge(c.lat);
        }
        self.lat = Some(lat);
    }

    /// Books the calls of closed-loop store legs.
    fn book(&mut self, legs: &[(Closed, Served)]) {
        for (c, _) in legs {
            self.attempted += c.calls;
            self.failed += c.failed;
            self.store_calls += c.calls;
        }
    }
}

/// `qec-fit`: two closed-loop controllers, then the writer beside one.
/// `qec-stream`, `zipf-spill-recal`: one closed-loop reader beside the
/// writer. A second reader would share the host's cores with the first
/// and, whenever the host placed the two vCPUs on one physical core,
/// slow every decode by more than the speed probe sees.
fn store_legs(
    kind: Kind,
    fx: &Fixture,
    ledger: &Ledger,
    traffic: &Traffic,
    seed: u64,
    total: Duration,
) -> Legs {
    let mut legs = Legs::default();
    // Warm the hot set, scratch pools and caches before timing.
    let warm =
        parallel_readers(fx, ledger, traffic, seed, 1, Duration::from_millis(100), WINDOW, false);
    let scaled = kind.scaled();
    legs.book(&warm);
    let before = fx.store.stats();
    if kind == Kind::QecFit {
        legs.main(parallel_readers(
            fx,
            ledger,
            traffic,
            seed,
            2,
            total.mul_f64(MAIN_SHARE),
            WINDOW,
            scaled,
        ));
        let side_leg = total.mul_f64(1.0 - MAIN_SHARE);
        let (side, recal) = with_writer(fx, ledger, traffic, seed, side_leg, || {
            parallel_readers(fx, ledger, traffic, seed, 1, side_leg, WINDOW, scaled)
        });
        legs.book(&side);
        legs.recal = Some(recal);
    } else {
        let (main, recal) = with_writer(fx, ledger, traffic, seed, total, || {
            parallel_readers(fx, ledger, traffic, seed, 1, total, WINDOW, scaled)
        });
        legs.main(main);
        legs.recal = Some(recal);
    }
    let s = fx.store.stats();
    let (hits, misses) = (s.hot_hits - before.hot_hits, s.hot_misses - before.hot_misses);
    if hits + misses > 0 {
        let ratio = hits as f64 / (hits + misses) as f64;
        legs.notes.push(format!("hot-set hit ratio {ratio:.4} of {} calls", hits + misses));
    }
    if scaled {
        let s = &legs.sweep_ns;
        legs.notes.push(format!(
            "main-leg reference sweep (ns) p10 {:.0} p50 {:.0} p90 {:.0}; fetch timings scaled \
             to a {REFERENCE_NS} ns sweep",
            spot(s, 0.1),
            spot(s, 0.5),
            spot(s, 0.9)
        ));
    }
    legs.notes.push(format!(
        "main-leg samples/s per window (millions) {:?}",
        legs.rates.iter().map(|r| (r / 1e6).round()).collect::<Vec<_>>()
    ));
    legs
}

/// The share of `--seconds` the two `qec-fit` controllers run alone;
/// the rest runs the writer beside one of them.
const MAIN_SHARE: f64 = 0.6;

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let total = Duration::from_secs(seconds);
    let Prepared { fx, mut setups, ledger, traffic } = prepare(kind, false)?;
    let mut report = Report::default();
    let store_before = fx.store.stats();
    let serve_before = fx.server.stats();

    let mut legs = store_legs(kind, &fx, &ledger, &traffic, seed, total);
    let mut recal = legs.recal.take().ok_or("no recalibrations ran")?;
    report.put("recal_p50_us", us(recal.lat.quantile(0.5)), "us");
    // The tail of 200 writes a second is set by how a shared 2-vCPU host
    // schedules the writer (1-7 ms across runs of the same code), so it is
    // printed for reading and not reported as a metric.
    report.note(format!(
        "recalibrations: {} (failed {}); latency over the leg p50 {:.1} us, p90 {:.1} us, \
         p99 {:.1} us; writer woken late by p50 {:.1} us, p99 {:.1} us (wall clock)",
        recal.count,
        recal.failed,
        us(recal.pooled.quantile(0.5)),
        us(recal.pooled.quantile(0.9)),
        us(recal.pooled.quantile(0.99)),
        us(recal.late.quantile(0.5)),
        us(recal.late.quantile(0.99))
    ));
    // One attempt per call (a fetch and its check) and per recalibration.
    report.attempted += recal.count + legs.attempted;
    report.failed += recal.failed + legs.failed;
    legs.notes.drain(..).for_each(|n| report.note(n));

    // Every gate serves its newest version; the counts add up.
    let (checks, bad) = final_check(&fx, &ledger)?;
    report.attempted += checks;
    report.failed += bad;
    let n = fx.gates.len() as u64;
    let counts = Counts {
        store_calls: legs.store_calls + 2 * n,
        cached_calls: if kind == Kind::QecStream { n } else { legs.store_calls + n },
        wire_fetches: n,
    };
    cross_check(&fx, store_before, serve_before, counts, &mut report)?;
    // The peak of the run itself; a second group of set-ups, beside the
    // run's fixture, follows it.
    let peak_rss = peak_rss_mb();
    setups.group(false)?;
    let scaled: Vec<f64> = setups.scaled.iter().map(Duration::as_secs_f64).collect();
    let setup_s = median(&scaled);
    report.note(format!(
        "setup_s: median of {} set-ups at the reference speed; wall clock: median {:.2} ms, \
         fastest {:.2} ms",
        scaled.len(),
        median(&setups.phases.iter().map(|p| p.total().as_secs_f64()).collect::<Vec<_>>()) * 1e3,
        setups.fastest(Phases::total).as_secs_f64() * 1e3
    ));

    let mut lat = legs.lat.ok_or("no fetch latencies recorded")?;
    report.note(format!(
        "main-leg fetch p50 per window (us) {:?}",
        lat.per_window(0.5).iter().map(|v| (v / 10.0).round() / 100.0).collect::<Vec<_>>()
    ));
    report.put("fetch_p50_us", us(lat.quantile(0.5)), "us");
    report.put("fetch_p99_us", us(lat.quantile(0.99)), "us");
    report.put("samples_per_s", median(&legs.rates), "1/s");
    report.put("bandwidth_expansion", legs.served.bandwidth_expansion(), "x");
    report.put("mean_mse", legs.served.mean_mse(), "mse");
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mb", peak_rss, "MiB");
    report.note(format!(
        "{}: {} gates, {} fetch latencies in {} windows, {} served fetches checked",
        kind.name(),
        fx.gates.len(),
        lat.len(),
        lat.count(),
        legs.served.fetches
    ));
    Ok(report)
}
