//! Open-loop load: requests fall due on a fixed schedule whether or not
//! the previous one has finished, and each is timed from when it was
//! due, so a stall also charges every request queued behind it (the
//! coordinated-omission correction of wrk2 / HdrHistogram).

use std::time::{Duration, Instant};

use crate::stats::{Lat, Windows};

/// One open-loop leg at a fixed offered rate.
pub struct Probe {
    /// Per-request latency from its due time to its completion, by the
    /// window the request fell due in.
    pub lat: Windows,
    /// Lateness (send time − due time) of the requests the generator was
    /// free to send on time, the previous one having completed: the
    /// generator's own lag.
    pub gen_lag: Lat,
    pub sent: u64,
    pub failed: u64,
    /// The queue of due-but-unsent requests grew over the leg.
    pub backlog_growing: bool,
}

fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Waits until `due` ns after `start`: sleeps until `margin` before it
/// (waking from a sleep can take hundreds of microseconds on a shared
/// host), then polls, yielding the core meanwhile so a thread that
/// shares it (the daemon serving this generator's requests, a reader
/// beside the writer) runs.
pub fn wait_until(start: Instant, due: u64, margin: Duration) {
    let margin = margin.as_nanos() as u64;
    loop {
        let now = since(start);
        if now >= due {
            return;
        }
        let left = due - now;
        if left > margin + 100_000 {
            std::thread::sleep(Duration::from_nanos(left - margin));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What an open-loop leg drives.
pub trait Service {
    /// Serves request `k`; `false` when it failed. This is the timed part.
    fn call(&mut self, k: u64) -> bool;

    /// Checks request `k`'s output after its latency was taken; `false`
    /// when it was wrong.
    fn check(&mut self, _k: u64) -> bool {
        true
    }

    /// Decoded I/Q samples handed to the caller so far.
    fn delivered(&self) -> u64 {
        0
    }
}

impl<F: FnMut(u64) -> bool> Service for F {
    fn call(&mut self, k: u64) -> bool {
        self(k)
    }
}

/// Offers `rate` requests per second for `duration` to `svc`, keeping
/// latencies by `window`. A leg that falls a quarter of its length
/// behind is cut short and counts as a growing backlog.
pub fn run(rate: f64, duration: Duration, window: Duration, svc: &mut impl Service) -> Probe {
    let period = 1e9 / rate;
    let total = (duration.as_secs_f64() * rate).ceil().max(1.0) as u64;
    let quarter = total / 4;
    let give_up = duration.as_nanos() as u64 / 4;
    let mut p = Probe {
        lat: Windows::covering(window.min(duration), duration),
        gen_lag: Lat::new(),
        sent: 0,
        failed: 0,
        backlog_growing: false,
    };
    // Lateness is the backlog expressed in time. A queue that drains
    // ends the leg about as late as it began; one that grows does not.
    let (mut first, mut last) = (0u64, 0u64);
    let start = Instant::now();
    let mut free_at = 0u64;
    for k in 0..total {
        let due = (k as f64 * period) as u64;
        wait_until(start, due, Duration::from_micros(300));
        let send = since(start);
        if free_at <= due {
            p.gen_lag.record(send - due);
        }
        let ok = svc.call(k);
        let end = since(start);
        let ok = svc.check(k) && ok;
        p.lat.record(due, end - due);
        p.sent += 1;
        p.failed += u64::from(!ok);
        free_at = since(start);
        if k < quarter {
            first += send - due;
        } else if k >= total - quarter {
            last += send - due;
        }
        if send - due > give_up {
            p.backlog_growing = true;
            return p;
        }
    }
    // The 2 ms floor lets the queue behind one stolen slice of a shared
    // core drain without calling it growth.
    if quarter > 0 {
        let growth = (last as f64 - first as f64) / quarter as f64;
        p.backlog_growing = growth > (20.0 * period).max(2_000_000.0);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_stall_raises_the_latency_of_requests_queued_behind_it() {
        // 10 k/s: one request every 100 µs. Request 100 stalls 5 ms, so
        // the ~50 requests that fall due during the stall are sent late
        // and must be charged for the wait, not just their own service.
        let stall = 5_000_000u64;
        let leg = Duration::from_millis(60);
        let mut sent_at = Vec::new();
        let mut p = run(10_000.0, leg, leg, &mut |k| {
            sent_at.push(Instant::now());
            if k == 100 {
                std::thread::sleep(Duration::from_nanos(stall));
            }
            true
        });
        // Lateness relative to request 0, which went out on time.
        let late = |k: usize| (sent_at[k] - sent_at[0]).as_nanos() as u64 - k as u64 * 100_000;
        for k in 101..140 {
            let queued = stall.saturating_sub((k as u64 - 100) * 100_000);
            assert!(
                late(k) + 200_000 >= queued,
                "request {k} sent {} ns late, expected about {queued}",
                late(k)
            );
        }
        // About 50 of 600 requests waited behind the stall: the p95 is
        // charged for it, the median is not.
        assert!(p.lat.quantile(0.95).unwrap() > 1_000_000);
        assert!(p.lat.quantile(0.5).unwrap() < 500_000);
        // The queue drained after the stall: that is not a growing backlog.
        assert!(!p.backlog_growing);
        // The stalled requests are not the generator's own lag.
        assert!(p.gen_lag.len() < p.sent - 40);
    }

    #[test]
    fn a_service_slower_than_the_offered_rate_grows_the_backlog() {
        let busy = |ns: u64| {
            let t = Instant::now();
            while (t.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        };
        let leg = Duration::from_millis(100);
        let p = run(10_000.0, leg, leg, &mut |_| {
            busy(150_000);
            true
        });
        assert!(p.backlog_growing);
        let p = run(2_000.0, leg, leg, &mut |_| {
            busy(50_000);
            true
        });
        assert!(!p.backlog_growing);
    }
}
