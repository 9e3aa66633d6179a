//! The open-loop load generator.
//!
//! Arrivals are a Poisson process: exponential inter-arrival gaps drawn
//! from a seeded deterministic PRNG at a target rate, scheduled against
//! the wall clock and submitted whether or not earlier requests have
//! finished (**open loop**). Latency is measured from the *scheduled*
//! arrival instant, so queueing delay under overload is charged to the
//! request — the standard defence against coordinated omission. The
//! arrival *pattern* is deterministic for a given seed; the measured
//! latencies of course are not.
//!
//! After the duration window closes, the generator tops the submission
//! count up to a whole number of mix rounds (every program × variant
//! under every mode equally often) so the Figure-12 ledger holds exactly
//! on the merged snapshots, then drains.
//!
//! When [`ServeConfig::telemetry`] is set, the server's flight recorder
//! rides along unchanged: the [`ServeOutcome`] carries the scheduling
//! trace and the gauge timeline counted from it, and the load report
//! folds the per-stage latency attribution in (see
//! [`crate::telemetry`]).

use std::time::{Duration, Instant};

use crate::server::{ServeConfig, ServeError, ServeOutcome, Server};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Target arrival rate, sessions per second.
    pub rate_hz: f64,
    /// Length of the arrival window.
    pub duration: Duration,
    /// PRNG seed for the arrival process.
    pub seed: u64,
}

impl Default for LoadPlan {
    fn default() -> LoadPlan {
        LoadPlan {
            rate_hz: 2000.0,
            duration: Duration::from_millis(1000),
            seed: 1,
        }
    }
}

/// What a load run measured, beyond the per-session results.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Per-session results and executor counters.
    pub serve: ServeOutcome,
    /// The plan that generated the load.
    pub plan: LoadPlan,
    /// Wall-clock time from first scheduled arrival to full drain.
    pub elapsed: Duration,
    /// Arrivals submitted inside the duration window (before the
    /// round-completion top-up).
    pub windowed: u64,
}

/// A small deterministic PRNG (LCG, Knuth's MMIX constants) — enough to
/// drive a Poisson arrival process without external dependencies.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // 53 significant bits
        (bits + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (per second), in seconds.
    fn next_exp(&mut self, rate_hz: f64) -> f64 {
        -self.next_unit().ln() / rate_hz
    }
}

/// The highest arrival rate [`run_load`] accepts: one arrival per
/// nanosecond, the resolution of the [`Duration`] gaps it schedules.
/// Above it most gaps round to zero and the window would never close.
const MAX_RATE_HZ: f64 = 1e9;

/// Drives `server` with the plan's Poisson arrivals, tops up to a whole
/// mix round, drains, and returns everything measured.
///
/// # Errors
///
/// Fails if the server cannot start, or if `plan.rate_hz` is out of
/// range: above one arrival per nanosecond (1e9/s), or without a mean
/// gap `1 / rate` that is a valid [`Duration`] (NaN, zero, negative, or
/// so low the gap overflows).
pub fn run_load(cfg: &ServeConfig, plan: &LoadPlan) -> Result<LoadOutcome, ServeError> {
    if plan.rate_hz > MAX_RATE_HZ || Duration::try_from_secs_f64(1.0 / plan.rate_hz).is_err() {
        return Err(ServeError {
            message: format!(
                "rate must be positive, at most {MAX_RATE_HZ:e} sessions/s and with a \
                 mean gap that fits a Duration, got {:?}",
                plan.rate_hz
            ),
        });
    }
    let server = Server::start(cfg)?;
    let mut rng = Lcg(plan.seed.wrapping_mul(2654435769).wrapping_add(1));
    let start = Instant::now();
    let mut offset = Duration::ZERO;
    let mut session = 0u64;

    // A gap too long for a `Duration` lies past any window.
    while let Ok(gap) = Duration::try_from_secs_f64(rng.next_exp(plan.rate_hz)) {
        offset = offset.saturating_add(gap);
        if offset >= plan.duration {
            break;
        }
        let scheduled = start + offset;
        pace_until(scheduled);
        // Anchor latency to the *scheduled* arrival even when the
        // generator itself fell behind (open loop, no omission).
        server.submit(session, scheduled);
        session += 1;
    }
    let windowed = session;

    // Top up to a whole number of mix rounds so every check mode saw the
    // same multiset of (program, variant) requests.
    let mix = server.mix_len() as u64;
    while !session.is_multiple_of(mix) || session == 0 {
        server.submit(session, Instant::now());
        session += 1;
    }

    server.drain();
    let elapsed = start.elapsed();
    Ok(LoadOutcome {
        serve: server.finish(),
        plan: plan.clone(),
        elapsed,
        windowed,
    })
}

/// Sleeps (coarse) then spins (fine) until `deadline`. Sub-millisecond
/// gaps — the common case at serving rates — never touch the OS timer.
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let gap = deadline - now;
        if gap > Duration::from_millis(2) {
            std::thread::sleep(gap - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}
