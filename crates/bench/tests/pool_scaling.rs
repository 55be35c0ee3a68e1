//! Pool operations stay logarithmic in schedule history, gated.
//!
//! `serve` books 10⁵–10⁶ spans per run, and every pool query between
//! dispatch and refund enters its sorted list — a lane's intervals, the
//! live registry — through a bisection, or not at all: a tail
//! `earliest_fit` is one comparison, and a `Timeline::book` that starts
//! after the lane's last stored start (nearly every booking) is an O(1)
//! append. The gate times four entry points at a schedule of 1 024
//! spans and at one of 65 536:
//!
//! * `Timeline::earliest_fit` near the tail of a lane;
//! * `Timeline::is_free` at the middle of a lane (a scan from either end
//!   reads the same there);
//! * `DevicePool::mark_settled` mid-registry;
//! * `DevicePool::rebook` (`RebookMode::BooksOnly`) mid-registry.
//!
//! A bisection reads ≈ 1.6× (16 probes against 10), a scan 64×. The
//! bound is generous on purpose — it catches the return of a linear
//! scan, not cache effects. Mid-lane `book` and `free` are not timed:
//! each is a bisection plus an O(n) memmove of the `Vec` tail, not a
//! scan.
#![expect(clippy::disallowed_methods, reason = "a host-time gate")]

use std::hint::black_box;
use std::time::Instant;

use gpusim::Gpu;
use mdls_pipeline::{DevicePool, RebookMode, StageBooking, StageReq, Timeline};

const SMALL: usize = 1 << 10;
const LARGE: usize = 1 << 16;
const CALLS: usize = 100_000;

/// Median over five runs of the per-call wall time of `CALLS` calls, ns.
fn ns_per_call(mut call: impl FnMut(usize)) -> f64 {
    let mut t: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for k in 0..CALLS {
                call(k);
            }
            t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[2]
}

fn assert_flat(what: &str, small_ns: f64, large_ns: f64) {
    let ratio = large_ns / small_ns;
    assert!(
        ratio <= 8.0,
        "{what}: {large_ns:.1} ns at {LARGE} spans vs {small_ns:.1} ns at {SMALL}: \
         {ratio:.1}x (gate 8x; a linear scan reads 64x)"
    );
}

/// A lane of `len` unit spans with unit gaps.
fn gapped_lane(len: usize) -> Timeline {
    let mut lane = Timeline::default();
    for i in 0..len {
        lane.book(2.0 * i as f64, 2.0 * i as f64 + 1.0);
    }
    lane
}

/// A 5 ms request placed a few spans before the tail fits no gap, so
/// `earliest_fit` misses its tail fast path and walks to the end from
/// wherever it entered.
fn earliest_fit_ns(len: usize) -> f64 {
    let lane = gapped_lane(len);
    let tail = lane.cursor_ms();
    ns_per_call(|k| {
        let not_before = tail - 2.0 * (1 + k % 8) as f64;
        assert_eq!(
            black_box(&lane).earliest_fit(5.0, black_box(not_before)),
            tail
        );
    })
}

/// Probes land in the gaps around the middle of the lane: free, and as
/// far from either end as a probe can be.
fn is_free_ns(len: usize) -> f64 {
    let lane = gapped_lane(len);
    let mid = len / 2;
    ns_per_call(|k| {
        let gap = 2.0 * (mid + k % 64) as f64 + 1.0;
        assert!(black_box(&lane).is_free(black_box(gap + 0.25), gap + 0.75));
    })
}

/// A registry of `len` live one-stage bookings whose oldest never
/// settles (so nothing is pruned), and the bookings themselves.
fn live_registry(len: usize) -> (DevicePool, Vec<StageBooking>) {
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let stage = [StageReq {
        host_ms: 0.0,
        device_ms: 1.0,
    }];
    let bookings = (0..len)
        .map(|_| {
            // released at the live edge, as the service dispatches: a
            // first fit from t = 0 over a gapless backlog is a scan by
            // definition
            let release = pool.makespan_ms();
            pool.commit_stages(0, &stage, 1.0, 0.0, 1, true, release)
        })
        .collect();
    (pool, bookings)
}

/// Settles land on ids around the middle of the registry.
fn mark_settled_ns(len: usize) -> f64 {
    let (mut pool, _) = live_registry(len);
    let mid = len as u64 / 2;
    ns_per_call(|k| black_box(&mut pool).mark_settled(black_box(mid + (k % 64) as u64)))
}

/// Re-books land on bookings around the middle of the registry. Each
/// hands back no stage (`from_stage` = its one stage), so repeating it
/// writes nothing off and emits nothing: what is timed is the lookup.
fn rebook_ns(len: usize) -> f64 {
    let (mut pool, bookings) = live_registry(len);
    let mid = len / 2;
    ns_per_call(|k| {
        let b = &bookings[mid + k % 64];
        let refund = black_box(&mut pool).rebook(black_box(b), 1, RebookMode::BooksOnly);
        assert_eq!(refund.refunded_ms, 0.0);
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn pool_lookups_do_not_grow_with_schedule_history() {
    assert_flat(
        "earliest_fit near the tail",
        earliest_fit_ns(SMALL),
        earliest_fit_ns(LARGE),
    );
    assert_flat("is_free mid-lane", is_free_ns(SMALL), is_free_ns(LARGE));
    assert_flat(
        "mark_settled mid-registry",
        mark_settled_ns(SMALL),
        mark_settled_ns(LARGE),
    );
    assert_flat(
        "rebook (books only) mid-registry",
        rebook_ns(SMALL),
        rebook_ns(LARGE),
    );
}
