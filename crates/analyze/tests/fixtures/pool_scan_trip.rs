// Tripping fixture for `pool-linear-scan` (analyzed as
// `crates/pipeline/src/pool.rs`; the same source under any other path
// is clean — scope test). Never compiled — lexed only.
use std::collections::VecDeque;

pub struct Timeline {
    intervals: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn is_free(&self, start: f64, end: f64) -> bool {
        self.intervals
            .iter()
            .all(|iv| !(iv.0 < end && start < iv.1)) // FINDING: pool-linear-scan
    }

    pub fn index_of(&self, span: (f64, f64)) -> Option<usize> {
        self.intervals.iter().position(|&iv| same(iv, span)) // FINDING: pool-linear-scan
    }
}

struct LiveBooking {
    id: u64,
    settled: bool,
}

pub struct DevicePool {
    lanes: Vec<Timeline>,
    live: VecDeque<LiveBooking>,
}

impl DevicePool {
    pub fn mark_settled(&mut self, id: u64) {
        if let Some(b) = self.live.iter_mut().find(|b| b.id == id) { // FINDING: pool-linear-scan
            b.settled = true;
        }
    }

    pub fn is_live(&self, id: u64) -> bool {
        self.live.iter().any(|b| b.id == id) // FINDING: pool-linear-scan
    }

    pub fn busy_at(&self, lane: usize, t: f64) -> bool {
        // an index between the receiver and the list does not hide it
        self.lanes[lane].intervals.iter().any(|iv| iv.0 <= t && t < iv.1) // FINDING: pool-linear-scan
    }
}
