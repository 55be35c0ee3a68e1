// Clean fixture for `pool-linear-scan` (analyzed as
// `crates/pipeline/src/pool.rs`): every lookup enters its sorted list
// through a bisection, walks are bounded slice loops from the bisected
// index, and scans over other lists are nobody's business. Never
// compiled — lexed only.
use std::collections::VecDeque;

pub struct Timeline {
    intervals: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn is_free(&self, start: f64, end: f64) -> bool {
        let at = self.intervals.partition_point(|iv| iv.1 <= start);
        self.intervals.get(at).is_none_or(|iv| iv.0 >= end)
    }

    pub fn earliest_fit(&self, dur: f64, not_before: f64) -> f64 {
        let from = self.intervals.partition_point(|iv| iv.1 <= not_before);
        let mut t = not_before;
        // a bounded walk from a bisected index is a slice loop
        for &(s, e) in &self.intervals[from..] {
            if t + dur <= s {
                return t;
            }
            t = t.max(e);
        }
        t
    }

    pub fn booked_ms(&self) -> f64 {
        // a fold over the whole list is not a search
        self.intervals.iter().map(|iv| iv.1 - iv.0).sum()
    }
}

struct LiveBooking {
    id: u64,
    device: usize,
    stages: Vec<(f64, f64)>,
}

pub struct DevicePool {
    devices: Vec<Timeline>,
    live: VecDeque<LiveBooking>,
}

impl DevicePool {
    fn live_index(&self, id: u64) -> Option<usize> {
        self.live.binary_search_by_key(&id, |b| b.id).ok()
    }

    pub fn drop_device(&mut self, device: usize) {
        // a whole-registry pass that *is* the operation
        self.live.retain(|b| b.device != device);
    }

    pub fn any_idle(&self) -> bool {
        // `devices` and a booking's own `stages` are short, unsorted lists
        self.devices.iter().any(|d| d.intervals.is_empty())
            || self.live.front().is_some_and(|b| b.stages.iter().all(|s| s.1 <= s.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_scan() {
        // the linear scan is the reference model of the bisection
        let tl = Timeline { intervals: vec![(0.0, 1.0)] };
        assert!(tl.intervals.iter().all(|iv| iv.0 < iv.1));
    }
}
