// Tripping fixture for `atomic-on-element-path` (analyzed as
// `crates/gpusim/src/buffer.rs` or a `kernels.rs`; the same source
// under any other path is clean — scope test). Never compiled — lexed
// only.
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct CountingBuf {
    data: Vec<f64>,
    reads: AtomicU64,
    writes: AtomicU64,
    owner: AtomicUsize,
}

impl CountingBuf {
    pub fn get(&self, i: usize) -> f64 {
        self.reads.fetch_add(1, Ordering::Relaxed); // FINDING: atomic-on-element-path
        self.data[i]
    }

    pub fn forget(&self, n: u64) {
        self.writes.fetch_sub(n, Ordering::Relaxed); // FINDING: atomic-on-element-path
        self.reads.fetch_max(n, Ordering::Relaxed); // FINDING: atomic-on-element-path
    }

    pub fn claim(&self, me: usize) -> bool {
        let prev = self.owner.swap(me, Ordering::AcqRel); // FINDING: atomic-on-element-path
        self.owner
            .compare_exchange(prev, me, Ordering::SeqCst, Ordering::Relaxed) // FINDING: atomic-on-element-path
            .is_ok()
    }
}
