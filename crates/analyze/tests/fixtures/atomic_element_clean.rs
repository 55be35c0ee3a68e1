// Clean fixture for `atomic-on-element-path` (analyzed as
// `crates/gpusim/src/buffer.rs`): plain loads and stores, a slice
// exchange, and an atomic that is only ever loaded. Never compiled —
// lexed only.
use core::sync::atomic::{AtomicBool, Ordering};

pub struct PlainBuf {
    data: Vec<f64>,
    poisoned: AtomicBool,
}

impl PlainBuf {
    pub fn get(&self, i: usize) -> f64 {
        // a bounds check and a load — nothing is counted
        assert!(i < self.data.len());
        self.data[i]
    }

    pub fn pivot(&mut self, i: usize, j: usize) {
        // a slice exchange names no memory ordering: not an atomic swap
        self.data.swap(i, j);
    }

    pub fn is_poisoned(&self) -> bool {
        // a plain atomic load is not a read-modify-write
        self.poisoned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use core::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tests_may_count() {
        // test code is off the element path
        let calls = AtomicUsize::new(0);
        calls.fetch_add(1, Ordering::Relaxed);
    }
}
