//! The service shell's one queue type. Its deque is private to this
//! module, so the rest of `service` can grow a queue only through
//! [`BoundedQueue::push`] (refused when full) and
//! [`BoundedQueue::requeue_front`] (asserted to fit).

use std::collections::VecDeque;

/// A FIFO with a hard capacity, fixed at construction.
pub(super) struct BoundedQueue<T> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `cap` items (zero is clamped to
    /// one).
    pub(super) fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            items: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Append `v` when there is room; `false` (and `v` dropped) when
    /// the queue is full.
    pub(super) fn push(&mut self, v: T) -> bool {
        if self.is_full() {
            return false;
        }
        self.items.push_back(v);
        true
    }

    /// Put a job popped earlier in this round back at the head. It
    /// refills the slot its pop freed — `dispatch_round` settles before
    /// it admits arrivals — so it always fits; a call that would pass
    /// the cap is a bug and panics.
    pub(super) fn requeue_front(&mut self, v: T) {
        assert!(!self.is_full(), "requeue_front past the queue's capacity");
        self.items.push_front(v);
    }

    pub(super) fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    pub(super) fn front(&self) -> Option<&T> {
        self.items.front()
    }

    pub(super) fn len(&self) -> usize {
        self.items.len()
    }

    pub(super) fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    pub(super) fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::BoundedQueue;

    #[test]
    fn push_past_the_cap_is_refused() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1) && q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front(), Some(1));
        assert!(q.push(4));
        assert!(!q.push(5));
        assert_eq!(q.len(), 2);
        // zero is clamped to one
        let mut one = BoundedQueue::new(0);
        assert!(one.push(()) && !one.push(()));
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn requeue_into_a_popped_slot_is_accepted() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1) && q.push(2));
        let head = q.pop_front().expect("queue holds two");
        q.requeue_front(head);
        assert!(q.is_full());
        assert_eq!((q.pop_front(), q.pop_front()), (Some(1), Some(2)));
    }

    #[test]
    #[should_panic(expected = "past the queue's capacity")]
    fn requeue_into_a_full_queue_panics() {
        let mut q = BoundedQueue::new(1);
        assert!(q.push(1));
        q.requeue_front(2);
    }
}
