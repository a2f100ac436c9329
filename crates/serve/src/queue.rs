//! The bounded admission queue.
//!
//! This is the *only* sanctioned queue construction site in the
//! workspace (lint rule L7 forbids unbounded queue/channel construction
//! everywhere else): one FIFO with a fixed capacity, checked on every
//! push. A full queue **rejects** — it never blocks the producer and
//! never grows, so admission pressure is always visible to the caller
//! instead of becoming hidden memory growth.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Why an enqueue was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was reached.
    pub capacity: usize,
}

/// A multi-producer bounded FIFO (see the module docs). All methods
/// are `&self`; the interior mutex makes the queue shareable across
/// producer threads.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items. A zero capacity is
    /// clamped to one.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            // h2p-lint: allow(L7): bounded by the push-side capacity check below
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.lock().len()
    }

    /// Enqueues at the back. Returns the post-push depth, or
    /// [`QueueFull`] (leaving the queue untouched) when the capacity is
    /// already reached.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when `depth() == capacity()`.
    pub fn push(&self, item: T) -> Result<usize, QueueFull> {
        let mut inner = self.lock();
        if inner.len() >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        inner.push_back(item);
        Ok(inner.len())
    }

    /// Drains the whole queue in push order. The queue is empty
    /// afterwards.
    #[must_use]
    pub fn pop_all(&self) -> Vec<T> {
        self.lock().drain(..).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // A poisoned admission queue carries no cross-call invariant
        // worth dying for; take the data through poisoning.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_lane() {
        let q = BoundedQueue::new(8);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_all(), vec![0, 1, 2, 3]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_with_its_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1).unwrap(), 1);
        assert_eq!(q.push(2).unwrap(), 2);
        let err = q.push(3).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2 });
        // The reject left the queue intact; draining frees capacity.
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_all().len(), 2);
        assert!(q.push(4).is_ok());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_err());
    }
}
