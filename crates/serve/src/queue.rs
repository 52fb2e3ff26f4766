//! A bounded MPMC request queue on std sync primitives.
//!
//! The build environment is offline, so instead of pulling tokio or
//! crossbeam this is a `Mutex<VecDeque>` with two condvars — one per
//! direction — which is all a shard needs: many producers enqueue, one
//! worker drains in batches. The queue is *bounded*: [`try_push`] refuses
//! (and counts a shed) when full, giving callers the `Overloaded`
//! backpressure contract instead of unbounded buffering, while [`push`]
//! blocks until space frees for lossless replay.
//!
//! [`try_push`]: BoundedQueue::try_push
//! [`push`]: BoundedQueue::push

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (counted into the shed total).
    Full,
    /// The queue was [closed](BoundedQueue::close); no further requests
    /// are accepted.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue drained in batches by shard workers.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Maximum queue depth ever observed at enqueue time.
    high_water: AtomicU64,
    /// Enqueues refused because the queue was full.
    shed: AtomicU64,
    /// Portion of `shed` already flushed into scoped counters.
    shed_flushed: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` requests.
    ///
    /// # Panics
    /// If `capacity == 0` (the service validates this at construction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            high_water: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_flushed: AtomicU64::new(0),
        }
    }

    /// Enqueues without blocking. [`PushError::Full`] sheds the request
    /// (counted; the item is handed back), [`PushError::Closed`] means the
    /// service is shutting down.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        if st.closed {
            return Err((item, PushError::Closed));
        }
        if st.items.len() >= self.capacity {
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err((item, PushError::Full));
        }
        st.items.push_back(item);
        let depth = st.items.len() as u64;
        drop(st);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is full. Only fails with
    /// [`PushError::Closed`].
    pub fn push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            if st.closed {
                return Err((item, PushError::Closed));
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                let depth = st.items.len() as u64;
                drop(st);
                self.high_water.fetch_max(depth, Ordering::Relaxed);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).expect("queue lock poisoned");
        }
    }

    /// Drains up to `max` queued requests, blocking while the queue is
    /// empty and open. An empty batch means the queue is closed **and**
    /// fully drained — the worker's signal to exit.
    pub fn drain(&self, max: usize) -> Vec<T> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        while st.items.is_empty() && !st.closed {
            st = self.not_empty.wait(st).expect("queue lock poisoned");
        }
        let take = st.items.len().min(max);
        let batch: Vec<T> = st.items.drain(..take).collect();
        drop(st);
        if !batch.is_empty() {
            self.not_full.notify_all();
        }
        batch
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`];
    /// already-queued requests remain drainable (graceful shutdown).
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum queue depth observed at enqueue time.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Total requests shed ([`try_push`](Self::try_push) on a full queue).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Sheds not yet reported through this method — the worker flushes the
    /// delta into its scoped `shed_requests` counter each drain.
    pub fn take_shed(&self) -> u64 {
        let total = self.shed.load(Ordering::Relaxed);
        let prev = self.shed_flushed.swap(total, Ordering::Relaxed);
        total - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_and_counts() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, err) = q.try_push(3).unwrap_err();
        assert_eq!((item, err), (3, PushError::Full));
        assert_eq!(q.shed(), 1);
        assert_eq!(q.take_shed(), 1);
        assert_eq!(q.take_shed(), 0, "flushed sheds are not re-reported");
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn drain_batches_in_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain(3), vec![0, 1, 2]);
        assert_eq!(q.drain(usize::MAX), vec![3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_the_backlog() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err((8, PushError::Closed))));
        assert!(matches!(q.push(9), Err((9, PushError::Closed))));
        assert_eq!(q.drain(usize::MAX), vec![7]);
        assert_eq!(q.drain(usize::MAX), Vec::<i32>::new(), "closed + drained");
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is blocked on the full queue until this drain.
        assert_eq!(q.drain(1), vec![0]);
        assert!(producer.join().unwrap());
        assert_eq!(q.drain(1), vec![1]);
    }
}
