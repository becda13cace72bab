//! Offline stand-in for the `crossbeam` crate (see the note in
//! `shims/parking_lot`): the [`deque`] module re-creates the
//! work-stealing `Injector`/`Worker`/`Stealer` trio over locked
//! [`std::collections::VecDeque`]s. Only the surface the workspace uses
//! is provided; the semantics (FIFO injector, per-worker queues, batch
//! stealing) match the real crate, the lock-free internals do not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deque {
    //! Work-stealing deques: a shared FIFO [`Injector`], per-worker
    //! [`Worker`] queues, and [`Stealer`] handles that move work between
    //! them. API-compatible with `crossbeam::deque` for the operations
    //! the workspace uses (`new_fifo`, `push`, `pop`, `stealer`,
    //! `steal`, `steal_batch_and_pop`).

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Result of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The source queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race; try again. (The locked shim never
        /// actually returns this, but callers written against the real
        /// crate handle it.)
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                _ => None,
            }
        }

        /// Whether this attempt should be retried.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        /// Whether the source was empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// A global FIFO queue every worker can push to and steal from.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> std::fmt::Debug for Injector<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Injector")
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Appends a task at the back.
        pub fn push(&self, task: T) {
            self.queue.lock().expect("injector lock").push_back(task);
        }

        /// Whether no tasks are queued right now.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().expect("injector lock").is_empty()
        }

        /// Steals one task from the front.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.lock().expect("injector lock").pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// Moves a batch of tasks (about half the queue) into `dest` and
        /// pops one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut queue = self.queue.lock().expect("injector lock");
            let take = queue.len().div_ceil(2).min(32);
            if take == 0 {
                return Steal::Empty;
            }
            let mut grabbed: VecDeque<T> = queue.drain(..take).collect();
            drop(queue);
            let first = grabbed.pop_front().expect("take >= 1");
            let mut dest_queue = dest.queue.lock().expect("worker lock");
            dest_queue.extend(grabbed);
            Steal::Success(first)
        }
    }

    /// A worker-owned FIFO queue. Other threads reach it through
    /// [`Stealer`] handles.
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> std::fmt::Debug for Worker<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Worker")
        }
    }

    impl<T> Worker<T> {
        /// Creates an empty FIFO worker queue.
        pub fn new_fifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Appends a task at the back.
        pub fn push(&self, task: T) {
            self.queue.lock().expect("worker lock").push_back(task);
        }

        /// Takes the next task from the front (FIFO order).
        pub fn pop(&self) -> Option<T> {
            self.queue.lock().expect("worker lock").pop_front()
        }

        /// Whether the queue is empty right now.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().expect("worker lock").is_empty()
        }

        /// A handle other threads can steal from.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A handle for stealing tasks from another worker's queue.
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> std::fmt::Debug for Stealer<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Stealer")
        }
    }

    impl<T> Stealer<T> {
        /// Steals one task from the front of the victim's queue.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.lock().expect("stealer lock").pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// Moves a batch from the victim into `dest` and pops one task.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut queue = self.queue.lock().expect("stealer lock");
            let take = queue.len().div_ceil(2).min(32);
            if take == 0 {
                return Steal::Empty;
            }
            let mut grabbed: VecDeque<T> = queue.drain(..take).collect();
            drop(queue);
            let first = grabbed.pop_front().expect("take >= 1");
            let mut dest_queue = dest.queue.lock().expect("worker lock");
            dest_queue.extend(grabbed);
            Steal::Success(first)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn worker_is_fifo_and_stealable() {
            let w = Worker::new_fifo();
            w.push(1);
            w.push(2);
            w.push(3);
            let s = w.stealer();
            assert_eq!(s.steal(), Steal::Success(1));
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), Some(3));
            assert_eq!(w.pop(), None);
            assert_eq!(s.steal(), Steal::Empty);
        }

        #[test]
        fn injector_batch_steal_moves_half() {
            let inj = Injector::new();
            for n in 0..10 {
                inj.push(n);
            }
            let w = Worker::new_fifo();
            assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
            // Half of 10 = 5 taken; one popped, four land in the worker.
            let mut local = Vec::new();
            while let Some(n) = w.pop() {
                local.push(n);
            }
            assert_eq!(local, vec![1, 2, 3, 4]);
            assert!(!inj.is_empty());
        }

        #[test]
        fn steal_across_threads_covers_every_task() {
            let inj = Arc::new(Injector::new());
            for n in 0..1000u64 {
                inj.push(n);
            }
            let total = Arc::new(Mutex::new(0u64));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let inj = Arc::clone(&inj);
                let total = Arc::clone(&total);
                handles.push(std::thread::spawn(move || {
                    let w = Worker::new_fifo();
                    let mut sum = 0u64;
                    loop {
                        let task = w.pop().or_else(|| loop {
                            match inj.steal_batch_and_pop(&w) {
                                Steal::Success(t) => break Some(t),
                                Steal::Empty => break None,
                                Steal::Retry => continue,
                            }
                        });
                        match task {
                            Some(t) => sum += t,
                            None => break,
                        }
                    }
                    *total.lock().unwrap() += sum;
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*total.lock().unwrap(), 999 * 1000 / 2);
        }
    }
}
