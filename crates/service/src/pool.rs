//! A fixed-size worker pool over one bounded job queue.
//!
//! Plain `std::thread` + one `Mutex<VecDeque>` + one `Condvar`; no
//! external dependencies. Every worker serves the same queue, and each
//! submission wakes one idle worker, so a job never waits while a worker
//! is idle. The queue bound is the service's back-pressure signal:
//! [`WorkerPool::submit`] never blocks — when the pool holds
//! `queue_capacity` waiting jobs it hands the job *back* to the caller,
//! which degrades to the greedy fallback instead of waiting. Dropping
//! the pool shuts it down: queued jobs are discarded (their cache
//! reservations resolve as abandoned on drop) and workers are joined.

use crate::sync;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    waiting: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    jobs: Mutex<Queue>,
    available: Condvar,
    capacity: usize,
}

/// Fixed-size thread pool with bounded, non-blocking submission.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads serving one queue of at most
    /// `queue_capacity` waiting jobs (0 is allowed: every submission is
    /// rejected).
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        assert!(workers >= 1, "a worker pool needs at least one thread");
        let shared = Arc::new(Shared {
            jobs: Mutex::new(Queue { waiting: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            capacity: queue_capacity,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("blitz-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("spawning blitz-worker-{i}: {e}"))
            })
            .collect();
        WorkerPool { shared, workers: handles }
    }

    /// Enqueue `job`, or return it unchanged when the pool already
    /// holds `queue_capacity` waiting jobs (or is shutting down). Never
    /// blocks.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        {
            let mut queue = sync::lock(&self.shared.jobs);
            if queue.shutdown || queue.waiting.len() >= self.shared.capacity {
                return Err(job);
            }
            queue.waiting.push_back(job);
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Number of jobs currently waiting (not counting ones being run).
    pub fn depth(&self) -> usize {
        sync::lock(&self.shared.jobs).waiting.len()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = sync::lock(&shared.jobs);
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(job) = queue.waiting.pop_front() {
                    break job;
                }
                queue = sync::wait(&shared.available, queue);
            }
        };
        job();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Discarded jobs drop outside the queue lock: a job owns a cache
        // reservation whose drop wakes that entry's waiters.
        let discarded = {
            let mut queue = sync::lock(&self.shared.jobs);
            queue.shutdown = true;
            std::mem::take(&mut queue.waiting)
        };
        drop(discarded);
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let ran = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }))
            .ok()
            .unwrap();
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn zero_capacity_rejects_while_worker_is_busy() {
        let pool = WorkerPool::new(1, 0);
        // Even an idle pool rejects: submit only succeeds by queueing,
        // and the queue holds nothing.
        let rejected = pool.submit(Box::new(|| {}));
        assert!(rejected.is_err());
    }

    #[test]
    fn bounded_queue_hands_job_back() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker indefinitely.
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
        }))
        .ok();
        // Eventually the worker has taken the blocker and one more job
        // fits in the queue; the next one after that must bounce.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut queued = false;
        while Instant::now() < deadline {
            if pool.submit(Box::new(|| {})).is_ok() {
                queued = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(queued, "queue slot never freed");
        // Queue now holds 1 job (the worker is still blocked) — full.
        assert!(pool.submit(Box::new(|| {})).is_err());
        block_tx.send(()).unwrap();
    }

    /// With one worker pinned by a slow job, each job submitted after it
    /// starts on the idle worker at once. The sharded pool this replaced
    /// left every other such job on the pinned worker's shard until the
    /// idle one woke from a 10 ms park: 32 jobs took ≥ 160 ms there.
    #[test]
    fn idle_worker_starts_a_job_while_its_sibling_is_pinned() {
        const JOBS: usize = 32;
        let pool = WorkerPool::new(2, 16);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = block_rx.recv();
        }))
        .ok()
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // One at a time, so every job finds the idle worker parked. A
        // loaded host may delay a wake-up, so the best of three rounds
        // counts; a park timeout would slow every round alike.
        let (done_tx, done_rx) = mpsc::channel();
        let round = || {
            let began = Instant::now();
            for _ in 0..JOBS {
                let done_tx = done_tx.clone();
                pool.submit(Box::new(move || done_tx.send(()).unwrap())).ok().unwrap();
                done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            }
            began.elapsed()
        };
        let best = (0..3).map(|_| round()).min().unwrap();
        assert!(best < Duration::from_millis(100), "{JOBS} jobs took {best:?} beside a busy one");
        assert_eq!(pool.depth(), 0);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3, 8);
        pool.submit(Box::new(|| {})).ok();
        drop(pool); // must not hang
    }
}
