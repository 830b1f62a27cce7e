//! Real-concurrency runtime: the commit queue, the condvars and the
//! background worker pool.
//!
//! In simulation mode the engine is single-threaded: each write commits
//! as a group of one on the calling thread, and background work runs
//! eagerly with its effects installed at virtual instants. When a
//! [`Db`](crate::Db) is opened against a wall clock (see `Db::builder`
//! with a non-sim `HardwareEnv`), it also gets a `Runtime`: writers
//! coalesce through a leader-based commit queue, and a pool of OS worker
//! threads executes flushes and compactions off the foreground path.
//!
//! The types here are deliberately free of engine logic: the commit steps
//! and the job claim/build/install steps live in `db.rs`, shared by both
//! modes, and the WAL record format lives in `batch.rs`. This module owns
//! only the queueing, signalling, and lifecycle (worker spawn/join)
//! mechanics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::batch::PreparedWrite;
use crate::error::Error;

/// FIFO queue of writes awaiting commit, drained in groups by a leader.
///
/// Ids are assigned contiguously at enqueue time and the leader always
/// drains from the front, so the front of `pending` has id
/// `next_id - pending.len()`, and `completed` is a watermark: every id
/// below it has either committed or failed (failed ids park their error
/// in `failures` until the owner collects it).
#[derive(Default)]
pub(crate) struct CommitQueue {
    /// Writes not yet taken by a leader, in id order.
    pub pending: VecDeque<PreparedWrite>,
    /// Id the next enqueued write receives.
    pub next_id: u64,
    /// All ids `< completed` are finished.
    pub completed: u64,
    /// Whether some thread is currently committing a group.
    pub leader_active: bool,
    /// Errors for completed-but-failed ids, awaiting pickup.
    pub failures: Vec<(u64, Error)>,
}

impl CommitQueue {
    /// Removes and returns the parked error for `id`, if it failed.
    pub fn take_failure(&mut self, id: u64) -> Option<Error> {
        let at = self.failures.iter().position(|(fid, _)| *fid == id)?;
        Some(self.failures.swap_remove(at).1)
    }
}

/// Signalling shared between the worker pool and the rest of the engine.
///
/// Workers hold only this (plus a `Weak` handle to the engine), so the
/// pool never keeps the database alive on its own.
#[derive(Default)]
pub(crate) struct BgShared {
    /// Monotonic work-arrival counter; bumped by [`kick`](Self::kick).
    work: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl BgShared {
    /// Announces that background work may be available.
    pub fn kick(&self) {
        *self.work.lock() += 1;
        self.cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the work counter moves past `last_seen`, shutdown is
    /// requested, or `timeout` elapses. Returns the current counter.
    pub fn wait_for_work(&self, last_seen: u64, timeout: Duration) -> u64 {
        let mut work = self.work.lock();
        if *work == last_seen && !self.is_shutdown() {
            self.cv.wait_for(&mut work, timeout);
        }
        *work
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Touch the mutex so a worker between its shutdown check and its
        // wait cannot miss the wake.
        let _work = self.work.lock();
        self.cv.notify_all();
    }
}

/// A counting permit budget for background jobs, shared by the shards of
/// a sharded database so N independent trees respect one global
/// `max_background_jobs` limit instead of N times it.
///
/// Fairness comes from permit granularity: a worker takes one permit per
/// job and releases it when the job installs, so no shard can hold the
/// whole budget longer than its currently running jobs.
///
/// The budget is tracked as `capacity` minus `in_use` (rather than one
/// free-permit counter) so live retuning can resize it: shrinking a
/// free-counter below the permits currently out would underflow, whereas
/// a capacity store simply stops new acquires until enough jobs finish.
#[derive(Debug)]
pub(crate) struct JobBudget {
    capacity: AtomicU64,
    in_use: AtomicU64,
}

impl JobBudget {
    /// Creates a budget with `permits` concurrent job slots.
    pub fn new(permits: usize) -> Self {
        JobBudget {
            capacity: AtomicU64::new(permits as u64),
            in_use: AtomicU64::new(0),
        }
    }

    /// Takes one permit; `false` when the budget is exhausted.
    pub fn try_acquire(&self) -> bool {
        let cap = self.capacity.load(Ordering::Acquire);
        self.in_use
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// Returns one permit.
    pub fn release(&self) {
        self.in_use.fetch_sub(1, Ordering::AcqRel);
    }

    /// Resizes the budget (live retuning of `max_background_jobs`). Jobs
    /// already running are never cancelled; a shrink just blocks new
    /// acquires until `in_use` drains below the new capacity.
    pub fn set_capacity(&self, permits: usize) {
        self.capacity.store(permits as u64, Ordering::Release);
    }
}

/// Per-database concurrency state for wall-clock (real) execution mode.
/// Workers are spawned and registered by the engine.
#[derive(Default)]
pub(crate) struct Runtime {
    /// Group-commit queue; writers park here and a leader drains it.
    pub commit: Mutex<CommitQueue>,
    /// Wakes queued writers when a group completes.
    pub commit_cv: Condvar,
    /// Wakes foreground threads waiting on background progress. Paired
    /// with the engine's state mutex; all waits use timeouts, so
    /// notifying without that mutex held is safe.
    pub done_cv: Condvar,
    /// Worker-pool signalling.
    pub bg: Arc<BgShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Runtime {
    /// Registers a spawned worker handle for join-at-drop.
    pub fn register_worker(&self, handle: JoinHandle<()>) {
        self.workers.lock().push(handle);
    }

    /// Number of workers spawned so far (live retuning grows the pool
    /// when `max_background_jobs` is raised).
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Signals shutdown and joins all workers (skipping the current
    /// thread: the last `Arc` holding the database may be dropped *by* a
    /// worker, which must not join itself).
    pub fn shutdown_and_join(&self) {
        self.bg.request_shutdown();
        let handles = std::mem::take(&mut *self.workers.lock());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}
