//! Persistent per-shard ingest workers.
//!
//! Spawning one scoped OS thread per shard *per batch* does not pay:
//! at daemon batch rates (thousands of batches per window) the
//! spawn/join cost dominates. A [`WorkerPool`] instead
//! keeps one long-lived thread per shard, fed through a bounded
//! per-shard queue of pre-hashed buckets. Each worker owns exclusive
//! responsibility for one shard tree (shared as `Arc<Mutex<FlowTree>>`
//! so readers can fold after a drain), applies buckets strictly in
//! submission order, and acknowledges barriers only after every earlier
//! bucket has been applied.
//!
//! Determinism: per shard there is exactly one consumer draining a FIFO
//! queue, so buckets land in submission order — the same order the
//! sequential path applies them — and `fold`/`into_tree` after a
//! [`WorkerPool::drain`] is byte-identical to sequential ingest. The
//! bounded queue gives backpressure instead of unbounded buffering when
//! producers outrun the shards.

use crossbeam::channel::{bounded, Receiver, Sender};
use flowkey::FlowKey;
use flowtree_core::{FlowTree, Popularity};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One pre-hashed, shard-routed slice of a batch.
pub(crate) type Bucket = Vec<(u64, FlowKey, Popularity)>;

/// Buckets a shard queue may hold before submitters block
/// (backpressure, not unbounded memory). Deep enough that a producer
/// briefly outrunning a shard does not rendezvous-stall on every
/// submit — the 4-deep queue this replaces showed up directly in the
/// BENCH_ingest.json shard-degradation rows — while still bounding
/// buffered buckets per shard to a few batches.
const QUEUE_DEPTH: usize = 16;

#[derive(Debug)]
enum Job {
    /// Apply this bucket to the shard tree.
    Insert(Bucket),
    /// Acknowledge once every job submitted before this one is applied.
    Barrier(Sender<()>),
}

/// A pool of persistent shard workers: thread `i` drains the queue for
/// shard `i` into its tree.
pub(crate) struct WorkerPool {
    queues: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one worker per tree. Workers run until the pool is
    /// dropped; dropping joins them after their queues empty. With
    /// `pin` set, worker `i` pins itself to core `i` (modulo online
    /// CPUs) — best-effort, a failed affinity call leaves the worker
    /// floating.
    pub(crate) fn spawn(trees: &[Arc<Mutex<FlowTree>>], pin: bool) -> WorkerPool {
        let mut queues = Vec::with_capacity(trees.len());
        let mut handles = Vec::with_capacity(trees.len());
        for (i, tree) in trees.iter().enumerate() {
            let (tx, rx) = bounded::<Job>(QUEUE_DEPTH);
            let tree = Arc::clone(tree);
            handles.push(std::thread::spawn(move || {
                if pin {
                    crate::sockopt::pin_current_thread(i);
                }
                worker_loop(&tree, &rx)
            }));
            queues.push(tx);
        }
        WorkerPool { queues, handles }
    }

    /// Queues `bucket` for shard `shard`; blocks when that shard's
    /// queue is full.
    pub(crate) fn submit(&self, shard: usize, bucket: Bucket) {
        self.queues[shard]
            .send(Job::Insert(bucket))
            .expect("shard worker alive");
    }

    /// Blocks until every bucket queued so far — on every shard — has
    /// been applied. After this returns, reading the shard trees sees
    /// exactly the sequential-ingest state.
    pub(crate) fn drain(&self) {
        let (ack_tx, ack_rx) = bounded::<()>(self.queues.len());
        for q in &self.queues {
            q.send(Job::Barrier(ack_tx.clone()))
                .expect("shard worker alive");
        }
        drop(ack_tx);
        for _ in 0..self.queues.len() {
            ack_rx.recv().expect("shard worker acknowledges barrier");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queues ends each worker loop after it finishes
        // the buckets already queued; then join for a clean shutdown.
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl core::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

fn worker_loop(tree: &Mutex<FlowTree>, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Insert(mut bucket) => {
                let mut t = tree.lock().expect("shard tree lock");
                t.insert_batch_prehashed(&mut bucket);
                // Opportunistically coalesce: apply whatever else is
                // already queued under the same lock acquisition.
                // FIFO order is preserved, so this changes nothing
                // about the result — only the lock traffic.
                loop {
                    match rx.try_recv() {
                        Ok(Job::Insert(mut next)) => t.insert_batch_prehashed(&mut next),
                        Ok(Job::Barrier(ack)) => {
                            // Everything before it has been applied;
                            // the ack channel is sized to never block.
                            let _ = ack.send(());
                        }
                        // Empty or Disconnected: back to blocking recv,
                        // which also settles shutdown.
                        Err(_) => break,
                    }
                }
            }
            Job::Barrier(ack) => {
                // FIFO queue + single consumer: everything submitted
                // before this barrier has been applied already.
                let _ = ack.send(());
            }
        }
    }
}
