//! The work-stealing worker pool behind [`Driver::WorkSteal`] and
//! [`Driver::BoundedAsync`].
//!
//! The pool keeps a **fixed set of workers alive for the whole run** and
//! hands them node epochs through per-worker deques with work stealing,
//! so a worker that finishes its share early drains its neighbours'
//! backlogs instead of idling at the barrier, and nothing is re-spawned
//! or re-partitioned per epoch. One worker is the sequential schedule.
//!
//! # Determinism
//! Scheduling order is *not* deterministic — which worker runs which node
//! epoch, and when, depends on timing. Results still are, bit-for-bit,
//! because the phase structure makes execution order unobservable:
//!
//! * node epochs within one phase are **mutually independent** — each
//!   [`Node`] owns its RNG, store and model, and its inbox was fully
//!   drained before the phase started;
//! * every claimed index is executed by exactly one worker, and its
//!   output lands in that node's slot (keyed by node id, not by
//!   completion order);
//! * the driver applies outgoing sends **after the phase barrier, in
//!   canonical node order** — the same order the sequential driver uses.
//!
//! `tests/cross_backend.rs` and `tests/golden_trace.rs` hold every
//! worker count bit-identical to one worker and to
//! [`Driver::ThreadPerNode`] across backends, native and SGX, with and
//! without fault plans.
//!
//! Everything here is hand-rolled over `std::sync` primitives (mutexed
//! deques, two reusable barriers, an atomic stop flag) — the container
//! environment has no registry access, so no external executor crates.
//!
//! [`Driver::WorkSteal`]: crate::engine::Driver::WorkSteal
//! [`Driver::BoundedAsync`]: crate::engine::Driver::BoundedAsync
//! [`Driver::ThreadPerNode`]: crate::engine::Driver::ThreadPerNode

use crate::node::{EpochReport, Node};
use rex_ml::Model;
use rex_net::mem::Envelope;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// What one node's epoch hands back: encoded outgoing `(dest, bytes)`
/// pairs plus the report.
type Output = (Vec<(usize, Vec<u8>)>, EpochReport);

/// One node's work cell: the node itself (owned by the pool for the whole
/// run), the epoch's staged input, and the epoch's result. Workers lock
/// exactly the cells they claimed, so cross-slot contention is zero.
struct Slot<M: Model> {
    node: Node<M>,
    inbox: Vec<Envelope>,
    output: Option<Output>,
}

/// Fixed-size work-stealing pool over a fleet of nodes. See module docs.
pub(crate) struct WorkStealPool<M: Model> {
    slots: Vec<Mutex<Slot<M>>>,
    /// Per-worker deques of node indices; owners pop the front, thieves
    /// steal from the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Phase-start barrier (workers + the driver thread).
    start: Barrier,
    /// Phase-end barrier (workers + the driver thread).
    done: Barrier,
    stop: AtomicBool,
    /// First panic caught inside a node epoch, as a message for the
    /// driver to re-raise — a raw unwind on a worker would strand the
    /// phase barriers and deadlock the run instead of failing it.
    failed: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic propagates through the scope join; recovering the
    // guard here keeps the unwind path from double-panicking.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<M: Model> WorkStealPool<M> {
    /// Takes ownership of the fleet for the run. `workers` must be ≥ 1.
    pub(crate) fn new(fleet: Vec<Node<M>>, workers: usize) -> Self {
        assert!(workers >= 1, "pool needs at least one worker");
        WorkStealPool {
            slots: fleet
                .into_iter()
                .map(|node| {
                    Mutex::new(Slot {
                        node,
                        inbox: Vec::new(),
                        output: None,
                    })
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            start: Barrier::new(workers + 1),
            done: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
            failed: Mutex::new(None),
        }
    }

    /// Number of workers.
    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Stages one node's epoch input (driver thread, between phases).
    pub(crate) fn load(&self, id: usize, inbox: Vec<Envelope>) {
        let mut slot = lock(&self.slots[id]);
        slot.inbox = inbox;
        slot.output = None;
    }

    /// Distributes the epoch's live node indices over the worker deques
    /// in contiguous runs (locality for the common uncontended case) and
    /// runs one phase to completion: every index claimed exactly once,
    /// every claimed epoch executed before the phase barrier releases.
    pub(crate) fn run_phase(&self, live: &[usize]) {
        let per_worker = live.len().div_ceil(self.workers()).max(1);
        for (w, chunk) in live.chunks(per_worker).enumerate() {
            lock(&self.queues[w]).extend(chunk.iter().copied());
        }
        self.start.wait();
        self.done.wait();
    }

    /// Takes node `id`'s output of the last phase (`None` if it sat the
    /// epoch out).
    pub(crate) fn take_output(&self, id: usize) -> Option<Output> {
        lock(&self.slots[id]).output.take()
    }

    /// Runs `f` on node `id` (driver thread, between phases — no worker
    /// holds a slot then). Membership view transitions rewire neighbour
    /// lists and install late-attested sessions through this.
    pub(crate) fn with_node<R>(&self, id: usize, f: impl FnOnce(&mut Node<M>) -> R) -> R {
        f(&mut lock(&self.slots[id]).node)
    }

    /// Re-raises a panic a worker caught during the last phase, on the
    /// driver thread. Call after [`Self::run_phase`].
    pub(crate) fn check_panic(&self) {
        if let Some(msg) = lock(&self.failed).take() {
            panic!("{msg}");
        }
    }

    /// Releases the workers out of their run loop. Idempotent, and safe
    /// to call from a `Drop` guard during an unwind: the workers are
    /// parked at the start barrier between phases, so waiting it once
    /// with the stop flag raised lets every worker exit and the scope
    /// join succeed instead of deadlocking.
    pub(crate) fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.start.wait();
    }

    /// Hands the (trained) fleet back, in node order.
    pub(crate) fn into_nodes(self) -> Vec<Node<M>> {
        self.slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .node
            })
            .collect()
    }

    /// The worker run loop: park at the start barrier, drain work, park
    /// at the done barrier; exit when the stop flag is raised.
    pub(crate) fn worker_loop(&self, w: usize) {
        loop {
            self.start.wait();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            self.drain(w);
            // All deques are empty. In-flight claims belong to the
            // workers that made them, each of which finishes its claimed
            // epoch before reaching this barrier — so the phase is
            // complete when the barrier releases.
            self.done.wait();
        }
    }

    /// Claims and executes node epochs until no work is left. A panic
    /// inside an epoch is caught (the worker must survive to serve the
    /// phase barriers, or the whole run deadlocks), recorded for
    /// [`Self::check_panic`], and aborts this phase's remaining queue.
    fn drain(&self, w: usize) {
        while let Some(id) = self.claim(w) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut slot = lock(&self.slots[id]);
                let slot = &mut *slot;
                let inbox = std::mem::take(&mut slot.inbox);
                slot.output = Some(slot.node.epoch(inbox));
            }));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let mut failed = lock(&self.failed);
                if failed.is_none() {
                    *failed = Some(format!("node {id} epoch panicked: {msg}"));
                }
                drop(failed);
                // The run is over; stop other workers from burning
                // through the rest of the phase.
                for queue in &self.queues {
                    lock(queue).clear();
                }
                return;
            }
        }
    }

    /// Claims the next node index: own deque front first, then steal from
    /// the other workers' backs.
    fn claim(&self, w: usize) -> Option<usize> {
        if let Some(id) = lock(&self.queues[w]).pop_front() {
            return Some(id);
        }
        for offset in 1..self.workers() {
            let victim = (w + offset) % self.workers();
            if let Some(id) = lock(&self.queues[victim]).pop_back() {
                return Some(id);
            }
        }
        None
    }
}

/// Shuts the pool down when dropped — including during a driver-thread
/// unwind (a transport failure, a re-raised worker panic), which would
/// otherwise leave the workers parked at the start barrier and turn the
/// scope join into a deadlock. [`WorkStealPool::shutdown`] is idempotent,
/// so the normal exit path needs no special casing.
pub(crate) struct ShutdownGuard<'a, M: Model>(pub(crate) &'a WorkStealPool<M>);

impl<M: Model> Drop for ShutdownGuard<'_, M> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_mf_nodes, NodeSeeds};
    use crate::config::ProtocolConfig;
    use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
    use rex_ml::{MfHyperParams, MfModel};
    use rex_topology::TopologySpec;

    fn tiny_fleet(n: usize) -> Vec<Node<MfModel>> {
        let ds = SyntheticConfig {
            num_users: (2 * n) as u32,
            num_items: 60,
            num_ratings: 50 * n,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 2);
        let part = Partition::multi_user(&split, n);
        let graph = TopologySpec::Ring.build(n, 1);
        build_mf_nodes(
            &part,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig {
                points_per_epoch: 10,
                steps_per_epoch: 30,
                ..ProtocolConfig::default()
            },
            NodeSeeds::default(),
        )
    }

    /// One phase over every node, any worker count, must produce exactly
    /// the per-node outputs the sequential loop produces.
    #[test]
    fn phase_outputs_match_sequential_for_any_worker_count() {
        let n = 7;
        let mut reference = tiny_fleet(n);
        let expected: Vec<Output> = reference
            .iter_mut()
            .map(|node| node.epoch(Vec::new()))
            .collect();

        for workers in [1, 2, 3, 8] {
            let pool = WorkStealPool::new(tiny_fleet(n), workers);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let pool = &pool;
                    scope.spawn(move || pool.worker_loop(w));
                }
                for id in 0..n {
                    pool.load(id, Vec::new());
                }
                let live: Vec<usize> = (0..n).collect();
                pool.run_phase(&live);
                for (id, want) in expected.iter().enumerate() {
                    let (out, report) = pool.take_output(id).expect("live node has output");
                    assert_eq!(&out, &want.0, "workers={workers} node={id}");
                    assert_eq!(
                        report.rmse.map(f64::to_bits),
                        want.1.rmse.map(f64::to_bits),
                        "workers={workers} node={id}"
                    );
                }
                pool.shutdown();
            });
        }
    }

    /// A panic inside a node epoch must surface on the driver thread as
    /// a panic — never as a barrier deadlock.
    #[test]
    fn worker_panic_is_reraised_by_the_driver_not_deadlocked() {
        let n = 4;
        let pool = WorkStealPool::new(tiny_fleet(n), 2);
        let caught = std::thread::scope(|scope| {
            for w in 0..2 {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            let _guard = ShutdownGuard(&pool);
            // Feed node 2 an inbox that makes MfModel::merge panic: a
            // validly encoded model with incompatible dimensions.
            use rex_ml::Model;
            let alien = MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1).to_bytes();
            let bytes = rex_net::codec::encode_payload(&rex_net::message::Payload::Clear(
                rex_net::codec::encode_plain(&rex_net::message::Plain::Model {
                    bytes: alien,
                    degree: 1,
                }),
            ));
            for id in 0..n {
                let inbox = if id == 2 {
                    vec![rex_net::mem::Envelope {
                        from: 1,
                        bytes: bytes.clone(),
                    }]
                } else {
                    Vec::new()
                };
                pool.load(id, inbox);
            }
            let live: Vec<usize> = (0..n).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_phase(&live);
                pool.check_panic();
            }));
            outcome.expect_err("incompatible merge must fail the run")
        });
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("node 2 epoch panicked"),
            "unexpected panic message: {msg}"
        );
    }

    /// Nodes left out of a phase (crash-stopped) produce no output, and
    /// the fleet comes back out in node order.
    #[test]
    fn skipped_nodes_have_no_output_and_fleet_returns_in_order() {
        let n = 5;
        let pool = WorkStealPool::new(tiny_fleet(n), 2);
        std::thread::scope(|scope| {
            for w in 0..2 {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            for id in 0..n {
                pool.load(id, Vec::new());
            }
            pool.run_phase(&[0, 2, 4]);
            assert!(pool.take_output(0).is_some());
            assert!(pool.take_output(1).is_none());
            assert!(pool.take_output(3).is_none());
            assert!(pool.take_output(4).is_some());
            pool.shutdown();
        });
        let fleet = pool.into_nodes();
        assert_eq!(fleet.len(), n);
        for (i, node) in fleet.iter().enumerate() {
            assert_eq!(node.id(), i);
        }
    }
}
