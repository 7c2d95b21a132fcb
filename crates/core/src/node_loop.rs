//! The per-node round loop: one node running Algorithm 2 over its own
//! [`Endpoint`].
//!
//! Each epoch is a view transition (when the epoch opens one), a drain, a
//! drain barrier, merge→train→share→test, the sends, and a round
//! barrier. [`run_node_loop`] is the only implementation of that round in
//! the workspace. The engine's [`Driver::ThreadPerNode`] runs it on one
//! scoped thread per node, and the `rex-node` binary runs it once per OS
//! process. The barrier-free twin, [`run_node_loop_async`], sits next to
//! it.
//!
//! [`Driver::ThreadPerNode`]: crate::engine::Driver::ThreadPerNode

use crate::commitment::{verify_tag, EpochCommitment};
use crate::membership::{MembershipView, ViewTransition};
use crate::node::{EpochReport, Node};
use crate::serve::{snapshot_digest, ModelSnapshot, SnapshotQueue};
use crate::setup::TeeDirectory;
use rex_ml::Model;
use rex_net::codec::decode_payload;
use rex_net::fault::FaultPlan;
use rex_net::mem::Envelope;
use rex_net::message::Payload;
use rex_net::transport::{Endpoint, TransportError};
use rex_tee::attestation::AttestationMsg;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One epoch's outcome in the node loop: the local RMSE (as IEEE-754
/// bits; `None` when the node holds no test ratings or sat the epoch
/// out) and the signed model-digest commitment (`None` only when the
/// epoch did not execute — down, non-member, or departed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochOutcome {
    /// Local RMSE bits for the epoch.
    pub rmse_bits: Option<u64>,
    /// The epoch's chained commitment.
    pub commitment: Option<EpochCommitment>,
}

/// Wire-audit posture of a node loop: whether to ship and check signed
/// commitments, plus the protocol seed the commitment keys derive from
/// ([`crate::commitment::derive_key`]).
#[derive(Debug, Clone, Copy)]
pub struct WireAudit {
    /// Ship this node's signed commitments to its connected peers.
    pub broadcast: bool,
    /// HMAC-verify every commitment received from a peer.
    pub verify: bool,
    /// The cluster's shared protocol seed.
    pub seed: u64,
}

/// A member's admission check on the evidence a `Join` frame carried.
fn verify_evidence<M: Model>(
    dir: &TeeDirectory,
    node: &mut Node<M>,
    joiner: usize,
    epoch: usize,
    evidence: &[u8],
) -> Result<(), String> {
    let id = node.id();
    let payload = decode_payload(evidence)
        .map_err(|e| format!("node {id}: joiner {joiner} evidence undecodable: {e}"))?;
    let Payload::Attestation(AttestationMsg::Hello { quote }) = payload else {
        return Err(format!(
            "node {id}: joiner {joiner} evidence is not an attestation hello"
        ));
    };
    let own = node
        .enclave_mut()
        .ok_or_else(|| format!("node {id}: SGX admission without an enclave"))?;
    rex_tee::join::verify_joiner(dir.seed, epoch, joiner, &quote, &dir.dcap, own)
        .map_err(|e| format!("node {id}: joiner {joiner} failed admission: {e}"))
}

/// Applies the slice of one view transition that touches this node:
/// admission-check evidence the endpoint collected, rewire the local
/// neighbour list, install late-attested sessions on materializing edges,
/// and — when this node sponsors a joiner and is not crash-stopped this
/// epoch — send the raw-share state bootstrap.
fn apply_node_transition<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    t: &ViewTransition,
    bootstrap_points: usize,
    faults: Option<&FaultPlan>,
    tee: Option<&TeeDirectory>,
) -> Result<(), String> {
    let id = node.id();
    if let Some(dir) = tee {
        for &j in &t.joined {
            if j == id {
                continue;
            }
            // Evidence is present exactly when this endpoint admitted
            // the joiner's connection (the distributed TCP path); on
            // pre-connected fabrics there is no quote to check.
            if let Some(evidence) = endpoint.join_evidence(j) {
                verify_evidence(dir, node, j, t.epoch, &evidence)?;
            }
        }
    }
    for &(a, b) in &t.removed_edges {
        if a == id {
            node.remove_neighbor(b);
        } else if b == id {
            node.remove_neighbor(a);
        }
    }
    for &(a, b) in &t.added_edges {
        let peer = if a == id {
            Some(b)
        } else if b == id {
            Some(a)
        } else {
            None
        };
        let Some(peer) = peer else { continue };
        node.add_neighbor(peer);
        if let Some(dir) = tee {
            let measurement = node
                .enclave_mut()
                .ok_or_else(|| format!("node {id}: SGX rewire without an enclave"))?
                .measurement();
            let (sa, sb) = rex_tee::join::late_session_pair(dir.seed, t.epoch, a, b, measurement);
            node.install_session(peer, if a == id { sa } else { sb });
        }
    }
    for &(s, j) in &t.bootstraps {
        if s == id && bootstrap_points > 0 && !faults.is_some_and(|p| p.is_down(s, t.epoch)) {
            let bytes = node.bootstrap_for(j, bootstrap_points);
            endpoint.send(j, bytes);
        }
    }
    Ok(())
}

/// Drains the commitments the endpoint collected and, when the audit
/// posture asks for it, HMAC-checks each against the sender's derived
/// key. A bad tag is a protocol violation worth stopping the run for:
/// either the frame was forged or the peer's key material diverged.
fn drain_peer_commitments<E: Endpoint>(
    id: usize,
    audit: &WireAudit,
    endpoint: &mut E,
) -> Result<(), String> {
    for pc in endpoint.take_commitments() {
        if !audit.verify {
            continue;
        }
        let commitment = EpochCommitment {
            digest: pc.digest,
            tag: pc.tag,
        };
        if !verify_tag(audit.seed, pc.from, pc.epoch as usize, &commitment) {
            return Err(format!(
                "node {id}: commitment from node {} at epoch {} failed HMAC \
                 verification — replay it with `rex-node --challenge {}`",
                pc.from, pc.epoch, pc.from
            ));
        }
    }
    Ok(())
}

/// Publishes `node`'s current model into a serve queue as an immutable,
/// epoch-pinned snapshot. The clone is what makes mid-epoch tearing
/// structurally impossible: the serve thread only ever sees frozen
/// copies, never the trainer's live instance.
fn publish_snapshot<M: Model>(serve: Option<&SnapshotQueue<M>>, node: &Node<M>, epoch: usize) {
    if let Some(queue) = serve {
        let model = Arc::new(node.model().clone());
        let digest = snapshot_digest(model.as_ref());
        queue.publish(ModelSnapshot {
            epoch,
            model,
            digest,
        });
    }
}

/// The per-node round loop: view transition (when the epoch opens one),
/// drain, drain barrier, train, send, round barrier — the barriers being
/// the endpoint's [`Endpoint::try_drain_barrier`] and
/// [`Endpoint::try_sync`]. When `faults` schedules this node down for an
/// epoch it discards its inbox and sits the round out — while still
/// serving both barriers, which are infrastructure, not protocol. A node
/// outside the current membership view does the same (pre-connected
/// fabrics) until its join epoch. A node whose **own leave** opens an
/// epoch stops before any of that epoch's barriers — its peers retire it
/// at the same schedule point.
///
/// Runs epochs `start_epoch..epochs` and returns the per-epoch
/// [`EpochOutcome`] trace over exactly that range, ending early at a
/// graceful leave (default entries for down / non-member epochs). When
/// `audit` asks for it, each executed epoch's signed commitment is
/// broadcast as a control frame (keyed by the node's *chain index* —
/// its executed-epoch count, which is what the HMAC tag binds) and
/// every commitment received from a peer is drained and verified after
/// the round barrier. Calls `on_epoch` after each epoch with the epoch's
/// [`EpochReport`], or `None` when the node sat the epoch out.
///
/// When `serve` is given, every **member** epoch publishes an immutable
/// post-epoch model snapshot into it — including crash-window epochs
/// (the model is unchanged, but the epoch stream must stay contiguous),
/// and *not* non-member epochs — so an in-process joiner thread (which
/// serves barriers from epoch 0) publishes exactly the epochs a
/// late-dialing joiner process does, keeping serve digests identical
/// across deployment shapes.
///
/// # Errors
/// When the transport surfaces a peer failure ([`TransportError`]), SGX
/// admission fails, or a peer's commitment fails HMAC verification.
#[allow(clippy::too_many_arguments)]
pub fn run_node_loop<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    epochs: usize,
    start_epoch: usize,
    faults: Option<&FaultPlan>,
    mut view: Option<&mut MembershipView>,
    tee: Option<&TeeDirectory>,
    audit: Option<WireAudit>,
    serve: Option<&SnapshotQueue<M>>,
    mut on_epoch: impl FnMut(usize, Option<&EpochReport>),
) -> Result<Vec<EpochOutcome>, String> {
    let id = node.id();
    // Mirrors the node's internal chain index: node.epoch() is called
    // exactly once per executed epoch, and only from this loop.
    let mut executed: u64 = 0;
    fn barrier_err(
        id: usize,
        what: &'static str,
        epoch: usize,
    ) -> impl FnOnce(TransportError) -> String {
        move |e| format!("node {id}: {what} at epoch {epoch}: {e}")
    }
    let mut trace = Vec::with_capacity(epochs.saturating_sub(start_epoch));
    for epoch in start_epoch..epochs {
        endpoint.epoch_begin(epoch);
        if let Some(v) = view.as_deref_mut() {
            if let Some(t) = v.advance(epoch) {
                if t.left.contains(&id) {
                    // Graceful departure: peers retire this node at this
                    // exact schedule point; no further barriers.
                    break;
                }
                endpoint
                    .view_sync(epoch, &t.joined, &t.left)
                    .map_err(barrier_err(id, "view sync", epoch))?;
                apply_node_transition(node, endpoint, &t, v.plan().bootstrap_points, faults, tee)?;
                // The view barrier: sponsor bootstraps are delivered
                // before any member drains the epoch's inbox.
                endpoint
                    .try_sync()
                    .map_err(barrier_err(id, "view barrier", epoch))?;
            }
            if !v.is_member(id) {
                // Outside the view (a pre-connected fabric's future
                // joiner, or a node excluded as crash-dead): serve the
                // round's infrastructure barriers, run no protocol.
                let _ = endpoint.recv();
                endpoint
                    .try_drain_barrier()
                    .map_err(barrier_err(id, "drain barrier", epoch))?;
                endpoint
                    .try_sync()
                    .map_err(barrier_err(id, "round barrier", epoch))?;
                // Members broadcast while we serve barriers: drain (and
                // check) their commitments so the buffer stays bounded.
                if let Some(a) = &audit {
                    drain_peer_commitments(id, a, endpoint)?;
                }
                trace.push(EpochOutcome::default());
                on_epoch(epoch, None);
                continue;
            }
        }
        let inbox = endpoint.recv();
        let down = faults.is_some_and(|p| p.is_down(id, epoch));
        // Everyone drains before anyone sends, so a fast peer's epoch-e
        // message cannot land in a slow node's epoch-e inbox. This is
        // the barrier-only variant: fault wrappers must not release held
        // (delayed/reordered) messages here — that happens at the
        // post-send `try_sync`, where the engine's pooled
        // drivers release them too.
        endpoint
            .try_drain_barrier()
            .map_err(barrier_err(id, "drain barrier", epoch))?;
        let report = if down {
            drop(inbox);
            None
        } else {
            let (outgoing, report) = node.epoch(inbox);
            for (dest, bytes) in outgoing {
                endpoint.send(dest, bytes);
            }
            // The commitment rides the control plane alongside this
            // epoch's shares; per-link FIFO means it lands before the
            // peers' round barrier completes.
            if audit.is_some_and(|a| a.broadcast) {
                endpoint.send_commitment(executed, report.commitment.digest, report.commitment.tag);
            }
            executed += 1;
            Some(report)
        };
        // All of this epoch's sends are delivered before anyone drains
        // the next inbox.
        endpoint
            .try_sync()
            .map_err(barrier_err(id, "round barrier", epoch))?;
        if let Some(a) = &audit {
            drain_peer_commitments(id, a, endpoint)?;
        }
        trace.push(EpochOutcome {
            rmse_bits: report.and_then(|r| r.rmse).map(f64::to_bits),
            commitment: report.map(|r| r.commitment),
        });
        publish_snapshot(serve, node, epoch);
        on_epoch(epoch, report.as_ref());
    }
    Ok(trace)
}

/// How long a bounded-async node waits for the `k` neighbour shares
/// that gate an epoch before declaring the cluster wedged. Generous for
/// the same reason the barrier timeout is: slow CI machines, not
/// protocol latency, set the ceiling.
pub const ASYNC_EPOCH_TIMEOUT: Duration = Duration::from_secs(120);

/// The bounded-staleness node loop: no wire barriers at all. A node
/// proceeds into epoch `e ≥ 1` once shares from at least `min(k, degree)`
/// distinct neighbours are consumable, merging whatever has arrived in
/// canonical order (ascending sender, per-sender FIFO) and letting
/// stragglers' shares merge in a later epoch. Staleness is bounded
/// structurally: at epoch `e` at most `e` shares per sender have ever
/// been consumed (the *consumption cap*), so no node runs ahead of a
/// neighbour by more than the in-flight window, and a `k ≥ degree`
/// setting degenerates to lockstep's schedule without the barrier
/// syscalls.
///
/// Liveness needs every neighbour to send every epoch, which is why the
/// `rex-node` config layer pins this loop to D-PSGD and rejects fault
/// and membership plans: the minimum-epoch node always finds
/// `min(k, degree)` consumable shares, since each neighbour has
/// completed every epoch it is waiting on.
///
/// **The speed-vs-fidelity contract:** unlike every other path in this
/// repo, trajectories here are *not* bit-reproducible across runs on
/// real sockets — arrival timing decides how many consumable shares
/// (beyond the `k` floor, up to the cap) each epoch merges. The
/// engine's [`crate::engine::Driver::BoundedAsync`] is the deterministic
/// twin: a seeded arrival model with the same staleness rule, for
/// studying the trade reproducibly.
///
/// # Errors
/// When an epoch's share floor does not arrive within
/// [`ASYNC_EPOCH_TIMEOUT`], the transport fails a flush, or a peer's
/// commitment fails HMAC verification. Commitments are broadcast and
/// checked exactly as in [`run_node_loop`] — there is no barrier here,
/// so a peer's commitment may be drained an epoch late, but each frame
/// verifies statelessly against its own chain index.
pub fn run_node_loop_async<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    epochs: usize,
    k: usize,
    audit: Option<WireAudit>,
    serve: Option<&SnapshotQueue<M>>,
    mut on_epoch: impl FnMut(usize, Option<&EpochReport>),
) -> Result<Vec<EpochOutcome>, String> {
    let id = node.id();
    let neighbors: Vec<usize> = node.neighbors().to_vec();
    let width = neighbors.iter().copied().max().map_or(0, |m| m + 1);
    // Per-sender arrival queues (wire order = that sender's epoch order,
    // TCP is FIFO per link) and how many shares of each we consumed.
    let mut pending: Vec<VecDeque<Vec<u8>>> = vec![VecDeque::new(); width];
    let mut taken: Vec<usize> = vec![0; width];
    let mut trace = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        endpoint.epoch_begin(epoch);
        let required = if epoch == 0 {
            0 // Nobody has sent yet; lockstep's epoch-0 inbox is empty too.
        } else {
            k.min(neighbors.len())
        };
        let deadline = Instant::now() + ASYNC_EPOCH_TIMEOUT;
        loop {
            for env in endpoint.recv() {
                pending[env.from].push_back(env.bytes);
            }
            let consumable = neighbors
                .iter()
                .filter(|&&s| taken[s] < epoch && !pending[s].is_empty())
                .count();
            if consumable >= required {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "node {id}: epoch {epoch} stalled waiting for {required} \
                     neighbour shares ({consumable} arrived)"
                ));
            }
            for env in endpoint.recv_wait(Duration::from_millis(100)) {
                pending[env.from].push_back(env.bytes);
            }
        }
        // Merge in canonical order, capped so nothing from a sender's
        // epoch ≥ `epoch` slips in early (at most `epoch` shares of each
        // sender are ever consumed before this node trains epoch `epoch`).
        let mut inbox = Vec::new();
        for &s in &neighbors {
            while taken[s] < epoch {
                let Some(bytes) = pending[s].pop_front() else {
                    break;
                };
                taken[s] += 1;
                inbox.push(Envelope { from: s, bytes });
            }
        }
        let (outgoing, report) = node.epoch(inbox);
        for (dest, bytes) in outgoing {
            endpoint.send(dest, bytes);
        }
        // Every epoch executes under this loop, so the chain index is
        // the epoch itself.
        if audit.is_some_and(|a| a.broadcast) {
            endpoint.send_commitment(
                epoch as u64,
                report.commitment.digest,
                report.commitment.tag,
            );
        }
        // Push the staged frames onto the wire without waiting for
        // anyone: flush is the only synchronous part of the round.
        endpoint
            .flush_sends()
            .map_err(|e| format!("node {id}: flush at epoch {epoch}: {e}"))?;
        if let Some(a) = &audit {
            drain_peer_commitments(id, a, endpoint)?;
        }
        trace.push(EpochOutcome {
            rmse_bits: report.rmse.map(f64::to_bits),
            commitment: Some(report.commitment),
        });
        // Every epoch executes under this loop, so every epoch serves.
        // Serve digests inherit the speed-vs-fidelity trade: arrival
        // timing shapes the models, so they are not bit-reproducible
        // across runs on real sockets.
        publish_snapshot(serve, node, epoch);
        on_epoch(epoch, Some(&report));
    }
    Ok(trace)
}
