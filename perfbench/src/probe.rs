//! Timing probes the benchmark wraps around the program's public layer
//! boundaries: a [`Transport`] wrapper for the engine's fabric, an
//! [`Endpoint`] wrapper for the deployed loop, process CPU clocks, and
//! the core probe that drives [`Node::epoch`] directly.
//!
//! Every wrapper only times and forwards; with tracing off it forwards
//! without reading a clock, so the untraced runs measure the program as
//! it ships.

use rex_core::commitment::{aggregate_root, verify_tag, EpochCommitment};
use rex_core::config::SharingMode;
use rex_core::setup::establish_tee_with_directory;
use rex_core::Node;
use rex_ml::MfModel;
use rex_net::mem::{Envelope, MemNetwork};
use rex_net::stats::{DeliveryStats, TrafficStats};
use rex_net::transport::{Endpoint, PeerCommitment, Transport, TransportError};
use rex_sim::stage::Stage;
use rex_tee::SgxCostModel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What the engine's fabric calls cost per round, seen from the driver
/// thread.
#[derive(Debug, Default, Clone)]
pub struct FabricRound {
    /// Inbox drains (`Transport::recv`), summed over nodes.
    pub recv_ns: u64,
    /// Sends, summed over messages.
    pub send_ns: u64,
    /// The round barrier (`Transport::flush`).
    pub flush_ns: u64,
    /// From the end of the last drain to the start of the first send:
    /// the engine's execute phase (the worker pool running node epochs).
    pub phase_ns: u64,
    last_recv_end: Option<Instant>,
    phase_closed: bool,
}

/// [`Transport`] wrapper timing every call the engine makes into the
/// fabric. The log is shared because the engine owns the transport for
/// the whole run.
pub struct TimedTransport<T> {
    inner: T,
    log: Option<Arc<Mutex<Vec<FabricRound>>>>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`; `log` is `None` for an untimed pass-through.
    pub fn new(inner: T, log: Option<Arc<Mutex<Vec<FabricRound>>>>) -> Self {
        TimedTransport { inner, log }
    }

    fn record(&self, f: impl FnOnce(&mut FabricRound)) {
        if let Some(log) = &self.log {
            let mut rounds = log.lock().expect("fabric log poisoned");
            if let Some(round) = rounds.last_mut() {
                f(round);
            }
        }
    }

    fn close_phase(&self, at: Instant) {
        self.record(|r| {
            if !r.phase_closed {
                if let Some(end) = r.last_recv_end {
                    r.phase_ns = ns(at.duration_since(end));
                }
                r.phase_closed = true;
            }
        });
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    type Endpoint = T::Endpoint;

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        if self.log.is_none() {
            return self.inner.send(from, to, bytes);
        }
        let start = Instant::now();
        self.close_phase(start);
        self.inner.send(from, to, bytes);
        let d = ns(start.elapsed());
        self.record(|r| r.send_ns += d);
    }

    fn recv(&mut self, node: usize) -> Vec<Envelope> {
        if self.log.is_none() {
            return self.inner.recv(node);
        }
        let start = Instant::now();
        let inbox = self.inner.recv(node);
        let end = Instant::now();
        self.record(|r| {
            r.recv_ns += ns(end.duration_since(start));
            r.last_recv_end = Some(end);
        });
        inbox
    }

    fn flush(&mut self) {
        if self.log.is_none() {
            return self.inner.flush();
        }
        let start = Instant::now();
        self.close_phase(start);
        self.inner.flush();
        let d = ns(start.elapsed());
        self.record(|r| r.flush_ns += d);
    }

    fn epoch_begin(&mut self, epoch: usize) {
        if let Some(log) = &self.log {
            log.lock()
                .expect("fabric log poisoned")
                .push(FabricRound::default());
        }
        self.inner.epoch_begin(epoch);
    }

    fn view_sync(&mut self, epoch: usize, joined: &[usize], left: &[usize]) {
        self.inner.view_sync(epoch, joined, left);
    }

    fn take_delivery(&mut self) -> DeliveryStats {
        self.inner.take_delivery()
    }

    fn stats(&self, node: usize) -> TrafficStats {
        self.inner.stats(node)
    }

    fn all_stats(&self) -> Vec<TrafficStats> {
        self.inner.all_stats()
    }

    fn into_endpoints(self) -> Option<Vec<Self::Endpoint>> {
        self.inner.into_endpoints()
    }
}

/// One epoch of one deployed node, as its endpoint saw it.
#[derive(Debug, Clone)]
pub struct LoopEpoch {
    /// `Endpoint::recv` (the inbox drain).
    pub recv_ns: u64,
    /// `Endpoint::try_drain_barrier`.
    pub drain_barrier_ns: u64,
    /// `Endpoint::send` plus `Endpoint::send_commitment`.
    pub send_ns: u64,
    /// `Endpoint::try_sync` (the round barrier).
    pub round_barrier_ns: u64,
    /// From the drain barrier's return to the next endpoint call: the
    /// loop's `Node::epoch` call.
    pub node_epoch_ns: u64,
    /// When the round barrier returned (start of the post-round work).
    pub sync_end: Option<Instant>,
    drain_end: Option<Instant>,
}

impl LoopEpoch {
    fn new() -> Self {
        LoopEpoch {
            recv_ns: 0,
            drain_barrier_ns: 0,
            send_ns: 0,
            round_barrier_ns: 0,
            node_epoch_ns: 0,
            sync_end: None,
            drain_end: None,
        }
    }
}

/// [`Endpoint`] wrapper for the deployed loop. It always checks every
/// peer commitment it hands to the loop (HMAC, against the sender's
/// derived key); with `timed` it also times each call.
pub struct TimedEndpoint<E> {
    /// The wrapped endpoint.
    pub inner: E,
    timed: bool,
    audit_seed: u64,
    /// Per-epoch call times (empty when untimed).
    pub epochs: Vec<LoopEpoch>,
    /// Peer commitments that passed the benchmark's own HMAC check.
    pub commitments_verified: u64,
    /// Peer commitments that failed it.
    pub commitments_rejected: u64,
}

impl<E: Endpoint> TimedEndpoint<E> {
    /// Wraps `inner`; commitments are checked against `audit_seed`.
    pub fn new(inner: E, timed: bool, audit_seed: u64) -> Self {
        TimedEndpoint {
            inner,
            timed,
            audit_seed,
            epochs: Vec::new(),
            commitments_verified: 0,
            commitments_rejected: 0,
        }
    }

    /// Runs `f`, adding its duration to the current epoch via `add`, and
    /// closes an open `Node::epoch` gap at the call's start.
    fn timed<R>(&mut self, f: impl FnOnce(&mut E) -> R, add: fn(&mut LoopEpoch, u64)) -> R {
        if !self.timed {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        if let Some(e) = self.epochs.last_mut() {
            if let Some(end) = e.drain_end.take() {
                e.node_epoch_ns = ns(start.duration_since(end));
            }
        }
        let out = f(&mut self.inner);
        let d = ns(start.elapsed());
        if let Some(e) = self.epochs.last_mut() {
            add(e, d);
        }
        out
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        self.timed(|e| e.send(to, bytes), |r, d| r.send_ns += d);
    }

    fn recv(&mut self) -> Vec<Envelope> {
        self.timed(E::recv, |r, d| r.recv_ns += d)
    }

    fn recv_wait(&mut self, timeout: Duration) -> Vec<Envelope> {
        self.timed(|e| e.recv_wait(timeout), |r, d| r.recv_ns += d)
    }

    fn flush_sends(&mut self) -> Result<(), TransportError> {
        self.timed(E::flush_sends, |r, d| r.send_ns += d)
    }

    fn sync(&mut self) {
        self.timed(E::sync, |r, d| r.round_barrier_ns += d);
    }

    fn try_sync(&mut self) -> Result<(), TransportError> {
        let out = self.timed(E::try_sync, |r, d| r.round_barrier_ns += d);
        if self.timed {
            if let Some(e) = self.epochs.last_mut() {
                e.sync_end = Some(Instant::now());
            }
        }
        out
    }

    fn drain_barrier(&mut self) {
        self.timed(E::drain_barrier, |r, d| r.drain_barrier_ns += d);
    }

    fn try_drain_barrier(&mut self) -> Result<(), TransportError> {
        let out = self.timed(E::try_drain_barrier, |r, d| {
            r.drain_barrier_ns += d;
        });
        if self.timed {
            if let Some(e) = self.epochs.last_mut() {
                e.drain_end = Some(Instant::now());
            }
        }
        out
    }

    fn view_sync(
        &mut self,
        epoch: usize,
        joined: &[usize],
        left: &[usize],
    ) -> Result<(), TransportError> {
        self.inner.view_sync(epoch, joined, left)
    }

    fn join_evidence(&mut self, peer: usize) -> Option<Vec<u8>> {
        self.inner.join_evidence(peer)
    }

    fn epoch_begin(&mut self, epoch: usize) {
        if self.timed {
            self.epochs.push(LoopEpoch::new());
        }
        self.inner.epoch_begin(epoch);
    }

    fn send_commitment(&mut self, epoch: u64, digest: [u8; 32], tag: [u8; 32]) {
        self.timed(
            |e| e.send_commitment(epoch, digest, tag),
            |r, d| r.send_ns += d,
        );
    }

    fn take_commitments(&mut self) -> Vec<PeerCommitment> {
        let peers = self.inner.take_commitments();
        for pc in &peers {
            let c = EpochCommitment {
                digest: pc.digest,
                tag: pc.tag,
            };
            let ok = usize::try_from(pc.epoch)
                .is_ok_and(|epoch| verify_tag(self.audit_seed, pc.from, epoch, &c));
            if ok {
                self.commitments_verified += 1;
            } else {
                self.commitments_rejected += 1;
            }
        }
        peers
    }

    fn take_delivery(&mut self) -> DeliveryStats {
        self.inner.take_delivery()
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

/// `struct timeval` / `struct rusage` as Linux x86-64 and aarch64 lay
/// them out (every field a C `long`).
#[cfg(target_os = "linux")]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(target_os = "linux")]
fn rusage(who: i32) -> Option<Rusage> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage`, and `who` is one of the two selectors Linux
    // defines; getrusage writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

#[cfg(target_os = "linux")]
fn cpu_ns(who: i32) -> Option<u64> {
    let u = rusage(who)?;
    let micros = (u.utime[0] + u.stime[0]) * 1_000_000 + u.utime[1] + u.stime[1];
    u64::try_from(micros).ok().map(|m| m * 1_000)
}

/// CPU time of the whole process, ns.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> Option<u64> {
    cpu_ns(0)
}

/// CPU time of the calling thread, ns.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> Option<u64> {
    cpu_ns(1)
}

/// The process's resident-set high-water mark, MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> Option<f64> {
    rusage(0).map(|u| u.maxrss as f64 / 1024.0)
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> Option<u64> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> Option<f64> {
    None
}

/// Per node-epoch sums the core probe collects from [`Node::epoch`] and
/// its `EpochReport`.
#[derive(Debug, Default, Clone)]
pub struct CoreProbe {
    /// Node epochs run.
    pub node_epochs: u64,
    /// Wall time of the `Node::epoch` calls.
    pub epoch_ns: u64,
    /// Stage times as the report gives them (modelled SGX charges
    /// included), in `STAGES` order.
    pub stage_ns: [u64; 4],
    /// Modelled SGX cost.
    pub sgx_ns: u64,
    /// Raw points that were new to the receiving store.
    pub new_points: u64,
    /// Raw points received.
    pub received_points: u64,
    /// Per epoch: mean RMSE bits over the reporting nodes.
    pub rmse_bits: Vec<u64>,
    /// Per epoch: the aggregate commitment root.
    pub roots: Vec<[u8; 32]>,
}

/// Runs `epochs` lockstep rounds of `active` nodes over a [`MemNetwork`],
/// calling [`Node::epoch`] directly and timing it. In SGX mode the fleet
/// is attested first, exactly as the deployed cluster is, so the
/// trajectory (RMSE and commitments) must match the measured run's.
pub fn core_probe(
    mut fleet: Vec<Node<MfModel>>,
    active: &[usize],
    epochs: usize,
    sgx: Option<u64>,
    sharing: SharingMode,
    points_per_epoch: usize,
) -> CoreProbe {
    let n = fleet.len();
    let mut net = MemNetwork::new(n);
    if let Some(seed) = sgx {
        establish_tee_with_directory(&mut fleet, &mut net, SgxCostModel::default(), 1, seed);
    }
    let mut probe = CoreProbe::default();
    // Raw points in flight to each node, delivered with the next inbox.
    let mut in_flight = vec![0u64; n];
    for epoch in 0..epochs {
        net.epoch_begin(epoch);
        let inboxes: Vec<Vec<Envelope>> = active.iter().map(|&id| net.recv(id)).collect();
        let mut rmses = Vec::new();
        let mut commitments = Vec::new();
        let mut sends = Vec::new();
        for (&id, inbox) in active.iter().zip(inboxes) {
            probe.received_points += std::mem::take(&mut in_flight[id]);
            let start = Instant::now();
            let (out, report) = fleet[id].epoch(inbox);
            probe.epoch_ns += ns(start.elapsed());
            probe.node_epochs += 1;
            for (slot, stage) in rex_sim::stage::STAGES.iter().enumerate() {
                probe.stage_ns[slot] += report.stage_times.get(*stage);
            }
            probe.sgx_ns += report.sgx_overhead_ns;
            probe.new_points += report.new_points as u64;
            if let Some(r) = report.rmse {
                rmses.push(r);
            }
            commitments.push((id, report.commitment));
            if sharing == SharingMode::RawData {
                let sample = fleet[id].store().len().min(points_per_epoch) as u64;
                for (dest, _) in &out {
                    in_flight[*dest] += sample;
                }
            }
            sends.push((id, out));
        }
        for (from, out) in sends {
            for (to, bytes) in out {
                net.send(from, to, bytes);
            }
        }
        net.flush();
        probe.rmse_bits.push(mean_bits(&rmses));
        probe.roots.push(aggregate_root(&commitments));
    }
    probe
}

/// Mean of `values` in the given order, as bits (the engine's mean).
pub fn mean_bits(values: &[f64]) -> u64 {
    if values.is_empty() {
        return f64::NAN.to_bits();
    }
    (values.iter().sum::<f64>() / values.len() as f64).to_bits()
}

/// Index of `stage` in the probe's stage arrays.
pub fn stage_slot(stage: Stage) -> usize {
    rex_sim::stage::STAGES
        .iter()
        .position(|s| *s == stage)
        .expect("every stage is in STAGES")
}
