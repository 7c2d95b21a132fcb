//! The generic REX protocol engine.
//!
//! One engine owns the pipeline the paper runs in every deployment
//! (Algorithm 2): TEE provisioning + pairwise attestation over the
//! topology edges, the per-epoch merge→train→share→test loop, and
//! [`ExperimentTrace`] aggregation. It is generic over
//! [`Transport`], so the same code drives:
//!
//! * the **discrete-event simulator** — [`MemNetwork`](rex_net::MemNetwork)
//!   fabric, [`Driver::WorkSteal`], [`TimeAxis::Simulated`];
//! * the **real-thread deployment** —
//!   [`ChannelTransport`](rex_net::ChannelTransport),
//!   [`Driver::ThreadPerNode`], [`TimeAxis::Wall`];
//! * the **real-socket deployment** —
//!   [`TcpTransport`](rex_net::TcpTransport), either driver: frames cross
//!   the kernel's TCP stack, and the `rex-node` binary runs the same
//!   per-node loop ([`crate::node_loop::run_node_loop`]) one process per
//!   node;
//! * the **centralized baseline** — a one-node fabric with no neighbours
//!   (see [`crate::centralized`]).
//!
//! There are two schedules. [`Driver::WorkSteal`] (and its
//! bounded-staleness variant) runs single-owner rounds over the fabric
//! view on a fixed worker pool; `workers: 1` is the sequential schedule.
//! [`Driver::ThreadPerNode`] runs [`crate::node_loop::run_node_loop`] on
//! one scoped thread per node, over split endpoints.
//!
//! The unified entry point [`crate::runner::run`] (selecting a
//! [`crate::runner::Backend`]) is a thin configuration shim over
//! [`Engine::run`]; a further backend only implements the `rex-net`
//! transport traits.
//!
//! # Determinism
//! Inboxes are handed to nodes in canonical order (ascending sender id,
//! per-sender FIFO — see [`rex_net::transport::canonicalize`]) and epoch
//! results are folded in node order, so a fixed seed yields bit-identical
//! learning trajectories and byte counts across *all* drivers and
//! backends. `tests/cross_backend.rs` in the workspace root holds this as
//! the refactor's correctness oracle.
//!
//! # Dynamic membership
//! [`EngineConfig::membership`] attaches a seeded
//! [`MembershipPlan`]: the view advances at every round boundary and its
//! transitions — joins with late attestation and sponsored raw-share
//! bootstraps, graceful leaves with live topology rewiring — apply
//! before any inbox of the epoch is drained. Non-members sit rounds out
//! exactly like crash-stopped nodes; `tests/membership.rs` and the
//! `golden_membership` fixture hold the transitions bit-identical across
//! every driver × backend combination.
//!
//! # Resilience
//! [`EngineConfig::faults`] attaches a seeded [`FaultPlan`]. The engine
//! owns the plan's
//! *crash-stop* semantics: a down node runs no epoch, sends nothing, and
//! discards its mailbox; nodes dead for the whole run are pruned from
//! every neighbour list before TEE setup (crash-aware attestation,
//! renormalized Metropolis–Hastings degrees). Per-epoch records carry
//! liveness ([`EpochRecord::live_nodes`]) and the fabric's
//! delivered/dropped/late/duplicated counts
//! ([`EpochRecord::delivery`], filled in when the transport is wrapped
//! in [`rex_net::fault::FaultyTransport`] with the same plan). Both
//! drivers replay a plan bit-for-bit; `tests/chaos.rs` holds them to it.

use crate::config::ExecutionMode;
use crate::membership::{MembershipPlan, MembershipView, ViewTransition};
use crate::node::{EpochReport, Node};
use crate::node_loop::run_node_loop;
use crate::pool::{ShutdownGuard, WorkStealPool};
use crate::setup::TeeDirectory;
use crate::setup::{establish_tee_with_directory, overlay_of, prune_to_overlay, SetupReport};
use rex_ml::Model;
use rex_net::fault::FaultPlan;
use rex_net::link::LinkModel;
use rex_net::mem::Envelope;
use rex_net::stats::{DeliveryStats, TrafficStats};
use rex_net::transport::{Clock, Endpoint, Transport, TransportError, WallClock};
use rex_sim::clock::VirtualClock;
use rex_sim::stage::StageTimes;
use rex_sim::trace::{EpochRecord, ExperimentTrace};
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Which time axis the experiment trace records.
#[derive(Debug, Clone)]
pub enum TimeAxis {
    /// Simulated elapsed time: measured compute + modelled SGX charges +
    /// link-model transfer time, advanced by the slowest node per epoch
    /// (synchronized rounds). The x-axis of Figs 1–4.
    Simulated(LinkModel),
    /// Real wall-clock time plus the modelled per-epoch SGX charges (which
    /// capture hardware effects the host CPU does not exhibit). The x-axis
    /// of Figs 6–7.
    Wall,
}

/// How node epochs are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One OS thread per node over split endpoints, each running
    /// [`crate::node_loop::run_node_loop`] — the paper's deployment
    /// shape, and the same loop the `rex-node` binary runs. Requires a
    /// transport whose [`Transport::into_endpoints`] returns `Some`.
    ThreadPerNode,
    /// Single-owner rounds over the fabric view, executed by a **fixed
    /// work-stealing worker pool** ([`crate::pool`]): workers stay alive
    /// across epochs and steal node epochs from each other's deques, so
    /// skewed per-node costs (growing stores, crashed nodes) never stall
    /// a whole chunk. Scales the fabric view to 1000+ nodes in-process.
    /// Outputs are keyed by node id and sends are applied in canonical
    /// node order after each phase, so every worker count is
    /// bit-identical; `workers: 1` is the sequential schedule. Works with
    /// any [`Transport`] and either time axis.
    WorkSteal {
        /// Worker threads; `0` means one per available CPU core, capped
        /// at the node count.
        workers: usize,
    },
    /// **Bounded-staleness asynchronous rounds**: the epoch barrier
    /// becomes optional — a node proceeds once shares from at least `k`
    /// distinct neighbours have arrived for the epoch, and the remaining
    /// neighbours' shares are applied **one epoch late**, merged under
    /// the canonical-order rule (ascending sender id, per-sender FIFO,
    /// stale before fresh). This is the speed-vs-fidelity axis the
    /// deployed barrier-free `rex-node` loop runs on; in-process the
    /// engine models it deterministically on the work-stealing pool:
    /// which neighbours are "late" at node `v` in epoch `e` is drawn
    /// from a seeded hash of `(seed, e, sender, v)`, so a fixed
    /// `(seed, k)` yields a bit-identical trajectory on any backend —
    /// and `k ≥ max degree` degenerates to [`Driver::WorkSteal`]
    /// exactly. Staleness is bounded at one epoch: a share deferred once
    /// is delivered at the next epoch unconditionally. Not composable
    /// with fault or membership plans (those schedules are keyed to
    /// synchronized round boundaries).
    BoundedAsync {
        /// Minimum distinct neighbour shares a node waits for per epoch.
        /// `0` is legal (pure gossip: every share may arrive late).
        k: usize,
    },
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of epochs to run (epoch 0 trains on initial local data).
    pub epochs: usize,
    /// Native or SGX execution.
    pub execution: ExecutionMode,
    /// Time axis recorded in the trace.
    pub time: TimeAxis,
    /// Epoch scheduling strategy.
    pub driver: Driver,
    /// REX processes sharing one SGX platform (the paper's testbed packs
    /// 2 per server; the simulator provisions 1 per node).
    pub processes_per_platform: usize,
    /// Seed for infrastructure randomness (attestation keys).
    pub seed: u64,
    /// Fault schedule for resilience experiments. The engine enforces the
    /// plan's *crash-stop* semantics itself (a down node runs no epoch,
    /// sends nothing, and discards whatever landed in its mailbox; nodes
    /// dead for the whole run are pruned from every neighbour list before
    /// TEE setup, so attestation is crash-aware and Metropolis–Hastings
    /// weights renormalize over surviving degrees). *Link* faults
    /// (drop/delay/duplicate/reorder, partitions) only take effect when
    /// the transport is wrapped in
    /// [`rex_net::fault::FaultyTransport`] carrying the same plan.
    pub faults: Option<FaultPlan>,
    /// Dynamic-membership schedule (joins with attested state bootstrap,
    /// graceful leaves with live topology rewiring). The view advances
    /// at every round boundary and its transitions apply before any
    /// inbox of the epoch is drained, so a sponsor's bootstrap lands in
    /// the joiner's first inbox. Supported by [`Driver::WorkSteal`] and
    /// [`Driver::ThreadPerNode`]; [`Driver::BoundedAsync`] rejects a
    /// non-`None` plan.
    pub membership: Option<MembershipPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epochs: 100,
            execution: ExecutionMode::Native,
            time: TimeAxis::Simulated(LinkModel::default()),
            driver: Driver::WorkSteal { workers: 0 },
            processes_per_platform: 1,
            seed: 0x1234,
            faults: None,
            membership: None,
        }
    }
}

/// Output of an engine run — the shape every deployment reports.
pub struct EngineResult {
    /// Per-epoch aggregated trace.
    pub trace: ExperimentTrace,
    /// Time spent on TEE provisioning + attestation before epoch 0, on the
    /// configured axis, ns (0 in native mode).
    pub setup_ns: u64,
    /// Final per-node traffic counters (attestation + protocol traffic).
    pub final_stats: Vec<TrafficStats>,
}

/// What one node's thread hands back under [`Driver::ThreadPerNode`]:
/// the (trained) node, its per-epoch reports (`None` while sitting out),
/// its per-round `(end ns, delivery)` records, and its traffic counters.
type NodeRun<M> = (
    Node<M>,
    Vec<Option<EpochReport>>,
    Vec<(u64, DeliveryStats)>,
    TrafficStats,
);

/// The transport-generic protocol engine. See the module docs.
pub struct Engine<M: Model, T: Transport> {
    transport: T,
    cfg: EngineConfig,
    _model: PhantomData<fn() -> M>,
}

impl<M: Model, T: Transport> Engine<M, T> {
    /// Builds an engine over `transport`.
    #[must_use]
    pub fn new(transport: T, cfg: EngineConfig) -> Self {
        Engine {
            transport,
            cfg,
            _model: PhantomData,
        }
    }

    /// Runs the full experiment; `name` becomes the trace label.
    ///
    /// Nodes are mutated in place (trained models, grown stores, installed
    /// enclaves/sessions remain inspectable afterwards, whichever driver
    /// ran them).
    ///
    /// # Panics
    /// If `nodes` is empty, its length disagrees with the transport,
    /// [`Driver::ThreadPerNode`] is requested on a transport that cannot
    /// split into endpoints or combined with [`TimeAxis::Simulated`]
    /// (thread-per-node epochs are timestamped with real elapsed time, so
    /// a simulated axis cannot be honoured), [`Driver::BoundedAsync`] is
    /// combined with a fault or membership plan, a membership plan fails
    /// validation, or a node's loop fails.
    pub fn run(mut self, name: &str, nodes: &mut Vec<Node<M>>) -> EngineResult {
        assert!(!nodes.is_empty(), "engine needs at least one node");
        assert_eq!(
            self.transport.num_nodes(),
            nodes.len(),
            "transport size disagrees with fleet size"
        );
        assert!(
            !matches!(
                (&self.cfg.driver, &self.cfg.time),
                (Driver::ThreadPerNode, TimeAxis::Simulated(_))
            ),
            "Driver::ThreadPerNode records wall-clock time; use TimeAxis::Wall"
        );
        assert!(
            !(matches!(self.cfg.driver, Driver::BoundedAsync { .. })
                && (self.cfg.faults.is_some() || self.cfg.membership.is_some())),
            "Driver::BoundedAsync does not compose with fault or membership plans; \
             their schedules are keyed to synchronized round boundaries"
        );

        // Crash-aware setup: see `setup::prune_dead_nodes` — whole-run
        // dead nodes leave the overlay before TEE provisioning, so
        // attestation skips their edges and surviving Metropolis–
        // Hastings degrees renormalize.
        if let Some(plan) = &self.cfg.faults {
            plan.validate(nodes.len());
            crate::setup::prune_dead_nodes(nodes, plan);
        }

        // Membership-aware setup: the epoch-0 view is built over the
        // (fault-pruned) full topology; edges touching future joiners
        // stay latent, so TEE setup attests exactly the founding
        // overlay. Fault-dead-at-setup nodes are excluded from
        // membership outright — repair never bridges to them.
        let view = self.cfg.membership.clone().map(|plan| {
            let excluded = self
                .cfg
                .faults
                .as_ref()
                .map(|p| p.dead_at_setup(nodes.len()))
                .unwrap_or_default();
            let view = MembershipView::new(plan, &overlay_of(nodes), &excluded);
            prune_to_overlay(nodes, view.overlay());
            view
        });

        let (setup, tee) = match self.cfg.execution {
            ExecutionMode::Native => (SetupReport::default(), None),
            ExecutionMode::Sgx(cost) => {
                let (setup, dir) = establish_tee_with_directory(
                    nodes,
                    &mut self.transport,
                    cost,
                    self.cfg.processes_per_platform,
                    self.cfg.seed,
                );
                (setup, Some(dir))
            }
        };
        let setup_ns = match &self.cfg.time {
            TimeAxis::Simulated(link) => setup.simulated_ns(nodes.len(), link),
            TimeAxis::Wall => setup.wall_ns(),
        };

        match self.cfg.driver {
            Driver::ThreadPerNode => self.run_thread_per_node(name, nodes, setup_ns, view, tee),
            Driver::WorkSteal { workers } => {
                self.run_pooled(name, nodes, setup_ns, workers, view, tee)
            }
            // Bounded staleness runs the same pooled rounds; the arrival
            // model lives in `run_rounds` (keyed off the driver).
            Driver::BoundedAsync { .. } => self.run_pooled(name, nodes, setup_ns, 0, view, tee),
        }
    }

    /// The round loop of the pooled drivers: per epoch — `epoch_begin`,
    /// **membership view transition** (rewire the overlay, late-attest
    /// materializing edges, send sponsor bootstraps, flush so they land
    /// in this epoch's inboxes), crash + membership mask, drain every
    /// mailbox (a down or non-member node's inbox is drained and
    /// discarded), one pool phase over the live nodes, sends applied in
    /// deterministic node order, `flush`, drain delivery counters,
    /// advance the clock, record the trace. Scheduling inside a phase is
    /// unobservable (see [`crate::pool`]), which is what makes every
    /// worker count bit-identical.
    fn run_rounds(
        cfg: &EngineConfig,
        transport: &mut T,
        name: &str,
        setup_ns: u64,
        mut view: Option<&mut MembershipView>,
        tee: Option<&TeeDirectory>,
        pool: &WorkStealPool<M>,
    ) -> ExperimentTrace {
        let n = transport.num_nodes();
        let mut clock: Box<dyn Clock> = match &cfg.time {
            TimeAxis::Simulated(_) => Box::new(VirtualClock::new()),
            TimeAxis::Wall => Box::new(WallClock::start()),
        };
        clock.advance(setup_ns);
        let mut trace = ExperimentTrace::new(name);
        // Shares deferred by the bounded-staleness arrival model, per
        // receiver; delivered unconditionally at the next epoch (max
        // staleness one epoch). Whatever is left at run end is dropped,
        // like any message in flight past the final round.
        let mut deferred: Vec<Vec<Envelope>> = vec![Vec::new(); n];

        for epoch in 0..cfg.epochs {
            transport.epoch_begin(epoch);
            let fault_down = down_mask(cfg.faults.as_ref(), n, epoch);

            if let Some(v) = view.as_deref_mut() {
                if let Some(t) = v.advance(epoch) {
                    // Fabric-level view sync first: layers with
                    // in-flight state react to the change (the fault
                    // wrapper purges a leaver's held messages before
                    // any release point could target it).
                    transport.view_sync(epoch, &t.joined, &t.left);
                    Self::apply_transition(
                        &t,
                        pool,
                        transport,
                        tee,
                        v.plan().bootstrap_points,
                        &fault_down,
                    );
                    // The view barrier: bootstraps are delivered before
                    // any inbox of this epoch is drained.
                    transport.flush();
                }
            }

            // A node sits the epoch out when crash-stopped *or* outside
            // the current membership view; either way its mailbox is
            // drained and discarded — whatever was in flight to it is
            // lost, exactly as in the thread-per-node driver.
            let down: Vec<bool> = (0..n)
                .map(|id| fault_down[id] || view.as_deref().is_some_and(|v| !v.is_member(id)))
                .collect();
            let mut inboxes: Vec<Vec<Envelope>> = (0..n)
                .map(|id| {
                    let inbox = transport.recv(id);
                    if down[id] {
                        Vec::new()
                    } else {
                        inbox
                    }
                })
                .collect();

            if let Driver::BoundedAsync { k } = cfg.driver {
                for (receiver, inbox) in inboxes.iter_mut().enumerate() {
                    apply_staleness(cfg.seed, epoch, receiver, k, inbox, &mut deferred[receiver]);
                }
            }

            for (id, inbox) in inboxes.into_iter().enumerate() {
                pool.load(id, inbox);
            }
            let live: Vec<usize> = (0..n).filter(|&id| !down[id]).collect();
            pool.run_phase(&live);
            pool.check_panic();

            // Apply sends in deterministic node order, then make them
            // visible for the next round.
            let mut reports = Vec::with_capacity(n);
            for from in 0..n {
                match pool.take_output(from) {
                    Some((outgoing, report)) => {
                        for (dest, bytes) in outgoing {
                            transport.send(from, dest, bytes);
                        }
                        reports.push(Some(report));
                    }
                    None => reports.push(None),
                }
            }
            transport.flush();
            let delivery = transport.take_delivery();

            advance_epoch_clock(&cfg.time, clock.as_mut(), &reports);
            trace.push(aggregate_epoch(epoch, clock.now_ns(), &reports, delivery));
        }
        trace
    }

    /// Applies one membership view transition to the fleet and the
    /// fabric, in the canonical order every execution path follows:
    /// leavers' edges removed (sessions dropped, Metropolis–Hastings
    /// degrees renormalize), joiners admission-checked (SGX: evidence
    /// quote verified by a member through DCAP + the own-measurement
    /// rule), new edges added with late-attested sessions installed at
    /// both ends, then sponsor bootstraps sent (skipped for a sponsor
    /// that is crash-stopped this epoch — its data, like everything else
    /// it would send, is lost).
    fn apply_transition(
        t: &ViewTransition,
        pool: &WorkStealPool<M>,
        transport: &mut T,
        tee: Option<&TeeDirectory>,
        bootstrap_points: usize,
        fault_down: &[bool],
    ) {
        for &(a, b) in &t.removed_edges {
            pool.with_node(a, |n| n.remove_neighbor(b));
            pool.with_node(b, |n| n.remove_neighbor(a));
        }

        if let Some(dir) = tee {
            for &j in &t.joined {
                // Admission check: the joiner quotes its enclave; its
                // first live partner (or, for a momentarily isolated
                // joiner, the joiner's own enclave — same measurement)
                // verifies the evidence before any session is installed.
                let quote = pool
                    .with_node(j, |n| {
                        rex_tee::join::joiner_evidence(
                            dir.seed,
                            t.epoch,
                            j,
                            n.enclave_mut().expect("SGX fleet has enclaves"),
                            dir.platform_of(j),
                        )
                    })
                    .expect("own platform quotes its enclave");
                let checker = t
                    .added_edges
                    .iter()
                    .find_map(|&(a, b)| {
                        if a == j {
                            Some(b)
                        } else if b == j {
                            Some(a)
                        } else {
                            None
                        }
                    })
                    .unwrap_or(j);
                pool.with_node(checker, |n| {
                    rex_tee::join::verify_joiner(
                        dir.seed,
                        t.epoch,
                        j,
                        &quote,
                        &dir.dcap,
                        n.enclave_mut().expect("SGX fleet has enclaves"),
                    )
                })
                .expect("honest joiner passes admission");
            }
        }

        for &(a, b) in &t.added_edges {
            pool.with_node(a, |n| n.add_neighbor(b));
            pool.with_node(b, |n| n.add_neighbor(a));
            if let Some(dir) = tee {
                let measurement = pool.with_node(a, |n| {
                    n.enclave_mut()
                        .expect("SGX fleet has enclaves")
                        .measurement()
                });
                let (sa, sb) =
                    rex_tee::join::late_session_pair(dir.seed, t.epoch, a, b, measurement);
                pool.with_node(a, |n| n.install_session(b, sa));
                pool.with_node(b, |n| n.install_session(a, sb));
            }
        }

        for &(s, j) in &t.bootstraps {
            if bootstrap_points == 0 || fault_down[s] {
                continue;
            }
            let bytes = pool.with_node(s, |n| n.bootstrap_for(j, bootstrap_points));
            transport.send(s, j, bytes);
        }
    }

    /// Rounds on the fixed work-stealing pool ([`Driver::WorkSteal`] and
    /// [`Driver::BoundedAsync`]): node epochs execute on workers that
    /// persist across epochs and steal from each other. The fleet is
    /// owned by the pool for the run and handed back afterwards.
    fn run_pooled(
        mut self,
        name: &str,
        nodes: &mut Vec<Node<M>>,
        setup_ns: u64,
        workers: usize,
        mut view: Option<MembershipView>,
        tee: Option<TeeDirectory>,
    ) -> EngineResult {
        let n = nodes.len();
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            workers
        }
        .min(n)
        .max(1);

        let pool = WorkStealPool::new(std::mem::take(nodes), workers);
        let trace = std::thread::scope(|scope| {
            for w in 0..workers {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            // Releases the workers on every exit path — including an
            // unwind from a transport failure or a re-raised worker
            // panic — so the scope join can never deadlock.
            let _guard = ShutdownGuard(&pool);
            Self::run_rounds(
                &self.cfg,
                &mut self.transport,
                name,
                setup_ns,
                view.as_mut(),
                tee.as_ref(),
                &pool,
            )
        });
        *nodes = pool.into_nodes();

        EngineResult {
            trace,
            setup_ns,
            final_stats: self.transport.all_stats(),
        }
    }

    /// One scoped OS thread per node over split endpoints, each running
    /// [`run_node_loop`] behind a [`BarrierEndpoint`].
    fn run_thread_per_node(
        self,
        name: &str,
        nodes: &mut Vec<Node<M>>,
        setup_ns: u64,
        view: Option<MembershipView>,
        tee: Option<TeeDirectory>,
    ) -> EngineResult {
        let n = nodes.len();
        let epochs = self.cfg.epochs;
        let endpoints = self
            .transport
            .into_endpoints()
            .expect("transport cannot split into per-node endpoints; use Driver::WorkSteal");
        assert_eq!(endpoints.len(), n, "endpoint count disagrees with fleet");

        let barrier = RoundBarrier::new(n);
        let start = Instant::now();
        let (faults, tee) = (self.cfg.faults.as_ref(), tee.as_ref());
        let runs: Vec<NodeRun<M>> = std::thread::scope(|scope| {
            let handles: Vec<_> = std::mem::take(nodes)
                .into_iter()
                .zip(endpoints)
                .map(|(mut node, endpoint)| {
                    let mut view = view.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut endpoint = BarrierEndpoint::new(endpoint, barrier, start);
                        let mut reports = Vec::with_capacity(epochs);
                        if let Err(e) = run_node_loop(
                            &mut node,
                            &mut endpoint,
                            epochs,
                            0,
                            faults,
                            view.as_mut(),
                            tee,
                            None,
                            None,
                            |_, report| reports.push(report.copied()),
                        ) {
                            panic!("{e}");
                        }
                        let stats = endpoint.stats();
                        (node, reports, std::mem::take(&mut endpoint.rounds), stats)
                    })
                })
                .collect();
            // Threads were spawned in node order; join preserves it.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let final_stats: Vec<TrafficStats> = runs.iter().map(|(_, _, _, s)| *s).collect();

        let mut trace = ExperimentTrace::new(name);
        let mut cumulative_sgx_ns = 0u64;
        for epoch in 0..epochs {
            let mut end_ns = 0u64;
            let mut delivery = DeliveryStats::default();
            // A node that left gracefully has no record past its leave.
            let reports: Vec<Option<EpochReport>> = runs
                .iter()
                .map(|(_, reports, rounds, _)| {
                    if let Some((t, node_delivery)) = rounds.get(epoch) {
                        end_ns = end_ns.max(*t);
                        delivery.absorb(node_delivery);
                    }
                    reports.get(epoch).copied().flatten()
                })
                .collect();
            cumulative_sgx_ns += reports
                .iter()
                .flatten()
                .map(|r| r.sgx_overhead_ns)
                .max()
                .unwrap_or(0);
            trace.push(aggregate_epoch(
                epoch,
                setup_ns + end_ns + cumulative_sgx_ns,
                &reports,
                delivery,
            ));
        }

        // Hand the (trained) fleet back to the caller.
        *nodes = runs.into_iter().map(|(node, _, _, _)| node).collect();

        EngineResult {
            trace,
            setup_ns,
            final_stats,
        }
    }
}

/// The in-process barrier of [`Driver::ThreadPerNode`]: a reusable
/// barrier whose parties can **leave**. A node's thread leaves when its
/// loop returns — a graceful membership leave, an error, or a panic — so
/// the remaining parties never wait for a thread that is gone.
struct RoundBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
}

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        RoundBarrier {
            state: Mutex::new(BarrierState {
                parties,
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        // A panicking party never holds the lock across a panic point,
        // but recovering keeps the unwind path from double-panicking.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens the next generation once every remaining party is waiting.
    fn release_if_complete(&self, s: &mut BarrierState) {
        if s.arrived > 0 && s.arrived >= s.parties {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
        }
    }

    /// Blocks until every remaining party has called `wait` for this
    /// generation.
    fn wait(&self) {
        let mut s = self.lock();
        s.arrived += 1;
        let generation = s.generation;
        self.release_if_complete(&mut s);
        while s.generation == generation {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes one party for good, releasing the others when they were
    /// only waiting for it.
    fn leave(&self) {
        let mut s = self.lock();
        s.parties -= 1;
        self.release_if_complete(&mut s);
    }
}

/// The endpoint [`Driver::ThreadPerNode`] hands to the node loop: the
/// fabric's own endpoint, with its drain and round barriers also waiting
/// on the fleet's [`RoundBarrier`]. Channel endpoints' barriers are
/// no-ops, so this is what keeps their rounds in step. At every round
/// barrier it also records the epoch's end time and the endpoint's
/// delivery counters for the trace. Dropping it — when the node's loop
/// returns or unwinds — leaves the barrier.
struct BarrierEndpoint<'a, E: Endpoint> {
    inner: E,
    barrier: &'a RoundBarrier,
    start: Instant,
    /// Set by the drain barrier: the next `try_sync` closes the round
    /// (the view barrier is a `try_sync` too, but comes before the
    /// drain).
    drained: bool,
    /// Per completed round: ns since the run started, and the delivery
    /// counters of the round.
    rounds: Vec<(u64, DeliveryStats)>,
}

impl<'a, E: Endpoint> BarrierEndpoint<'a, E> {
    fn new(inner: E, barrier: &'a RoundBarrier, start: Instant) -> Self {
        BarrierEndpoint {
            inner,
            barrier,
            start,
            drained: false,
            rounds: Vec::new(),
        }
    }
}

impl<E: Endpoint> Drop for BarrierEndpoint<'_, E> {
    fn drop(&mut self) {
        self.barrier.leave();
    }
}

impl<E: Endpoint> Endpoint for BarrierEndpoint<'_, E> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        self.inner.send(to, bytes);
    }

    fn recv(&mut self) -> Vec<Envelope> {
        self.inner.recv()
    }

    fn try_drain_barrier(&mut self) -> Result<(), TransportError> {
        self.inner.try_drain_barrier()?;
        self.barrier.wait();
        self.drained = true;
        Ok(())
    }

    fn try_sync(&mut self) -> Result<(), TransportError> {
        self.inner.try_sync()?;
        self.barrier.wait();
        if std::mem::take(&mut self.drained) {
            let end_ns = self.start.elapsed().as_nanos() as u64;
            self.rounds.push((end_ns, self.inner.take_delivery()));
        }
        Ok(())
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
        self.inner.epoch_begin(epoch);
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

/// Advances the epoch clock by the configured time model: on a simulated
/// axis, the slowest live node's compute plus its link-model transfer
/// time (full-duplex: the max of its up/down volumes); on the wall axis,
/// only the modelled hardware charge of the slowest node (real time
/// elapses on its own — `WallClock` stacks the charges on top).
fn advance_epoch_clock(time: &TimeAxis, clock: &mut dyn Clock, reports: &[Option<EpochReport>]) {
    match time {
        TimeAxis::Simulated(link) => {
            let mut epoch_ns = 0u64;
            for report in reports.iter().flatten() {
                let volume = report.bytes_out.max(report.bytes_in);
                let net_ns = if volume > 0 {
                    link.transfer_ns(volume)
                } else {
                    0
                };
                epoch_ns = epoch_ns.max(report.stage_times.total() + net_ns);
            }
            clock.advance(epoch_ns);
        }
        TimeAxis::Wall => {
            let max_sgx = reports
                .iter()
                .flatten()
                .map(|r| r.sgx_overhead_ns)
                .max()
                .unwrap_or(0);
            clock.advance(max_sgx);
        }
    }
}

/// The [`Driver::BoundedAsync`] arrival model for one receiver's epoch:
/// of the distinct senders with fresh shares in `inbox`, the `k` ranked
/// first by the seeded hash `splitmix64(seed, epoch, sender, receiver)`
/// arrive "in time"; every other sender's shares are deferred into
/// `deferred`, which simultaneously releases the previous epoch's
/// deferrals (bounded staleness: nothing is deferred twice). The
/// resulting inbox is re-canonicalized — stale shares sort before fresh
/// ones from the same sender, preserving per-sender FIFO across the
/// epoch boundary.
fn apply_staleness(
    seed: u64,
    epoch: usize,
    receiver: usize,
    k: usize,
    inbox: &mut Vec<Envelope>,
    deferred: &mut Vec<Envelope>,
) {
    let fresh = std::mem::take(inbox);
    let mut senders: Vec<usize> = fresh.iter().map(|e| e.from).collect();
    senders.sort_unstable();
    senders.dedup();

    let mut late: Vec<usize> = Vec::new();
    if senders.len() > k {
        // Deterministic arrival order: rank senders by a seeded hash,
        // sender id breaking (astronomically unlikely) ties. The first
        // k "arrived"; the rest are this epoch's stragglers.
        let rank = |s: usize| {
            rex_crypto::splitmix64(
                seed ^ rex_crypto::splitmix64((epoch as u64) << 32 | receiver as u64)
                    ^ rex_crypto::splitmix64(0x5741_u64 << 48 | s as u64),
            )
        };
        senders.sort_by_key(|&s| (rank(s), s));
        late = senders.split_off(k);
        late.sort_unstable();
    }

    // Last epoch's stragglers deliver now, ahead of the fresh shares so
    // the stable canonical sort keeps per-sender FIFO.
    *inbox = std::mem::take(deferred);
    for env in fresh {
        if late.binary_search(&env.from).is_ok() {
            deferred.push(env);
        } else {
            inbox.push(env);
        }
    }
    rex_net::transport::canonicalize(inbox);
}

/// The per-node crash mask for one epoch (all-false without a plan).
fn down_mask(plan: Option<&FaultPlan>, n: usize, epoch: usize) -> Vec<bool> {
    match plan {
        Some(p) => (0..n).map(|i| p.is_down(i, epoch)).collect(),
        None => vec![false; n],
    }
}

/// Folds one epoch's per-node reports into the trace record: fleet means
/// over the **live** nodes, in node order — the folds are order-stable so
/// runs are reproducible. Crash-stopped nodes (`None`) contribute nothing
/// but are counted out of `live_nodes`.
fn aggregate_epoch(
    epoch: usize,
    time_ns: u64,
    reports: &[Option<EpochReport>],
    delivery: DeliveryStats,
) -> EpochRecord {
    let live: Vec<&EpochReport> = reports.iter().flatten().collect();
    let n = live.len().max(1);
    let rmses: Vec<f64> = live.iter().filter_map(|r| r.rmse).collect();
    let mean_rmse = if rmses.is_empty() {
        f64::NAN
    } else {
        rmses.iter().sum::<f64>() / rmses.len() as f64
    };
    let mean_bytes = live
        .iter()
        .map(|r| (r.bytes_in + r.bytes_out) as f64)
        .sum::<f64>()
        / n as f64;
    let mean_ram = live.iter().map(|r| r.ram_bytes as f64).sum::<f64>() / n as f64;
    let mean_stages = live
        .iter()
        .fold(StageTimes::new(), |acc, r| acc.plus(&r.stage_times))
        .mean_over(n as u64);
    let mean_sgx = live.iter().map(|r| r.sgx_overhead_ns).sum::<u64>() / n as u64;
    // The verifiable-epochs audit root: every live node's signed model
    // commitment, folded in node order (the reports vector is indexed by
    // node id, so the iteration order is canonical on every backend).
    let commitments: Vec<(usize, crate::commitment::EpochCommitment)> = reports
        .iter()
        .enumerate()
        .filter_map(|(id, r)| r.as_ref().map(|rep| (id, rep.commitment)))
        .collect();
    let commitment_root = if commitments.is_empty() {
        [0; 32]
    } else {
        crate::commitment::aggregate_root(&commitments)
    };

    EpochRecord {
        epoch,
        time_ns,
        rmse: mean_rmse,
        bytes_per_node: mean_bytes,
        stage_times: mean_stages,
        ram_bytes: mean_ram,
        sgx_overhead_ns: mean_sgx,
        live_nodes: live.len(),
        delivery,
        commitment_root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_net::ChannelTransport;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A party whose loop returns early, or panics, must release the
    /// parties still waiting on the round barrier instead of stranding
    /// them.
    #[test]
    fn departed_and_panicked_parties_release_the_barrier() {
        // Leaked so the parties can run on plain threads: a regression
        // then fails this test by timeout instead of hanging a scope join.
        let barrier: &'static RoundBarrier = Box::leak(Box::new(RoundBarrier::new(3)));
        let start = Instant::now();
        let mut endpoints = ChannelTransport::new(3)
            .into_endpoints()
            .expect("channel fabric splits")
            .into_iter()
            .map(|e| BarrierEndpoint::new(e, barrier, start));
        let (early, mut doomed, mut survivor) = (
            endpoints.next().unwrap(),
            endpoints.next().unwrap(),
            endpoints.next().unwrap(),
        );

        // Party 0's loop returns before its first barrier.
        std::thread::spawn(move || drop(early));
        // Party 1 completes one round, then its loop panics.
        let doomed = std::thread::spawn(move || {
            doomed.try_drain_barrier().unwrap();
            doomed.try_sync().unwrap();
            panic!("node loop failed");
        });
        // Party 2 runs three full rounds.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..3 {
                survivor.try_drain_barrier().unwrap();
                survivor.try_sync().unwrap();
            }
            done.send(survivor.rounds.len()).unwrap();
        });

        let rounds = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the surviving party is stranded at the barrier");
        assert_eq!(rounds, 3, "one record per completed round");
        assert!(doomed.join().is_err(), "party 1 panicked");
    }
}
