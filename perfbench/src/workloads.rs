//! The workloads and one trial of each: build the inputs from the
//! seed, set up, run the epochs, serve, and record what the end-to-end
//! and per-layer metrics need.

use crate::probe::{
    self, mean_bits, CoreProbe, FabricRound, LoopEpoch, TimedEndpoint, TimedTransport,
};
use rex_core::builder::{build_mf_nodes, build_mf_nodes_sharded, NodeSeeds};
use rex_core::commitment::{aggregate_root, verify_tag, EpochCommitment};
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode, WireCodec};
use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
use rex_core::serve::{
    naive_top_k, snapshot_digest, ModelSnapshot, QueryStream, Scorer, SnapshotQueue, TopKQuery,
};
use rex_core::setup::{establish_tee_with_directory, TeeDirectory};
use rex_core::Node;
use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_ml::{MfHyperParams, MfModel};
use rex_net::channel::ChannelTransport;
use rex_net::mem::MemNetwork;
use rex_net::stats::TrafficStats;
use rex_net::tcp::{TcpEndpoint, TcpTransport};
use rex_net::transport::{Endpoint, Transport};
use rex_node::{run_node_loop, EpochOutcome, WireAudit};
use rex_tee::SgxCostModel;
use rex_topology::TopologySpec;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Top-k list length (the paper's recommendation lists).
const TOP_K: usize = 10;
/// One served answer in this many is checked against `naive_top_k`.
const CHECK_EVERY: u64 = 8;
/// Snapshots of a training workload's final model served after the run
/// (each a fresh copy, as the live path publishes), and queries answered
/// against each.
const IDLE_SNAPSHOTS: usize = 8;
const IDLE_QUERIES: usize = 256;
/// How long the serve thread waits for the trainer's next snapshot.
const POP_TIMEOUT: Duration = Duration::from_secs(60);

/// How a workload drives its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Engine` with a two-worker work-stealing pool over `MemNetwork`.
    Fleet,
    /// One `run_node_loop` thread per node over `TcpTransport::loopback`.
    Cluster,
    /// One `run_node_loop` thread publishing snapshots, one serve thread.
    ServeLive,
}

/// A workload: its inputs' shape and how it runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    pub users: u32,
    pub items: u32,
    pub ratings: usize,
    pub topology: TopologySpec,
    pub sharing: SharingMode,
    pub sgx: bool,
    /// Contiguous user-row shards (each node hosts `users / nodes` rows).
    pub sharded: bool,
    pub epochs: usize,
    /// `time_to_target_s` ends when the mean RMSE first falls to this
    /// fraction of its epoch-0 value; reached about mid-run. A fraction,
    /// not an absolute RMSE, because the split seed moves the RMSE level
    /// while the relative progress per epoch stays put.
    pub target_frac: f64,
    /// Top-k queries answered per published snapshot (serve-live).
    pub queries_per_epoch: usize,
}

/// ML-100k's shape.
const ML100K: (u32, u32, usize) = (943, 1_682, 100_000);
/// ML-1M's shape.
const ML1M: (u32, u32, usize) = (6_040, 3_706, 1_000_209);

/// The target both TCP workloads share, so their times compare.
const TCP_TARGET: f64 = 0.955;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fleet-raw",
        kind: Kind::Fleet,
        nodes: 64,
        users: ML100K.0,
        items: ML100K.1,
        ratings: ML100K.2,
        topology: TopologySpec::SmallWorld,
        sharing: SharingMode::RawData,
        sgx: false,
        sharded: false,
        epochs: 40,
        target_frac: 0.947,
        queries_per_epoch: 0,
    },
    Spec {
        name: "tcp-raw-sgx",
        kind: Kind::Cluster,
        nodes: 2,
        users: ML1M.0,
        items: ML1M.1,
        ratings: ML1M.2,
        topology: TopologySpec::FullyConnected,
        sharing: SharingMode::RawData,
        sgx: true,
        sharded: true,
        epochs: 200,
        target_frac: TCP_TARGET,
        queries_per_epoch: 0,
    },
    Spec {
        name: "tcp-model-sgx",
        kind: Kind::Cluster,
        nodes: 2,
        users: ML1M.0,
        items: ML1M.1,
        ratings: ML1M.2,
        topology: TopologySpec::FullyConnected,
        sharing: SharingMode::Model,
        sgx: true,
        sharded: true,
        epochs: 200,
        target_frac: TCP_TARGET,
        queries_per_epoch: 0,
    },
    Spec {
        name: "serve-live",
        kind: Kind::ServeLive,
        nodes: 2,
        users: ML100K.0,
        items: ML100K.1,
        ratings: ML100K.2,
        topology: TopologySpec::FullyConnected,
        sharing: SharingMode::RawData,
        sgx: false,
        sharded: false,
        epochs: 200,
        target_frac: 0.89,
        queries_per_epoch: 16,
    },
];

/// The synthetic dataset stays fixed, as a real dataset would, so that
/// `--seed` varies the run and not the data set's difficulty: the dataset
/// seed alone moves the epoch-0 RMSE by several percent. Everything else
/// (split, topology, protocol RNG, attestation keys, query stream)
/// follows `--seed`.
const DATASET_SEED: u64 = 0x5EED_DA7A;

/// Every seed a trial uses, derived from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub split: u64,
    pub topology: u64,
    pub protocol: u64,
    pub infra: u64,
    pub queries: u64,
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        let s = |salt: u64| splitmix(seed ^ splitmix(salt));
        Seeds {
            data: DATASET_SEED,
            split: s(2),
            topology: s(3),
            protocol: s(4),
            infra: s(5),
            queries: s(6),
        }
    }

    /// The seeds of a run's `index`-th trial: the same inputs, except
    /// that each trial draws fresh queries, so a run's serve figures
    /// cover more of the audience than one trial's queries do.
    pub fn for_trial(&self, index: usize) -> Seeds {
        Seeds {
            queries: self.queries.wrapping_add(index as u64),
            ..*self
        }
    }
}

/// Set-up phases of one trial, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub fleet_s: f64,
    pub attest_s: f64,
    pub connect_s: f64,
    /// From the trial's start to its first epoch.
    pub total_s: f64,
}

/// What the serve thread saw.
#[derive(Debug, Default, Clone)]
pub struct ServeLog {
    /// `Scorer::top_k` latency per query, ns.
    pub query_ns: Vec<u64>,
    /// Time blocked in `SnapshotQueue::pop_wait`, summed.
    pub pop_wait_ns: u64,
    /// Snapshots popped.
    pub snapshots: u64,
    /// Largest `SnapshotQueue::backlog` seen right after a pop.
    pub backlog_max: usize,
    /// Sampled answers that differed from `naive_top_k`.
    pub mismatches: u64,
    /// Sampled answers checked.
    pub checked: u64,
}

/// Whom a node serves: the users its initial store holds, each with the
/// items they rated there, excluded from their answers as rex-node does
/// (frozen before the run, since the store grows during it). A node
/// serves its own users. A model answers a user it never saw on a
/// bias-only fast path, and a stream mixing both kinds would put the
/// median latency on the boundary between two modes.
pub struct Audience {
    users: Vec<u32>,
    exclusions: Vec<Vec<u32>>,
}

impl Audience {
    pub fn of(node: &Node<MfModel>) -> Audience {
        let mut users: Vec<u32> = node.store().ratings().iter().map(|r| r.user).collect();
        users.sort_unstable();
        users.dedup();
        let exclusions = users.iter().map(|&u| node.store().rated_items(u)).collect();
        Audience { users, exclusions }
    }
}

/// Per-layer numbers of a traced trial.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Fleet: the engine's fabric calls per round.
    pub fabric: Vec<FabricRound>,
    /// Fleet: CPU time of the pool workers over the run, ns.
    pub worker_cpu_ns: Option<u64>,
    /// Fleet: worker threads.
    pub workers: usize,
    /// Deployed: per node, per epoch endpoint call times.
    pub loop_epochs: Vec<Vec<LoopEpoch>>,
    /// Deployed: per node, per epoch `progress` minus the round
    /// barrier's return, ns.
    pub post_round_ns: Vec<Vec<u64>>,
    /// Deployed: per node, per epoch iteration wall, ns.
    pub iteration_ns: Vec<Vec<u64>>,
}

/// One trial's outcome.
#[derive(Debug, Default, Clone)]
pub struct Trial {
    pub setup: SetupTimes,
    /// Round (fleet) or loop-iteration (deployed) wall times, ns.
    pub epoch_ns: Vec<u64>,
    /// Per epoch: mean RMSE bits.
    pub rmse_bits: Vec<u64>,
    /// Per epoch: aggregate commitment root.
    pub roots: Vec<[u8; 32]>,
    /// Per epoch: seconds from the first epoch's start to the epoch's end.
    pub epoch_end_s: Vec<f64>,
    /// Protocol payload bytes sent, summed over the sending nodes.
    pub payload_bytes_out: u64,
    /// Messages sent, summed over the sending nodes.
    pub msgs_out: u64,
    /// TCP only: wire bytes (payload, headers, control) sent.
    pub wire_bytes_out: u64,
    /// TCP only: `write` syscalls.
    pub write_syscalls: u64,
    /// Nodes that train and send.
    pub active_nodes: usize,
    /// Node epochs attempted and completed.
    pub node_epochs_attempted: u64,
    pub node_epochs_done: u64,
    /// Peer commitments the benchmark HMAC-checked, and failures among
    /// them (including own-trace commitments that do not verify).
    pub commitments_checked: u64,
    pub commitments_bad: u64,
    pub serve: ServeLog,
    pub layers: Option<Layers>,
    /// Errors the program returned (loop errors, serve errors).
    pub errors: Vec<String>,
}

impl Trial {
    /// Payload bytes per active node per epoch: a deterministic count.
    pub fn wire_bytes_per_node_epoch(&self, spec: &Spec) -> f64 {
        self.payload_bytes_out as f64 / (self.active_nodes * spec.epochs) as f64
    }

    /// Seconds until the mean RMSE first falls to `frac` of its epoch-0
    /// value, interpolated linearly in time between the epoch before and
    /// the epoch that crosses it (so the figure is not quantised to whole
    /// epochs).
    pub fn time_to_target_s(&self, frac: f64) -> Option<f64> {
        let rmse: Vec<f64> = self.rmse_bits.iter().map(|b| f64::from_bits(*b)).collect();
        let target = rmse.first()? * frac;
        let hit = rmse.iter().position(|r| *r <= target)?;
        if hit == 0 {
            return self.epoch_end_s.first().copied();
        }
        let (r0, r1) = (rmse[hit - 1], rmse[hit]);
        let (t0, t1) = (self.epoch_end_s[hit - 1], self.epoch_end_s[hit]);
        let frac = if r0 > r1 {
            (r0 - target) / (r0 - r1)
        } else {
            1.0
        };
        Some(t0 + frac * (t1 - t0))
    }

    pub fn final_rmse(&self) -> Option<f64> {
        self.rmse_bits.last().map(|b| f64::from_bits(*b))
    }
}

/// The fleet a spec describes, built from the seeds, plus the time the
/// dataset and the fleet took.
pub fn build_fleet(spec: &Spec, seeds: &Seeds) -> (Vec<Node<MfModel>>, f64, f64) {
    let start = Instant::now();
    let dataset = SyntheticConfig {
        num_users: spec.users,
        num_items: spec.items,
        num_ratings: spec.ratings,
        seed: seeds.data,
        ..SyntheticConfig::default()
    }
    .generate();
    let dataset_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let split = TrainTestSplit::standard(&dataset, seeds.split);
    let graph = spec.topology.build(spec.nodes, seeds.topology);
    let protocol = ProtocolConfig {
        sharing: spec.sharing,
        algorithm: GossipAlgorithm::DPsgd,
        seed: seeds.protocol,
        codec: WireCodec::Dense,
        ..ProtocolConfig::default()
    };
    let fleet = if spec.sharded {
        let (partition, blocks) = Partition::user_blocks(&split, spec.nodes);
        build_mf_nodes_sharded(
            &partition,
            &blocks,
            &graph,
            dataset.num_users,
            dataset.num_items,
            MfHyperParams::default(),
            protocol,
            NodeSeeds::default(),
        )
    } else {
        let partition = Partition::multi_user(&split, spec.nodes);
        build_mf_nodes(
            &partition,
            &graph,
            dataset.num_users,
            dataset.num_items,
            MfHyperParams::default(),
            protocol,
            NodeSeeds::default(),
        )
    };
    (fleet, dataset_s, start.elapsed().as_secs_f64())
}

/// The nodes of a spec that train (serve-live's second node is a
/// passive receiver).
pub fn active_nodes(spec: &Spec) -> Vec<usize> {
    match spec.kind {
        Kind::ServeLive => vec![0],
        Kind::Fleet | Kind::Cluster => (0..spec.nodes).collect(),
    }
}

/// Runs one trial of `spec`.
pub fn run_trial(spec: &Spec, seeds: &Seeds, traced: bool) -> Trial {
    match spec.kind {
        Kind::Fleet => fleet_trial(spec, seeds, traced),
        Kind::Cluster | Kind::ServeLive => deployed_trial(spec, seeds, traced),
    }
}

/// Runs the core probe for `spec`: the same fleet, with the benchmark
/// calling `Node::epoch` itself.
pub fn run_core_probe(spec: &Spec, seeds: &Seeds) -> CoreProbe {
    let (fleet, _, _) = build_fleet(spec, seeds);
    probe::core_probe(
        fleet,
        &active_nodes(spec),
        spec.epochs,
        spec.sgx.then_some(seeds.infra),
        spec.sharing,
        ProtocolConfig::default().points_per_epoch,
    )
}

fn fleet_trial(spec: &Spec, seeds: &Seeds, traced: bool) -> Trial {
    const WORKERS: usize = 2;
    let start = Instant::now();
    let (mut fleet, dataset_s, fleet_s) = build_fleet(spec, seeds);
    let audience = Audience::of(&fleet[0]);
    let connect = Instant::now();
    let log = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let fabric = TimedTransport::new(MemNetwork::new(spec.nodes), log.clone());
    let connect_s = connect.elapsed().as_secs_f64();
    let engine = Engine::new(
        fabric,
        EngineConfig {
            epochs: spec.epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Wall,
            driver: Driver::WorkSteal { workers: WORKERS },
            processes_per_platform: 1,
            seed: seeds.infra,
            faults: None,
            membership: None,
        },
    );
    let setup = SetupTimes {
        dataset_s,
        fleet_s,
        attest_s: 0.0,
        connect_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    let cpu_before = traced.then(|| (probe::process_cpu_ns(), probe::thread_cpu_ns()));
    // A panic inside the engine fails the trial instead of the run.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run(spec.name, &mut fleet)
    }));
    let Ok(result) = run else {
        return Trial {
            setup,
            node_epochs_attempted: (spec.nodes * spec.epochs) as u64,
            errors: vec!["engine panicked".into()],
            ..Trial::default()
        };
    };
    let worker_cpu_ns = cpu_before.and_then(|(p0, t0)| {
        let (p1, t1) = (probe::process_cpu_ns()?, probe::thread_cpu_ns()?);
        Some((p1 - p0?).saturating_sub(t1 - t0?))
    });

    let records = &result.trace.records;
    let mut epoch_ns = Vec::with_capacity(records.len());
    let mut prev = 0;
    for r in records {
        epoch_ns.push(r.time_ns - prev);
        prev = r.time_ns;
    }
    let stats = &result.final_stats;
    let mut trial = Trial {
        setup,
        epoch_ns,
        rmse_bits: records.iter().map(|r| r.rmse.to_bits()).collect(),
        roots: records.iter().map(|r| r.commitment_root).collect(),
        epoch_end_s: records.iter().map(|r| r.time_ns as f64 * 1e-9).collect(),
        payload_bytes_out: stats.iter().map(|s| s.bytes_out).sum(),
        msgs_out: stats.iter().map(|s| s.msgs_out).sum(),
        active_nodes: spec.nodes,
        node_epochs_attempted: (spec.nodes * spec.epochs) as u64,
        node_epochs_done: records.iter().map(|r| r.live_nodes as u64).sum(),
        ..Trial::default()
    };
    trial.layers = log.map(|log| Layers {
        fabric: log.lock().expect("fabric log poisoned").clone(),
        worker_cpu_ns,
        workers: WORKERS,
        ..Layers::default()
    });
    idle_serve(&mut trial, fleet[0].model(), &audience, spec, seeds);
    trial
}

/// Serves a training workload's final model after the run, published
/// through a `SnapshotQueue` like a live snapshot.
fn idle_serve(trial: &mut Trial, model: &MfModel, audience: &Audience, spec: &Spec, seeds: &Seeds) {
    let queue = SnapshotQueue::new();
    let mut left = IDLE_SNAPSHOTS;
    let feed = || {
        if left == 0 {
            queue.close();
        } else {
            left -= 1;
            publish(&queue, model, spec.epochs);
        }
    };
    match serve_loop(&queue, audience, IDLE_QUERIES, seeds.queries, feed) {
        Ok(log) => trial.serve = log,
        Err(e) => trial.errors.push(e),
    }
}

fn publish(queue: &SnapshotQueue<MfModel>, model: &MfModel, epoch: usize) {
    let model = Arc::new(model.clone());
    let digest = snapshot_digest(model.as_ref());
    queue.publish(ModelSnapshot {
        epoch,
        model,
        digest,
    });
}

/// Answers `per_snapshot` seeded queries against every snapshot the
/// queue yields until it closes, timing each `Scorer::top_k` call and
/// checking one answer in `CHECK_EVERY` against `naive_top_k`. `feed`
/// runs before each pop (the idle serve publishes from it).
fn serve_loop(
    queue: &SnapshotQueue<MfModel>,
    audience: &Audience,
    per_snapshot: usize,
    seed: u64,
    mut feed: impl FnMut(),
) -> Result<ServeLog, String> {
    let users = u32::try_from(audience.users.len()).map_err(|e| e.to_string())?;
    // The stream draws an index into the audience.
    let mut stream = QueryStream::new(seed, users, TOP_K);
    let mut scorer = Scorer::default();
    let mut log = ServeLog::default();
    let mut served: u64 = 0;
    loop {
        feed();
        let wait = Instant::now();
        let Some(snap) = queue.pop_wait(POP_TIMEOUT)? else {
            break;
        };
        log.pop_wait_ns += wait.elapsed().as_nanos() as u64;
        log.snapshots += 1;
        log.backlog_max = log.backlog_max.max(queue.backlog());
        let model = snap.model.as_ref();
        for _ in 0..per_snapshot {
            let slot = stream.next_query().user as usize;
            let query = TopKQuery {
                user: audience.users[slot],
                k: TOP_K,
            };
            let exclude = audience.exclusions[slot].as_slice();
            let t = Instant::now();
            let answer = std::hint::black_box(scorer.top_k(model, &query, exclude));
            log.query_ns.push(t.elapsed().as_nanos() as u64);
            if served.is_multiple_of(CHECK_EVERY) {
                log.checked += 1;
                let oracle = naive_top_k(model, query.user, query.k, exclude);
                let same = oracle.len() == answer.len()
                    && oracle
                        .iter()
                        .zip(&answer)
                        .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
                if !same {
                    log.mismatches += 1;
                }
            }
            served += 1;
        }
    }
    Ok(log)
}

/// What one deployed node's thread hands back.
struct NodeRun {
    node: Node<MfModel>,
    outcome: Result<Vec<EpochOutcome>, String>,
    /// `progress` stamps, one per epoch.
    stamps: Vec<Instant>,
    /// Per-epoch RMSE from `progress`.
    rmse: Vec<Option<f64>>,
    /// Traffic counters before and after the loop (the difference
    /// leaves out attestation traffic).
    before: TrafficStats,
    after: TrafficStats,
    loop_epochs: Vec<LoopEpoch>,
    verified: u64,
    rejected: u64,
    /// TCP only: wire bytes sent and `write` syscalls.
    wire_bytes_out: u64,
    write_syscalls: u64,
}

/// Runs `run_node_loop` for `node` over `endpoint`, stamping progress.
/// The endpoint is dropped before returning, so a node whose loop fails
/// closes its connections and its peers' barriers fail fast instead of
/// waiting out their timeout; `wire` reads the endpoint's wire counters
/// first.
#[allow(clippy::too_many_arguments)]
fn drive<E: Endpoint>(
    mut node: Node<MfModel>,
    endpoint: E,
    epochs: usize,
    traced: bool,
    audit: Option<WireAudit>,
    tee: Option<&TeeDirectory>,
    serve: Option<&SnapshotQueue<MfModel>>,
    protocol_seed: u64,
    wire: fn(&E) -> (u64, u64),
) -> NodeRun {
    let before = endpoint.stats();
    let mut ep = TimedEndpoint::new(endpoint, traced, protocol_seed);
    let mut stamps = Vec::with_capacity(epochs);
    let mut rmse = Vec::with_capacity(epochs);
    let outcome = run_node_loop(
        &mut node,
        &mut ep,
        epochs,
        0,
        None,
        None,
        tee,
        audit,
        serve,
        |_, r| {
            stamps.push(Instant::now());
            rmse.push(r);
        },
    );
    let (wire_bytes_out, write_syscalls) = wire(&ep.inner);
    NodeRun {
        node,
        outcome,
        stamps,
        rmse,
        before,
        after: ep.stats(),
        loop_epochs: std::mem::take(&mut ep.epochs),
        verified: ep.commitments_verified,
        rejected: ep.commitments_rejected,
        wire_bytes_out,
        write_syscalls,
    }
}

fn deployed_trial(spec: &Spec, seeds: &Seeds, traced: bool) -> Trial {
    let mut trial = Trial {
        active_nodes: active_nodes(spec).len(),
        node_epochs_attempted: (active_nodes(spec).len() * spec.epochs) as u64,
        ..Trial::default()
    };
    let start = Instant::now();
    let (mut fleet, dataset_s, fleet_s) = build_fleet(spec, seeds);
    let mut setup = SetupTimes {
        dataset_s,
        fleet_s,
        ..SetupTimes::default()
    };
    match spec.kind {
        Kind::Cluster => {
            let audience = Audience::of(&fleet[0]);
            let connect = Instant::now();
            let mut fabric = match TcpTransport::loopback(spec.nodes) {
                Ok(f) => f,
                Err(e) => {
                    trial.errors.push(format!("loopback fabric: {e}"));
                    return trial;
                }
            };
            setup.connect_s = connect.elapsed().as_secs_f64();
            let attest = Instant::now();
            let dir = spec.sgx.then(|| {
                establish_tee_with_directory(
                    &mut fleet,
                    &mut fabric,
                    SgxCostModel::default(),
                    1,
                    seeds.infra,
                )
                .1
            });
            setup.attest_s = attest.elapsed().as_secs_f64();
            let connect = Instant::now();
            let Some(endpoints) = fabric.into_endpoints() else {
                trial.errors.push("tcp fabric did not split".into());
                return trial;
            };
            setup.connect_s += connect.elapsed().as_secs_f64();
            setup.total_s = start.elapsed().as_secs_f64();
            trial.setup = setup;
            let audit = WireAudit {
                broadcast: true,
                verify: true,
                seed: seeds.protocol,
            };
            let loop_start = Instant::now();
            let runs: Vec<NodeRun> = std::thread::scope(|scope| {
                let handles: Vec<_> = fleet
                    .into_iter()
                    .zip(endpoints)
                    .map(|(node, ep)| {
                        let dir = dir.as_ref();
                        scope.spawn(move || {
                            drive(
                                node,
                                ep,
                                spec.epochs,
                                traced,
                                Some(audit),
                                dir,
                                None,
                                seeds.protocol,
                                |ep: &TcpEndpoint| (ep.wire_traffic().0, ep.write_syscalls()),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            });
            if runs.len() < spec.nodes {
                trial.errors.push("a node thread panicked".into());
                return trial;
            }
            let model = collect_runs(&mut trial, spec, seeds, runs, loop_start, traced);
            if let Some(model) = model.filter(|_| trial.errors.is_empty()) {
                idle_serve(&mut trial, &model, &audience, spec, seeds);
            }
        }
        Kind::ServeLive => {
            let connect = Instant::now();
            let Some(mut endpoints) = ChannelTransport::new(spec.nodes).into_endpoints() else {
                trial.errors.push("channel fabric did not split".into());
                return trial;
            };
            setup.connect_s = connect.elapsed().as_secs_f64();
            let sink = endpoints.pop().expect("two endpoints");
            let ep = endpoints.pop().expect("two endpoints");
            let node = fleet.swap_remove(0);
            let audience = Audience::of(&node);
            setup.total_s = start.elapsed().as_secs_f64();
            trial.setup = setup;
            let queue = SnapshotQueue::new();
            let loop_start = Instant::now();
            let (run, serve) = std::thread::scope(|scope| {
                let serve = scope.spawn(|| {
                    serve_loop(
                        &queue,
                        &audience,
                        spec.queries_per_epoch,
                        seeds.queries,
                        || {},
                    )
                });
                let run = drive(
                    node,
                    ep,
                    spec.epochs,
                    traced,
                    None,
                    None,
                    Some(&queue),
                    seeds.protocol,
                    |_| (0, 0),
                );
                // A loop error must still end the serve thread.
                queue.close();
                let serve = serve
                    .join()
                    .unwrap_or_else(|_| Err("serve thread panicked".into()));
                (run, serve)
            });
            let received: u64 = sink.try_drain().iter().map(|e| e.bytes.len() as u64).sum();
            let sent = run.after.bytes_out - run.before.bytes_out;
            if received != sent {
                trial
                    .errors
                    .push(format!("sink received {received} bytes, node sent {sent}"));
            }
            match serve {
                Ok(log) => trial.serve = log,
                Err(e) => trial.errors.push(e),
            }
            collect_runs(&mut trial, spec, seeds, vec![run], loop_start, traced);
            if trial.serve.snapshots != trial.node_epochs_done {
                trial.errors.push(format!(
                    "served {} snapshots of {} epochs",
                    trial.serve.snapshots, trial.node_epochs_done
                ));
            }
        }
        Kind::Fleet => unreachable!("fleet workloads run through the engine"),
    }
    trial
}

/// Folds the node threads' results into the trial (RMSE and commitment
/// traces, epoch times, byte counts, checks) and returns node 0's final
/// model.
fn collect_runs(
    trial: &mut Trial,
    spec: &Spec,
    seeds: &Seeds,
    runs: Vec<NodeRun>,
    loop_start: Instant,
    traced: bool,
) -> Option<MfModel> {
    let mut layers = Layers::default();
    let mut complete = true;
    for run in &runs {
        let id = run.node.id();
        trial.node_epochs_done += run.stamps.len() as u64;
        trial.payload_bytes_out += run.after.bytes_out - run.before.bytes_out;
        trial.msgs_out += run.after.msgs_out - run.before.msgs_out;
        trial.wire_bytes_out += run.wire_bytes_out;
        trial.write_syscalls += run.write_syscalls;
        trial.commitments_checked += run.verified + run.rejected;
        trial.commitments_bad += run.rejected;
        match &run.outcome {
            Ok(outcomes) => {
                // The node's own chain must verify too: its commitments
                // are what its peers checked on the wire.
                for (epoch, o) in outcomes.iter().enumerate() {
                    let ok = o
                        .commitment
                        .is_some_and(|c| verify_tag(seeds.protocol, id, epoch, &c));
                    trial.commitments_checked += 1;
                    if !ok {
                        trial.commitments_bad += 1;
                    }
                }
            }
            Err(e) => {
                trial.errors.push(e.clone());
                complete = false;
            }
        }
        let mut prev = loop_start;
        let iterations: Vec<u64> = run
            .stamps
            .iter()
            .map(|t| {
                let d = t.duration_since(prev).as_nanos() as u64;
                prev = *t;
                d
            })
            .collect();
        trial.epoch_ns.extend(&iterations);
        if traced {
            layers.post_round_ns.push(
                run.loop_epochs
                    .iter()
                    .zip(&run.stamps)
                    .map(|(e, t)| {
                        e.sync_end
                            .map_or(0, |s| t.duration_since(s).as_nanos() as u64)
                    })
                    .collect(),
            );
            layers.iteration_ns.push(iterations);
            layers.loop_epochs.push(run.loop_epochs.clone());
        }
    }
    if complete {
        for epoch in 0..spec.epochs {
            let rmses: Vec<f64> = runs.iter().filter_map(|r| r.rmse[epoch]).collect();
            trial.rmse_bits.push(mean_bits(&rmses));
            let commitments: Vec<(usize, EpochCommitment)> = runs
                .iter()
                .filter_map(|r| {
                    let outcomes = r.outcome.as_ref().ok()?;
                    Some((r.node.id(), outcomes[epoch].commitment?))
                })
                .collect();
            trial.roots.push(aggregate_root(&commitments));
            let end = runs
                .iter()
                .map(|r| r.stamps[epoch])
                .max()
                .expect("at least one node");
            trial
                .epoch_end_s
                .push(end.duration_since(loop_start).as_secs_f64());
        }
    }
    if traced {
        trial.layers = Some(layers);
    }
    runs.into_iter().next().map(|r| r.node.into_model())
}
