//! The traced run: per-layer metrics and the reconciliation line.
//!
//! Layers and where their numbers come from:
//! * `core.*` — the core probe, which calls `Node::epoch` itself and
//!   reads its `EpochReport` (per node epoch);
//! * `engine.*` — fleet-raw only: the engine's round wall against the
//!   pool workers' CPU time;
//! * `net.*` — the fabric calls the engine (fleet-raw) or the deployed
//!   loop (through `TimedEndpoint`) makes, per round, and the traffic
//!   counters of one trial;
//! * `node.post_round_us` — the deployed loop's work between the round
//!   barrier and `progress` (commitment drain and verify, snapshot
//!   publish);
//! * `serve.*` — the serve thread's `pop_wait` and `backlog`;
//! * `setup.*` — the set-up phases.
//!
//! A layer a workload bypasses reports 0.

use crate::probe::CoreProbe;
use crate::workloads::{self, Kind, Layers, Seeds, Spec, Trial, WORKLOADS};
use crate::{mean, median, percentile, print_trial, Metric, Outcome};
use rex_sim::stage::Stage;
use std::time::Instant;

/// Untraced/traced trial pairs a traced run makes at least.
const MIN_PAIRS: usize = 2;

fn epoch_ms(trials: &[Trial]) -> Vec<f64> {
    trials
        .iter()
        .flat_map(|t| t.epoch_ns.iter().map(|n| *n as f64 / 1e6))
        .collect()
}

/// Self times of one round on its critical path, µs (means over the
/// traced trials' rounds).
#[derive(Default)]
struct Round {
    wall: f64,
    recv: f64,
    send: f64,
    drain_barrier: f64,
    round_barrier: f64,
    /// Node work on the critical path.
    core: f64,
    /// Fleet: the pool phase beyond the node work (scheduling, waiting
    /// for the slowest worker).
    pool: f64,
    post_round: f64,
    /// Fleet: round wall minus node work per worker.
    engine_overhead: f64,
    worker_busy_frac: f64,
}

impl Round {
    fn attributed(&self) -> f64 {
        self.recv
            + self.send
            + self.drain_barrier
            + self.round_barrier
            + self.core
            + self.pool
            + self.post_round
    }
}

fn fleet_round(spec: &Spec, layers: &[&Layers], trials: &[&Trial]) -> Round {
    let mut r = Round::default();
    let rounds: Vec<_> = layers.iter().flat_map(|l| l.fabric.iter()).collect();
    let us = |f: &dyn Fn(&crate::probe::FabricRound) -> u64| {
        mean(&rounds.iter().map(|x| f(x) as f64 / 1e3).collect::<Vec<_>>())
    };
    r.wall = mean(
        &trials
            .iter()
            .flat_map(|t| t.epoch_ns.iter().map(|n| *n as f64 / 1e3))
            .collect::<Vec<_>>(),
    );
    r.recv = us(&|x| x.recv_ns);
    r.send = us(&|x| x.send_ns);
    r.round_barrier = us(&|x| x.flush_ns);
    let phase = us(&|x| x.phase_ns);
    let workers = layers.first().map_or(1, |l| l.workers.max(1)) as f64;
    let cpu: Vec<f64> = layers
        .iter()
        .filter_map(|l| l.worker_cpu_ns)
        .map(|ns| ns as f64 / 1e3 / spec.epochs as f64)
        .collect();
    let work = mean(&cpu);
    r.core = work / workers;
    r.pool = phase - r.core;
    r.engine_overhead = r.wall - r.core;
    r.worker_busy_frac = work / (workers * r.wall);
    r
}

fn deployed_round(layers: &[&Layers]) -> Round {
    let mut r = Round::default();
    let per = |f: &dyn Fn(&crate::probe::LoopEpoch) -> u64| {
        mean(
            &layers
                .iter()
                .flat_map(|l| l.loop_epochs.iter().flatten())
                .map(|e| f(e) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    r.recv = per(&|e| e.recv_ns);
    r.send = per(&|e| e.send_ns);
    r.drain_barrier = per(&|e| e.drain_barrier_ns);
    r.round_barrier = per(&|e| e.round_barrier_ns);
    r.core = per(&|e| e.node_epoch_ns);
    let flat = |f: &dyn Fn(&Layers) -> &Vec<Vec<u64>>| {
        mean(
            &layers
                .iter()
                .flat_map(|l| f(l).iter().flatten())
                .map(|n| *n as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    r.post_round = flat(&|l| &l.post_round_ns);
    r.wall = flat(&|l| &l.iteration_ns);
    r
}

/// Per node-epoch core numbers from the probe, µs.
struct Core {
    epoch: f64,
    /// Merge, train, share, test, as the `EpochReport` gives them.
    stages: [f64; 4],
    commit: f64,
    sgx: f64,
    new_point_frac: f64,
}

impl Core {
    fn from(p: &CoreProbe) -> Core {
        let n = p.node_epochs.max(1) as f64;
        let stage = |s: Stage| p.stage_ns[crate::probe::stage_slot(s)] as f64 / 1e3 / n;
        let measured = p.stage_ns.iter().sum::<u64>().saturating_sub(p.sgx_ns);
        println!(
            "# core probe: {} node epochs; new points {} of {} received raw points",
            p.node_epochs, p.new_points, p.received_points
        );
        Core {
            epoch: p.epoch_ns as f64 / 1e3 / n,
            stages: [
                stage(Stage::Merge),
                stage(Stage::Train),
                stage(Stage::Share),
                stage(Stage::Test),
            ],
            commit: (p.epoch_ns as f64 - measured as f64) / 1e3 / n,
            sgx: p.sgx_ns as f64 / 1e3 / n,
            new_point_frac: if p.received_points == 0 {
                0.0
            } else {
                p.new_points as f64 / p.received_points as f64
            },
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let us = |name, value| Metric {
            name,
            value,
            unit: "us",
        };
        vec![
            us("core.epoch_us", self.epoch),
            us("core.merge_us", self.stages[0]),
            us("core.train_us", self.stages[1]),
            us("core.share_us", self.stages[2]),
            us("core.test_us", self.stages[3]),
            us("core.commit_us", self.commit),
            us("core.sgx_modelled_us", self.sgx),
            Metric {
                name: "core.new_point_frac",
                value: self.new_point_frac,
                unit: "ratio",
            },
        ]
    }
}

/// The REX/MS headline between the two TCP workloads: this workload's
/// median over its untraced trials against one trial of the partner
/// workload, run after the measurement with the same seeds.
fn print_ratio(spec: &Spec, seeds: &Seeds, trials: &[Trial], out: &mut Outcome) {
    let partner = match spec.name {
        "tcp-raw-sgx" => "tcp-model-sgx",
        "tcp-model-sgx" => "tcp-raw-sgx",
        _ => return,
    };
    let partner = WORKLOADS
        .iter()
        .find(|w| w.name == partner)
        .expect("partner workload exists");
    let other = workloads::run_trial(partner, seeds, false);
    out.absorb(partner, &other);
    let ok: Vec<&Trial> = trials.iter().filter(|t| t.errors.is_empty()).collect();
    let summary = |spec: &Spec, trials: &[&Trial]| {
        let ttt: Vec<f64> = trials
            .iter()
            .filter_map(|t| t.time_to_target_s(spec.target_frac))
            .collect();
        let bytes = trials.first().map(|t| t.wire_bytes_per_node_epoch(spec));
        (median(&ttt), bytes)
    };
    let own = summary(spec, &ok);
    let theirs = summary(partner, &[&other]);
    let (rex, ms) = if spec.sharing == rex_core::config::SharingMode::RawData {
        (own, theirs)
    } else {
        (theirs, own)
    };
    let ((t_rex, Some(b_rex)), (t_ms, Some(b_ms))) = (rex, ms) else {
        return;
    };
    println!(
        "# ratio REX/MS time_to_target_s = {t_rex:.4} / {t_ms:.4} = {:.4} (MS/REX {:.2}x)",
        t_rex / t_ms,
        t_ms / t_rex
    );
    println!(
        "# ratio REX/MS wire_bytes_per_node_epoch = {b_rex} / {b_ms} = {:.6} (MS/REX {:.1}x)",
        b_rex / b_ms,
        b_ms / b_rex
    );
}

/// Alternates untraced and traced trials for `seconds`, runs the core
/// probe, checks that all three took the same trajectory, and returns
/// the per-layer metrics.
pub fn traced_run(spec: &Spec, seeds: &Seeds, seconds: f64, out: &mut Outcome) -> Vec<Metric> {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        for (set, is_traced) in [(&mut plain, false), (&mut traced, true)] {
            let trial = workloads::run_trial(spec, &seeds.for_trial(set.len()), is_traced);
            out.absorb(spec, &trial);
            print_trial(spec, set.len(), &trial);
            set.push(trial);
        }
    }
    print_ratio(spec, seeds, &plain, out);
    let probe = workloads::run_core_probe(spec, seeds);
    let core = Core::from(&probe);
    out.attempted += probe.node_epochs;
    let reference = &plain[0];
    for t in plain[1..].iter().chain(&traced) {
        out.same_run("traced and untraced trials", reference, t);
    }
    if reference.errors.is_empty() {
        out.check(
            probe.rmse_bits == reference.rmse_bits && probe.roots == reference.roots,
            || "core probe trajectory differs from the measured run".into(),
        );
    }

    let ok: Vec<&Trial> = traced.iter().filter(|t| t.errors.is_empty()).collect();
    let layers: Vec<&Layers> = ok.iter().filter_map(|t| t.layers.as_ref()).collect();
    let round = match spec.kind {
        Kind::Fleet => fleet_round(spec, &layers, &ok),
        Kind::Cluster | Kind::ServeLive => deployed_round(&layers),
    };
    let untraced_p50 = percentile(&epoch_ms(&plain), 50.0);
    let traced_p50 = percentile(&epoch_ms(&traced), 50.0);
    let overhead_ms = traced_p50 - untraced_p50;
    let unattributed = round.wall - round.attributed();
    let unattributed_frac = unattributed / round.wall;
    println!(
        "# reconcile {}: epoch_ms_p50 untraced {:.4} traced {:.4} (tracing overhead {:+.4} ms); \
         traced round mean {:.1} us = recv {:.1} + send {:.1} + drain_barrier {:.1} + \
         round_barrier {:.1} + core {:.1} + pool {:.1} + post_round {:.1} + unattributed {:.1} \
         (unattributed_frac {:.4})",
        spec.name,
        untraced_p50,
        traced_p50,
        overhead_ms,
        round.wall,
        round.recv,
        round.send,
        round.drain_barrier,
        round.round_barrier,
        round.core,
        round.pool,
        round.post_round,
        unattributed,
        unattributed_frac
    );
    // The probe's node epoch, split by stage and scaled to one round's
    // critical path: a fleet round runs every node on the pool's workers,
    // a deployed round one node per thread.
    let scale = match spec.kind {
        Kind::Fleet => {
            workloads::active_nodes(spec).len() as f64
                / layers.first().map_or(1, |l| l.workers.max(1)) as f64
        }
        Kind::Cluster | Kind::ServeLive => 1.0,
    };
    println!(
        "# reconcile {} core split (probe, per round): epoch {:.1} us = merge {:.1} + train {:.1} \
         + share {:.1} + test {:.1} + commit {:.1} - sgx_modelled {:.1} (stage times include the \
         modelled SGX cost, which is not wall time)",
        spec.name,
        core.epoch * scale,
        core.stages[0] * scale,
        core.stages[1] * scale,
        core.stages[2] * scale,
        core.stages[3] * scale,
        core.commit * scale,
        core.sgx * scale,
    );

    let all: Vec<&Trial> = plain.iter().chain(&traced).collect();
    let setup = |f: &dyn Fn(&Trial) -> f64| median(&all.iter().map(|t| f(t)).collect::<Vec<_>>());
    let count =
        |f: &dyn Fn(&Trial) -> u64| median(&ok.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    let pops: u64 = ok.iter().map(|t| t.serve.snapshots).sum();
    let pop_wait_us =
        ok.iter().map(|t| t.serve.pop_wait_ns).sum::<u64>() as f64 / 1e3 / pops.max(1) as f64;
    let backlog_max = ok.iter().map(|t| t.serve.backlog_max).max().unwrap_or(0);

    let mut metrics = core.metrics();
    metrics.extend([
        Metric {
            name: "engine.overhead_us",
            value: round.engine_overhead,
            unit: "us",
        },
        Metric {
            name: "engine.worker_busy_frac",
            value: round.worker_busy_frac,
            unit: "ratio",
        },
        Metric {
            name: "net.recv_us",
            value: round.recv,
            unit: "us",
        },
        Metric {
            name: "net.send_us",
            value: round.send,
            unit: "us",
        },
        Metric {
            name: "net.drain_barrier_us",
            value: round.drain_barrier,
            unit: "us",
        },
        Metric {
            name: "net.round_barrier_us",
            value: round.round_barrier,
            unit: "us",
        },
        Metric {
            name: "net.msgs_out",
            value: count(&|t| t.msgs_out),
            unit: "count",
        },
        Metric {
            name: "net.payload_bytes_out",
            value: count(&|t| t.payload_bytes_out),
            unit: "bytes",
        },
        Metric {
            name: "net.wire_bytes_out",
            value: count(&|t| t.wire_bytes_out),
            unit: "bytes",
        },
        Metric {
            name: "net.write_syscalls",
            value: count(&|t| t.write_syscalls),
            unit: "count",
        },
        Metric {
            name: "node.post_round_us",
            value: round.post_round,
            unit: "us",
        },
        Metric {
            name: "serve.pop_wait_us",
            value: pop_wait_us,
            unit: "us",
        },
        Metric {
            name: "serve.backlog_max",
            value: backlog_max as f64,
            unit: "count",
        },
        Metric {
            name: "setup.dataset_s",
            value: setup(&|t| t.setup.dataset_s),
            unit: "s",
        },
        Metric {
            name: "setup.fleet_s",
            value: setup(&|t| t.setup.fleet_s),
            unit: "s",
        },
        Metric {
            name: "setup.attest_s",
            value: setup(&|t| t.setup.attest_s),
            unit: "s",
        },
        Metric {
            name: "setup.connect_s",
            value: setup(&|t| t.setup.connect_s),
            unit: "s",
        },
        Metric {
            name: "recon.unattributed_frac",
            value: unattributed_frac,
            unit: "ratio",
        },
        Metric {
            name: "recon.tracing_overhead_ms",
            value: overhead_ms,
            unit: "ms",
        },
        Metric {
            name: "host_cpus",
            value: std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
                as f64,
            unit: "count",
        },
    ]);
    metrics
}
