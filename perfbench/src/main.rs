//! The repository benchmark: the REX epoch end to end and layer by
//! layer. `BENCHMARK.json` lists the gated workloads and why each one.
//! `tcp-model-sgx`, the model-sharing twin of `tcp-raw-sgx`, runs here
//! too: its traced run, like `tcp-raw-sgx`'s, prints the REX/MS ratios.
//! It is not gated, because on a shared host its large frames put it in
//! a slow reactor wake-up mode for minutes at a time (run-to-run spread
//! of its epoch time reached 45%).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-raw|tcp-raw-sgx|tcp-model-sgx|serve-live> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole trials (inputs built from the seed, set-up, every
//! epoch, serving) until `--seconds` have passed, and reports medians.
//! `--trace 0` prints the end-to-end metrics of untraced trials.
//! `--trace 1` alternates untraced and traced trials, runs the core
//! probe once, and prints the per-layer metrics plus one reconciliation
//! line: the layers' self times against the round wall time, with the
//! remainder as `unattributed_frac` and the tracing overhead.
//!
//! Every run checks its outputs and fails the run, not the metric:
//! traced, untraced and probe trajectories (RMSE and commitments) must be
//! bit-identical, every peer commitment must pass HMAC verification,
//! sampled served answers must equal `naive_top_k`, and wire bytes must
//! repeat exactly across trials of one seed. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod probe;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use workloads::{Seeds, Spec, Trial, WORKLOADS};

/// Trials a run makes at least, however short `--seconds` is: set-up
/// time is a median over them, and wire bytes must repeat across them.
const MIN_TRIALS: usize = 3;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports besides its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any one makes `correct` false.
    pub check_failures: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Counts a trial's operations (node epochs, queries) and checks the
    /// outputs that one trial can check on its own.
    fn absorb(&mut self, spec: &Spec, trial: &Trial) {
        self.attempted += trial.node_epochs_attempted + trial.serve.query_ns.len() as u64;
        for e in &trial.errors {
            eprintln!("{}: {e}", spec.name);
        }
        if !trial.errors.is_empty() {
            // Epochs a loop error cut off fail, and so does the rest of a
            // trial whose serve thread or byte check failed.
            self.failed += trial.node_epochs_attempted;
        } else if trial.time_to_target_s(spec.target_frac).is_none() {
            eprintln!(
                "{}: mean RMSE never fell to {} of its epoch-0 value (final {:?})",
                spec.name,
                spec.target_frac,
                trial.final_rmse()
            );
            self.failed += trial.node_epochs_done;
        }
        self.check(trial.commitments_bad == 0, || {
            format!(
                "{} of {} commitments failed HMAC verification",
                trial.commitments_bad, trial.commitments_checked
            )
        });
        self.check(trial.serve.mismatches == 0, || {
            format!(
                "{} of {} sampled answers differ from naive_top_k",
                trial.serve.mismatches, trial.serve.checked
            )
        });
    }

    /// Checks that two trials of one seed took the same trajectory and
    /// moved the same bytes.
    fn same_run(&mut self, what: &str, a: &Trial, b: &Trial) {
        if !a.errors.is_empty() || !b.errors.is_empty() {
            return;
        }
        self.check(a.rmse_bits == b.rmse_bits && a.roots == b.roots, || {
            format!("{what}: RMSE/commitment traces differ")
        });
        self.check(a.payload_bytes_out == b.payload_bytes_out, || {
            format!(
                "{what}: wire bytes differ ({} != {})",
                a.payload_bytes_out, b.payload_bytes_out
            )
        });
    }
}

/// Sorted-sample percentile (nearest rank).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean (NaN when there are no samples, which flags the metric).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median (NaN when there are no samples, which flags the metric).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One info line per trial, so a run's figures can be traced to the
/// trials behind them.
pub fn print_trial(spec: &Spec, index: usize, t: &Trial) {
    let ms: Vec<f64> = t.epoch_ns.iter().map(|n| *n as f64 / 1e6).collect();
    let us: Vec<f64> = t.serve.query_ns.iter().map(|n| *n as f64 / 1e3).collect();
    println!(
        "# trial {index}: setup_s {:.4} epoch_ms p50/p90/p99 {:.3}/{:.3}/{:.3} \
         time_to_target_s {:.4} serve_us mean/p50/p90/p99 {:.2}/{:.2}/{:.2}/{:.2}",
        t.setup.total_s,
        percentile(&ms, 50.0),
        percentile(&ms, 90.0),
        percentile(&ms, 99.0),
        t.time_to_target_s(spec.target_frac).unwrap_or(f64::NAN),
        mean(&us),
        percentile(&us, 50.0),
        percentile(&us, 90.0),
        percentile(&us, 99.0),
    );
}

/// Runs trials until `seconds` have passed (and at least `MIN_TRIALS`).
fn untraced_trials(spec: &Spec, seeds: &Seeds, seconds: f64, out: &mut Outcome) -> Vec<Trial> {
    let start = Instant::now();
    let mut trials: Vec<Trial> = Vec::new();
    while trials.len() < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        let trial = workloads::run_trial(spec, &seeds.for_trial(trials.len()), false);
        out.absorb(spec, &trial);
        print_trial(spec, trials.len(), &trial);
        if let Some(first) = trials.first() {
            out.same_run("repeated trials", first, &trial);
        }
        trials.push(trial);
    }
    trials
}

/// The end-to-end metrics over untraced trials:
/// * `setup_s` — median over trials of start to first epoch (dataset,
///   fleet, attestation, sockets);
/// * `epoch_ms_p50` — round wall time (fleet: differences of the engine
///   trace's wall stamps; deployed: per-node loop iterations from
///   `progress` stamps), pooled over trials;
/// * `time_to_target_s` — median over trials, see
///   [`Trial::time_to_target_s`];
/// * `wire_bytes_per_node_epoch` — protocol payload bytes, a count;
/// * `final_rmse` — mean RMSE after the last epoch;
/// * `serve_us_mean` — `Scorer::top_k` latency per query, pooled;
/// * `peak_rss_mb` — the process's resident-set high-water mark.
///
/// Tails (epoch p90/p99, serve p50/p90/p99) are printed on the info
/// line only: on a shared two-vCPU host their run-to-run spread reached
/// the largest bound the benchmark may set, so they gate nothing.
fn end_to_end(spec: &Spec, trials: &[Trial]) -> Vec<Metric> {
    let ok: Vec<&Trial> = trials.iter().filter(|t| t.errors.is_empty()).collect();
    let epoch_ms: Vec<f64> = ok
        .iter()
        .flat_map(|t| t.epoch_ns.iter().map(|n| *n as f64 / 1e6))
        .collect();
    let serve_us: Vec<f64> = ok
        .iter()
        .flat_map(|t| t.serve.query_ns.iter().map(|n| *n as f64 / 1e3))
        .collect();
    let of = |f: &dyn Fn(&Trial) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|t| f(t)).collect()
    };
    println!(
        "# {}: {} trials; {} epoch samples, ms p90 {:.3} p99 {:.3}; {} query samples, us p50 \
         {:.2} p90 {:.2} p99 {:.2}",
        spec.name,
        ok.len(),
        epoch_ms.len(),
        percentile(&epoch_ms, 90.0),
        percentile(&epoch_ms, 99.0),
        serve_us.len(),
        percentile(&serve_us, 50.0),
        percentile(&serve_us, 90.0),
        percentile(&serve_us, 99.0),
    );
    vec![
        Metric {
            name: "setup_s",
            value: median(&of(&|t| Some(t.setup.total_s))),
            unit: "s",
        },
        Metric {
            name: "epoch_ms_p50",
            value: percentile(&epoch_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "time_to_target_s",
            value: median(&of(&|t| t.time_to_target_s(spec.target_frac))),
            unit: "s",
        },
        Metric {
            name: "wire_bytes_per_node_epoch",
            value: median(&of(&|t| Some(t.wire_bytes_per_node_epoch(spec)))),
            unit: "bytes",
        },
        Metric {
            name: "final_rmse",
            value: median(&of(&|t| t.final_rmse())),
            unit: "rmse",
        },
        Metric {
            name: "serve_us_mean",
            value: mean(&serve_us),
            unit: "us",
        },
        Metric {
            name: "peak_rss_mb",
            value: probe::peak_rss_mb().unwrap_or(f64::NAN),
            unit: "MiB",
        },
    ]
}

fn print_json(out: &Outcome, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let seeds = Seeds::from(args.seed);
    println!(
        "# host_cpus={} kernel={:?} profile={} workload={} seed={}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        rex_ml::kernel::level(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        spec.name,
        args.seed
    );
    let mut out = Outcome::default();
    let metrics = if args.trace {
        layers::traced_run(spec, &seeds, args.seconds, &mut out)
    } else {
        let trials = untraced_trials(spec, &seeds, args.seconds, &mut out);
        end_to_end(spec, &trials)
    };
    for m in &metrics {
        out.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    for f in &out.check_failures {
        println!("# check failed: {f}");
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m
        })
        .collect();
    print_json(&out, &metrics);
    ExitCode::SUCCESS
}
