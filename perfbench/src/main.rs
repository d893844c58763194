//! The HMD stack's benchmark: one process per run, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_batch|scan_hpc|drift_loop --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` before timing starts. With
//! `--trace 0` the run measures for `--seconds` and prints every
//! end-to-end metric; with `--trace 1` every other chunk of the measured
//! phase runs with spans around every call into a layer, each layer's calls
//! are then replayed one by one, and every per-layer metric is printed.
//! Either way every served report is checked bit for bit against a direct
//! call, the last line of standard output is the JSON result, and the exit
//! code is non-zero when a check failed. See `perfbench/DESIGN.md` for the metric map.

mod drift_loop;
mod report;
mod scan_hpc;
mod stats;
mod trace;
mod wire_batch;

use hmd_core::trusted::DetectionReport;
use hmd_data::split::KnownUnknownSplit;
use hmd_data::{Dataset, Matrix};
use hmd_dvfs::dataset::DvfsCorpusBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use report::Outcome;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The endpoint every workload deploys to.
const ENDPOINT: &str = "hmd";

/// Set-up runs this many times per run; `setup_s` is the median and the
/// last set-up's state is the one measured.
const SETUP_REPEATS: usize = 3;

/// Seed of the corpus the deployed model is trained on, and of its fit.
/// The model stays fixed across runs, as a deployed model does; `--seed`
/// varies the rows it serves, so run-to-run spread is the host's and the
/// traffic's, not a different forest's.
const MODEL_SEED: u64 = 2021;

/// Unknown-family DVFS signatures served per unknown app (bench scale
/// generates 16): enough unknown rows that the escalation rate of one run
/// is not a coin flip over a few dozen rows.
const DVFS_UNKNOWN_PER_APP: usize = 64;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "wire_batch" => wire_batch::run,
        "scan_hpc" => scan_hpc::run,
        "drift_loop" => drift_loop::run,
        other => {
            eprintln!("perfbench: unknown workload {other} (wire_batch, scan_hpc, drift_loop)");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(args.seed, args.seconds, args.trace);
    if let Some(mb) = report::peak_rss_mb() {
        outcome.put("peak_rss_mb", mb, 1);
    }
    if report::print(&outcome, &args.workload, args.seed, args.trace) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed or differed from the reference",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last state and every
/// set-up time. Earlier states are dropped (servers shut down) before the
/// next set-up starts.
fn repeat_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let (s, seconds) = setup();
        times.push(seconds);
        state = Some(s);
    }
    (state.expect("SETUP_REPEATS > 0"), times)
}

/// Bit-for-bit report equality: decision, label, vote fraction, entropy
/// and ensemble size.
fn same_report(a: &DetectionReport, b: &DetectionReport) -> bool {
    a.decision == b.decision
        && a.prediction.label == b.prediction.label
        && a.prediction.entropy.to_bits() == b.prediction.entropy.to_bits()
        && a.prediction.malware_vote_fraction.to_bits()
            == b.prediction.malware_vote_fraction.to_bits()
        && a.prediction.num_estimators == b.prediction.num_estimators
}

/// The DVFS corpora of one set-up: the bench-scale training set of the
/// fixed model corpus, and a corpus from `seed` whose known-test and
/// unknown rows are served.
fn dvfs_corpora(seed: u64) -> (Dataset, KnownUnknownSplit) {
    let train = DvfsCorpusBuilder::bench_scale()
        .build_split(MODEL_SEED)
        .expect("DVFS model corpus")
        .train;
    let mut served = DvfsCorpusBuilder::bench_scale();
    served.samples_per_unknown_app = DVFS_UNKNOWN_PER_APP;
    let served = served.build_split(seed).expect("DVFS served corpus");
    (train, served)
}

/// The rows of `known` and `unknown` in one seeded shuffle, with a flag per
/// row marking the unknown ones.
fn shuffled_rows(known: &Dataset, unknown: &Dataset, seed: u64) -> (Matrix, Vec<bool>) {
    let mut order: Vec<(bool, usize)> = (0..known.len())
        .map(|i| (false, i))
        .chain((0..unknown.len()).map(|i| (true, i)))
        .collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9));
    let rows: Vec<Vec<f64>> = order
        .iter()
        .map(|&(is_unknown, i)| {
            let source = if is_unknown { unknown } else { known };
            source.features().row(i).to_vec()
        })
        .collect();
    let flags = order.iter().map(|&(is_unknown, _)| is_unknown).collect();
    (Matrix::from_rows(&rows).expect("uniform rows"), flags)
}

/// Runs chunks of work until `seconds` have passed and returns the tallies
/// of the untraced and the traced chunks. `chunk` adds one chunk to the
/// tally it is given and returns the requests it made.
///
/// With a tracer, every other chunk records spans, so the untraced and the
/// traced chunks share the host's state over the whole phase. The
/// difference of their median wall time per request, span recording
/// included, is `trace.overhead_us`. Without one, every chunk is untraced.
fn measure<T: Default>(
    seconds: f64,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
    mut chunk: impl FnMut(&mut T, Option<&mut Tracer>) -> usize,
) -> (T, T) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain, mut traced) = (T::default(), T::default());
    let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
    let mut k = 0usize;
    while Instant::now() < deadline {
        let spans = tracer.as_mut().filter(|_| k % 2 == 1);
        let (tally, wall) = if spans.is_some() {
            (&mut traced, &mut traced_us)
        } else {
            (&mut plain, &mut plain_us)
        };
        let start = Instant::now();
        let requests = chunk(tally, spans);
        wall.push(micros(start.elapsed()) / requests.max(1) as f64);
        k += 1;
    }
    // Only a tracer gives traced chunks.
    if let (Some(with), Some(without)) = (stats::median(&traced_us), stats::median(&plain_us)) {
        out.put("trace.overhead_us", with - without, traced_us.len());
    }
    (plain, traced)
}

/// A duration in microseconds.
fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Writes a traced run's spans to `.bench_trace/<workload>.tsv`; a failed
/// write is reported and does not fail the run.
fn write_spans(tracer: &Tracer, workload: &str) {
    let path = Path::new(TRACE_DIR).join(format!("{workload}.tsv"));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
