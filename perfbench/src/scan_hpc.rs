//! `scan_hpc`: bulk `detect_batch` calls on HPC signatures with the paper
//! pipeline, no serving layer.
//!
//! Nearly all the time is flat-engine traversal and entropy/rejection, so
//! flat-engine changes show here and codec or server changes must not.
//! Batches are larger than the flat engine's parallel threshold (256 rows),
//! so the worker pool splits each one.

use crate::report::{Measured, Outcome};
use crate::stats::Chunk;
use crate::trace::{time, Tracer};
use crate::{measure, micros, repeat_setup, same_report, shuffled_rows, MODEL_SEED};
use hmd_bench::pipelines::forest_params;
use hmd_core::trusted::{DetectionReport, TrustedHmd, TrustedHmdBuilder};
use hmd_data::{Dataset, Label, Matrix};
use hmd_hpc::dataset::HpcCorpusBuilder;
use hmd_ml::forest::RandomForest;
use std::time::Duration;

/// Rows per `detect_batch` call.
const BATCH_ROWS: usize = 512;

/// Distinct batches cut from the shuffled pool; calls cycle through them.
const DISTINCT_BATCHES: usize = 16;

/// Batches per throughput chunk.
const CHUNK_BATCHES: usize = 16;

/// Batches whose layers the traced run replays one by one.
const REPLAY_BATCHES: usize = 200;

/// The served HPC rows: bench-scale signatures of every known and unknown
/// program, with the known ones almost all held out as test rows, so the
/// set-up does not simulate a second training set it would throw away.
fn served_builder() -> HpcCorpusBuilder {
    let mut builder = HpcCorpusBuilder::bench_scale();
    builder.samples_per_known_app = 40;
    builder.samples_per_unknown_app = 200;
    builder.test_fraction = 0.9;
    builder
}

struct Scan {
    detector: TrustedHmd<RandomForest>,
    /// `DISTINCT_BATCHES * BATCH_ROWS` rows cycled from the shuffled pool.
    rows: Matrix,
    /// Pool index of each row of `rows`.
    source: Vec<usize>,
    unknown: Vec<bool>,
    /// The single-row `detect` report of every pool row.
    reference: Vec<DetectionReport>,
}

fn setup(seed: u64, tracer: &mut Option<Tracer>) -> (Scan, f64) {
    let ((train, served), corpus) = time(tracer.as_mut(), "hpc.corpus", None, 0, || {
        let train = HpcCorpusBuilder::bench_scale()
            .build_split(MODEL_SEED)
            .expect("HPC model corpus")
            .train;
        (
            train,
            served_builder()
                .build_split(seed)
                .expect("HPC served corpus"),
        )
    });
    let (detector, fit) = time(tracer.as_mut(), "core.fit", None, 0, || {
        TrustedHmdBuilder::new(forest_params())
            .with_num_estimators(25)
            .fit(&train, MODEL_SEED)
            .expect("paper pipeline trains")
    });
    let seconds = (corpus + fit).as_secs_f64();
    let (pool, unknown) = shuffled_rows(&served.test_known, &served.unknown, seed);
    let source: Vec<usize> = (0..DISTINCT_BATCHES * BATCH_ROWS)
        .map(|i| i % pool.rows())
        .collect();
    let rows: Vec<Vec<f64>> = source.iter().map(|&i| pool.row(i).to_vec()).collect();
    let reference = pool
        .iter_rows()
        .map(|row| detector.detect(row).expect("single-row reference"))
        .collect();
    (
        Scan {
            detector,
            rows: Matrix::from_rows(&rows).expect("uniform rows"),
            source,
            unknown,
            reference,
        },
        seconds,
    )
}

/// Scores one chunk of [`CHUNK_BATCHES`] batches, checking every report
/// against the single-row path. Returns the batches scored.
fn scan(s: &Scan, tally: &mut Measured, mut tracer: Option<&mut Tracer>) -> usize {
    let mut busy = Duration::ZERO;
    for _ in 0..CHUNK_BATCHES {
        let call = tally.attempted as usize;
        let first = (call % DISTINCT_BATCHES) * BATCH_ROWS;
        let view = s.rows.rows_view(first..first + BATCH_ROWS);
        let (result, took) = time(
            tracer.as_deref_mut(),
            "core.detect_batch",
            None,
            call as u64,
            || s.detector.detect_batch(std::hint::black_box(view)),
        );
        busy += took;
        tally.latencies_us.push(micros(took));
        tally.attempted += 1;
        let ok = match result {
            Ok(reports) => {
                let mut ok = reports.len() == BATCH_ROWS;
                for (offset, report) in reports.iter().enumerate() {
                    let idx = s.source[first + offset];
                    ok &= same_report(report, &s.reference[idx]);
                    tally
                        .escalations
                        .record(s.unknown[idx], report.decision.is_escalation());
                }
                ok
            }
            Err(_) => false,
        };
        if !ok {
            eprintln!("scan_hpc: batch {call} differs from the single-row path");
            tally.failed += 1;
        }
    }
    tally.chunks.push(Chunk {
        items: (CHUNK_BATCHES * BATCH_ROWS) as f64,
        seconds: busy.as_secs_f64(),
    });
    CHUNK_BATCHES
}

/// Runs the workload and reports its end-to-end or per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tracer = traced.then(Tracer::new);
    let (scan_state, setups) = repeat_setup(|| setup(seed, &mut tracer));
    let mut out = Outcome::default();
    out.put_median("setup_s", &setups, 1.0);
    let (plain, spanned): (Measured, Measured) =
        measure(seconds, &mut tracer, &mut out, |tally, t| {
            scan(&scan_state, tally, t)
        });
    out.put_measured(&plain);

    if let Some(t) = tracer.as_mut() {
        out.count(&spanned);
        // Per batch, so the figure does not grow with the batches a run
        // completes.
        out.put(
            "core.escalated_rows",
            spanned.escalations.escalated() as f64 / spanned.attempted.max(1) as f64,
            spanned.attempted as usize,
        );
        let failed = replay(&scan_state, t);
        out.attempted += REPLAY_BATCHES as u64;
        out.failed += failed;
        out.put_span_medians(t);
        let self_ns = t.self_times_by_name();
        let m = |name: &str| crate::stats::median(&self_ns[name]).unwrap_or(0.0) / 1e3;
        out.put(
            "core.entropy_reject_us",
            m("core.detect_batch.replay") - m("core.preprocess") - m("ml.votes"),
            REPLAY_BATCHES,
        );
        let flat = scan_state
            .detector
            .estimator()
            .ensemble()
            .flat()
            .expect("random-forest ensembles compile a flat engine");
        out.put("ml.trees", flat.num_trees() as f64, 1);
        out.put("ml.split_nodes", flat.num_split_nodes() as f64, 1);
        out.put("ml.pool_threads", rayon::current_num_threads() as f64, 1);
        crate::write_spans(t, "scan_hpc");
    }
    out
}

/// Replays `detect_batch` and the two layers under it on
/// [`REPLAY_BATCHES`] batches, interleaved so the entropy/rejection
/// residual compares calls made under the same host conditions: the whole
/// call, the front end (`preprocess_dataset`) and the flat engine's group
/// votes. Returns the number of batches whose votes disagree with the
/// single-row reports.
fn replay(s: &Scan, t: &mut Tracer) -> u64 {
    let flat = s
        .detector
        .estimator()
        .ensemble()
        .flat()
        .expect("random-forest ensembles compile a flat engine");
    let batches: Vec<Dataset> = (0..DISTINCT_BATCHES)
        .map(|b| {
            let features = s.rows.rows_view(b * BATCH_ROWS..(b + 1) * BATCH_ROWS);
            Dataset::new(features.to_matrix(), vec![Label::Benign; BATCH_ROWS])
                .expect("batch dataset")
        })
        .collect();
    let mut failed = 0;
    for call in 0..REPLAY_BATCHES {
        let b = call % DISTINCT_BATCHES;
        let req = call as u64;
        let root = t.open("replay", None, req);
        let view = s.rows.rows_view(b * BATCH_ROWS..(b + 1) * BATCH_ROWS);
        let (whole, _) = time(Some(t), "core.detect_batch.replay", Some(root), req, || {
            s.detector.detect_batch(view)
        });
        let (processed, _) = time(Some(t), "core.preprocess", Some(root), req, || {
            s.detector
                .preprocess_dataset(&batches[b])
                .expect("front end")
        });
        let (votes, _) = time(Some(t), "ml.votes", Some(root), req, || {
            flat.group_votes_batch(processed.features().view())
        });
        t.close(root);
        let groups = flat.num_groups() as f64;
        let agrees = votes.iter().enumerate().all(|(offset, &v)| {
            let idx = s.source[b * BATCH_ROWS + offset];
            (f64::from(v) / groups).to_bits()
                == s.reference[idx].prediction.malware_vote_fraction.to_bits()
        });
        let agrees = agrees && whole.is_ok_and(|reports| reports.len() == BATCH_ROWS);
        if !agrees {
            eprintln!("scan_hpc: replayed votes of batch {b} differ from the reports");
            failed += 1;
        }
    }
    failed
}
