//! `drift_loop`: repeated, independent drift episodes of the closed loop on
//! a 2-replica `ShardedFleet`.
//!
//! Each episode redeploys the original champion, calibrates a fresh
//! `LoopSupervisor` on known-mix tiles, then serves unknown-family tiles
//! until the episode closes with `Recovered` or `RolledBack`. In one
//! process the loop re-arms only once or twice, so independent episodes are
//! what give `retrain_ms` tens of samples per run. The fleet takes writes
//! (deploy, shadow, promote, rollback) beside reads (`score_batch`), and
//! the time goes to the refit and to shadow scoring.

use crate::report::{Measured, Outcome};
use crate::stats::Chunk;
use crate::trace::{time, Tracer};
use crate::{dvfs_corpora, measure, micros, repeat_setup, same_report, ENDPOINT, MODEL_SEED};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_core::detector::{load, save, Detector, DetectorConfig, DetectorExt};
use hmd_data::{Dataset, Label, Matrix};
use hmd_loop::{DriftPolicy, LoopConfig, LoopError, LoopEvent, LoopState, LoopSupervisor};
use hmd_serve::{FlushPolicy, ShardConfig, ShardedFleet};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Rows per served tile (one `score_batch` call, one supervisor tick).
const TILE: usize = 32;

/// Known-mix tiles served before the drift: three calibrate the drift
/// detector's baseline, the fourth is scored against it.
const CALIBRATION_TILES: usize = 4;

/// An episode that has not closed after this many drifted tiles fails.
const MAX_DRIFT_TILES: usize = 64;

/// Shadow/promote/rollback cycles the traced run replays.
const REPLAY_CYCLES: usize = 20;

struct Pools {
    recipe: DetectorConfig,
    /// The champion's saved document; every deploy loads a fresh copy.
    document: String,
    /// The champion itself, for checking served reports.
    champion: Box<dyn Detector>,
    fleet: Arc<ShardedFleet>,
    known: Dataset,
    drifted: Dataset,
}

fn setup(seed: u64, tracer: &mut Option<Tracer>) -> (Pools, f64) {
    let ((train, served), corpus) = time(tracer.as_mut(), "dvfs.corpus", None, 0, || {
        dvfs_corpora(seed)
    });
    let recipe = detector_config(BaseModel::RandomForest, 25, false);
    let (champion, fit) = time(tracer.as_mut(), "core.fit", None, 0, || {
        recipe
            .fit(&train, MODEL_SEED)
            .expect("paper pipeline trains")
    });
    let document = save(champion.as_ref()).expect("detector saves");
    let first_copy = load(&document).expect("saved detector loads");
    let fleet = Arc::new(ShardedFleet::with_config(
        ShardConfig::new(2).with_flush(FlushPolicy::new(TILE, Duration::from_millis(50))),
    ));
    let (_, deploy) = time(tracer.as_mut(), "serve.deploy", None, 0, || {
        fleet.deploy(ENDPOINT, first_copy).expect("deploys")
    });
    let seconds = (corpus + fit + deploy).as_secs_f64();
    (
        Pools {
            recipe,
            document,
            champion,
            fleet,
            known: served.test_known,
            drifted: served.unknown,
        },
        seconds,
    )
}

fn loop_config(recipe: &DetectorConfig) -> LoopConfig {
    let mut config = LoopConfig::new(recipe.clone());
    config.drift = DriftPolicy {
        calibration_windows: CALIBRATION_TILES - 1,
        min_window_rows: 8,
        ..DriftPolicy::default()
    };
    config.window_capacity = 8 * TILE;
    config.min_retrain_rows = 4 * TILE;
    config.shadow_rows = 2 * TILE as u64;
    config.verify_rows = 2 * TILE;
    config
}

/// `TILE` rows of `pool` starting at `offset`, wrapping around.
fn tile(pool: &Dataset, offset: usize) -> (Matrix, Vec<Label>) {
    let n = pool.len();
    let rows: Vec<Vec<f64>> = (0..TILE)
        .map(|j| pool.features().row((offset + j) % n).to_vec())
        .collect();
    let labels = (0..TILE).map(|j| pool.labels()[(offset + j) % n]).collect();
    (Matrix::from_rows(&rows).expect("uniform rows"), labels)
}

/// A measured phase of episodes (one chunk per episode, one latency per
/// tile) and the loop's own figures.
#[derive(Default)]
struct Tally {
    phase: Measured,
    retrain_ms: Vec<f64>,
    recover_rows: Vec<f64>,
    retrains: u64,
    promoted: u64,
    rejected: u64,
    rolled_back: u64,
    recovered: u64,
}

/// Runs one episode, adding it to `t` as one throughput chunk, and returns
/// the tiles it served. Only calls into the fleet and the supervisor count
/// as episode time; loading the champion's copy and checking reports happen
/// between them.
fn episode(
    p: &Pools,
    config: &LoopConfig,
    episode: u64,
    t: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> usize {
    let copy = load(&p.document).expect("saved detector loads");
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("episode", None, episode));
    let mut busy = Duration::ZERO;
    let mut tiles = 0usize;
    let (deployed, took) = time(tracer.as_deref_mut(), "serve.deploy", root, episode, || {
        p.fleet.deploy(ENDPOINT, copy)
    });
    busy += took;
    let Ok(champion_version) = deployed else {
        t.phase.failed += 1;
        t.phase.attempted += 1;
        return 1;
    };
    let mut supervisor = LoopSupervisor::new(Arc::clone(&p.fleet), ENDPOINT, config.clone());
    // Detectors that can be active this episode, by version: the
    // champion, then each challenger the supervisor promotes.
    let mut challengers: Vec<Box<dyn Detector>> = Vec::new();
    let mut versions: Vec<(u64, Option<usize>)> = vec![(champion_version, None)];
    let mut window: VecDeque<(Vec<f64>, Label)> = VecDeque::new();
    let known_offset = (episode as usize * 7 * TILE) % p.known.len();
    let drift_offset = (episode as usize * 5 * TILE) % p.drifted.len();
    let mut closed = false;
    let mut drift_rows = 0usize;
    for k in 0..CALIBRATION_TILES + MAX_DRIFT_TILES {
        let drifting = k >= CALIBRATION_TILES;
        let (rows, labels) = if drifting {
            tile(&p.drifted, drift_offset + (k - CALIBRATION_TILES) * TILE)
        } else {
            tile(&p.known, known_offset + k * TILE)
        };
        let name = if supervisor.state() == LoopState::Shadowing {
            "serve.score_batch.shadowed"
        } else {
            "serve.score_batch.champion"
        };
        let (scored, took) = time(tracer.as_deref_mut(), name, root, episode, || {
            p.fleet.score_batch(ENDPOINT, &rows)
        });
        busy += took;
        tiles += 1;
        t.phase.attempted += 1;
        t.phase.latencies_us.push(micros(took));
        let ok = match scored {
            Ok(reports) => {
                let version = reports.first().map(|r| r.version);
                let active = versions.iter().find(|(v, _)| Some(*v) == version);
                let direct = active.map(|&(_, idx)| {
                    let detector = match idx {
                        Some(i) => challengers[i].as_ref(),
                        None => p.champion.as_ref(),
                    };
                    detector.detect_batch(&rows)
                });
                for report in &reports {
                    t.phase
                        .escalations
                        .record(drifting, report.report.decision.is_escalation());
                }
                matches!(direct, Some(Ok(direct)) if direct.len() == reports.len()
                && reports.iter().zip(&direct).all(|(served, direct)| {
                    Some(served.version) == version && same_report(&served.report, direct)
                }))
            }
            Err(_) => false,
        };
        if !ok {
            eprintln!("drift_loop: episode {episode} tile {k} differs from the active detector");
            t.phase.failed += 1;
        }
        let (_, took) = time(tracer.as_deref_mut(), "loop.ingest", root, episode, || {
            for (row, &label) in rows.iter_rows().zip(&labels) {
                supervisor.ingest(row, label);
            }
        });
        busy += took;
        for (row, &label) in rows.iter_rows().zip(&labels) {
            if window.len() == config.window_capacity {
                window.pop_front();
            }
            window.push_back((row.to_vec(), label));
        }
        let seen = supervisor.events().len();
        let tick_span = tracer.as_deref().map_or(0, |t| t.spans().len());
        let (ticked, took) = time(tracer.as_deref_mut(), "loop.tick", root, episode, || {
            supervisor.tick()
        });
        busy += took;
        match ticked {
            Ok(_) | Err(LoopError::WindowStarved { .. }) => {}
            Err(e) => {
                eprintln!("drift_loop: episode {episode} tick failed: {e}");
                t.phase.failed += 1;
                break;
            }
        }
        let mut retrained = false;
        for event in &supervisor.events()[seen..] {
            match event {
                LoopEvent::Retrained { .. } => {
                    // Rebuild the challenger the supervisor fit, from the
                    // same window and seed, to check what it serves.
                    let seed = config.seed.wrapping_add(challengers.len() as u64);
                    let (rows, labels): (Vec<Vec<f64>>, Vec<Label>) =
                        window.iter().cloned().unzip();
                    let matrix = Matrix::from_rows(&rows).expect("uniform rows");
                    let (challenger, _) =
                        time(tracer.as_deref_mut(), "core.refit", root, episode, || {
                            p.recipe
                                .refit_on_window(&matrix.view(), &labels, seed)
                                .expect("challenger refits")
                        });
                    challengers.push(challenger);
                    t.retrains += 1;
                    retrained = true;
                }
                LoopEvent::Promoted { version, .. } => {
                    versions.push((*version, challengers.len().checked_sub(1)));
                    t.promoted += 1;
                }
                LoopEvent::ShadowRejected { .. } => t.rejected += 1,
                LoopEvent::RolledBack { .. } => {
                    t.rolled_back += 1;
                    closed = true;
                }
                LoopEvent::Recovered { .. } => {
                    t.recovered += 1;
                    closed = true;
                }
                _ => {}
            }
        }
        // The tick that refits and installs the shadow is the retrain; it
        // is kept apart from the other ticks and from the tiles.
        if retrained {
            t.retrain_ms.push(took.as_secs_f64() * 1e3);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.rename(tick_span, "loop.retrain_tick");
            }
        }
        if drifting {
            drift_rows += TILE;
        }
        if closed {
            break;
        }
    }
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.close(root);
    }
    if closed {
        t.recover_rows.push(drift_rows as f64);
    } else {
        eprintln!("drift_loop: episode {episode} did not close");
        t.phase.failed += 1;
    }
    t.phase.chunks.push(Chunk {
        items: (tiles * TILE) as f64,
        seconds: busy.as_secs_f64(),
    });
    tiles
}

/// Runs the workload and reports its end-to-end or per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tracer = traced.then(Tracer::new);
    let (pools, setups) = repeat_setup(|| setup(seed, &mut tracer));
    let mut out = Outcome::default();
    out.put_median("setup_s", &setups, 1.0);
    let config = loop_config(&pools.recipe);
    let mut next = 0u64;
    let (plain, spanned): (Tally, Tally) = measure(seconds, &mut tracer, &mut out, |t, spans| {
        next += 1;
        episode(&pools, &config, next - 1, t, spans)
    });
    out.put_measured(&plain.phase);
    // Loop figures of the untraced chunks, reported as layer metrics.
    out.put_median("loop.retrain_ms", &plain.retrain_ms, 1.0);
    out.put_median("loop.recover_rows", &plain.recover_rows, 1.0);
    for (name, count) in [
        ("loop.retrains", plain.retrains),
        ("loop.promoted", plain.promoted),
        ("loop.rejected", plain.rejected),
        ("loop.rolled_back", plain.rolled_back),
        ("loop.recovered", plain.recovered),
    ] {
        out.put(name, count as f64, plain.phase.chunks.len());
    }
    out.count(&spanned.phase);
    if let Some(t) = tracer.as_mut() {
        match replay_writes(&pools, t) {
            Ok(()) => out.attempted += REPLAY_CYCLES as u64,
            Err(e) => {
                eprintln!("drift_loop: fleet write replay failed: {e}");
                out.attempted += 1;
                out.failed += 1;
            }
        }
        out.put_span_medians(t);
        crate::write_spans(t, "drift_loop");
    }
    out
}

/// Replays the fleet's write path [`REPLAY_CYCLES`] times on a fresh
/// 2-replica fleet: install a shadow, promote it, roll back.
fn replay_writes(p: &Pools, t: &mut Tracer) -> Result<(), String> {
    let fleet = ShardedFleet::with_config(ShardConfig::new(2));
    let copy = load(&p.document).map_err(|e| e.to_string())?;
    fleet.deploy(ENDPOINT, copy).map_err(|e| e.to_string())?;
    for cycle in 0..REPLAY_CYCLES as u64 {
        let copy = load(&p.document).map_err(|e| e.to_string())?;
        time(Some(t), "serve.deploy_shadow", None, cycle, || {
            fleet.deploy_shadow(ENDPOINT, copy)
        })
        .0
        .map_err(|e| e.to_string())?;
        time(Some(t), "serve.promote", None, cycle, || {
            fleet.promote_shadow(ENDPOINT)
        })
        .0
        .map_err(|e| e.to_string())?;
        time(Some(t), "serve.rollback", None, cycle, || {
            fleet.rollback(ENDPOINT)
        })
        .0
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}
