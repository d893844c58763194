//! `wire_batch`: `ScoreBatch` frames of one tile of rows each, sent by one
//! `FleetClient` over loopback to a `FleetServer` in front of a 1-replica
//! `ShardedFleet`.
//!
//! This is the full request path: client encode, TCP, server decode, shard
//! scoring, reply encode, client decode. The JSON codec carries every
//! feature of every row both ways, so codec and server changes show here.
//! A tile of rows per frame spreads the cost of the loopback's thread
//! wake-ups, which follow the host's load, over the rows it carries.

use crate::report::{Measured, Outcome};
use crate::stats::Chunk;
use crate::trace::{time, Tracer};
use crate::{
    dvfs_corpora, measure, micros, repeat_setup, same_report, shuffled_rows, ENDPOINT, MODEL_SEED,
};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_codec::frame::{encode_frame, FrameHeader, HEADER_LEN};
use hmd_codec::Json;
use hmd_core::detector::{load, save, Detector, DetectorExt};
use hmd_core::trusted::DetectionReport;
use hmd_data::Matrix;
use hmd_serve::net::wire::{FrameKind, Request, Response, PROTOCOL_VERSION};
use hmd_serve::{
    ClientConfig, FleetClient, FleetServer, ServerConfig, ShardConfig, ShardedFleet, ShardedReport,
};
use std::sync::Arc;
use std::time::Duration;

/// Rows per `ScoreBatch` frame.
const TILE: usize = 32;

/// Requests per throughput chunk.
const CHUNK: usize = 100;

/// Requests whose hops the traced run replays one by one.
const REPLAY_REQUESTS: usize = 500;

struct Served {
    fleet: Arc<ShardedFleet>,
    server: FleetServer,
    client: FleetClient,
    /// Known-test and unknown rows, shuffled together, cut into tiles
    /// (the last one wraps around to the first rows).
    tiles: Vec<Matrix>,
    /// Pool index of each row of each tile.
    source: Vec<Vec<usize>>,
    unknown: Vec<bool>,
    /// The deployed detector's direct `detect_batch` report per pool row.
    reference: Vec<DetectionReport>,
    /// The deployed detector's saved document, for the traced replay.
    document: String,
}

fn setup(seed: u64, tracer: &mut Option<Tracer>) -> (Served, f64) {
    let ((train, served), corpus) = time(tracer.as_mut(), "dvfs.corpus", None, 0, || {
        dvfs_corpora(seed)
    });
    let (pool, unknown) = shuffled_rows(&served.test_known, &served.unknown, seed);
    let (detector, fit) = time(tracer.as_mut(), "core.fit", None, 0, || {
        detector_config(BaseModel::RandomForest, 25, false)
            .fit(&train, MODEL_SEED)
            .expect("paper pipeline trains")
    });
    let reference = detector.detect_batch(&pool).expect("reference reports");
    let document = save(detector.as_ref()).expect("detector saves");
    let source: Vec<Vec<usize>> = (0..pool.rows().div_ceil(TILE))
        .map(|t| {
            (t * TILE..(t + 1) * TILE)
                .map(|i| i % pool.rows())
                .collect()
        })
        .collect();
    let tiles = source
        .iter()
        .map(|idx| {
            let rows: Vec<Vec<f64>> = idx.iter().map(|&i| pool.row(i).to_vec()).collect();
            Matrix::from_rows(&rows).expect("uniform rows")
        })
        .collect();
    let fleet = Arc::new(ShardedFleet::with_config(ShardConfig::new(1)));
    let (_, deploy) = time(tracer.as_mut(), "serve.deploy", None, 0, || {
        fleet.deploy(ENDPOINT, detector).expect("deploys")
    });
    let ((server, client), bind) = time(tracer.as_mut(), "net.bind_connect", None, 0, || {
        let server = FleetServer::bind(Arc::clone(&fleet), ServerConfig::new()).expect("binds");
        let client =
            FleetClient::connect(server.local_addr(), ClientConfig::new()).expect("connects");
        (server, client)
    });
    (
        Served {
            fleet,
            server,
            client,
            tiles,
            source,
            unknown,
            reference,
            document,
        },
        (corpus + fit + deploy + bind).as_secs_f64(),
    )
}

/// Whether every report of a served tile matches the direct reports of its
/// rows.
fn tile_agrees(reports: &[ShardedReport], source: &[usize], reference: &[DetectionReport]) -> bool {
    reports.len() == source.len()
        && reports
            .iter()
            .zip(source)
            .all(|(r, &idx)| same_report(&r.report, &reference[idx]))
}

/// Sends one chunk of [`CHUNK`] requests; returns the requests sent.
fn serve(served: &mut Served, tally: &mut Measured, mut tracer: Option<&mut Tracer>) -> usize {
    let mut busy = Duration::ZERO;
    for _ in 0..CHUNK {
        let i = tally.attempted as usize;
        let k = i % served.tiles.len();
        let tile = &served.tiles[k];
        let client = &mut served.client;
        let (result, took) = time(
            tracer.as_deref_mut(),
            "net.roundtrip",
            None,
            i as u64,
            || client.score_batch(ENDPOINT, std::hint::black_box(tile)),
        );
        busy += took;
        tally.latencies_us.push(micros(took));
        tally.attempted += 1;
        match result {
            Ok(reports) if tile_agrees(&reports, &served.source[k], &served.reference) => {
                for (r, &idx) in reports.iter().zip(&served.source[k]) {
                    tally
                        .escalations
                        .record(served.unknown[idx], r.report.decision.is_escalation());
                }
            }
            Ok(_) => {
                eprintln!("wire_batch: tile {k} served reports that differ from detect_batch");
                tally.failed += 1;
            }
            Err(e) => {
                eprintln!("wire_batch: request {i} failed: {e}");
                tally.failed += 1;
            }
        }
    }
    tally.chunks.push(Chunk {
        items: (CHUNK * TILE) as f64,
        seconds: busy.as_secs_f64(),
    });
    CHUNK
}

/// Runs the workload and reports its end-to-end or per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tracer = traced.then(Tracer::new);
    let (mut served, setups) = repeat_setup(|| setup(seed, &mut tracer));
    let mut out = Outcome::default();
    out.put_median("setup_s", &setups, 1.0);
    let (plain, spanned): (Measured, Measured) =
        measure(seconds, &mut tracer, &mut out, |tally, t| {
            serve(&mut served, tally, t)
        });
    out.put_measured(&plain);
    out.count(&spanned);
    if let Some(t) = tracer.as_mut() {
        let (attempted, failed, request_bytes, response_bytes) = replay(&mut served, t);
        out.attempted += attempted;
        out.failed += failed;
        out.put("codec.request_bytes", request_bytes, REPLAY_REQUESTS);
        out.put("codec.response_bytes", response_bytes, REPLAY_REQUESTS);
        out.put_span_medians(t);
        let self_ns = t.self_times_by_name();
        let m = |name: &str| crate::stats::median(&self_ns[name]).unwrap_or(0.0) / 1e3;
        let score = m("serve.score_batch.replay");
        out.put(
            "serve.score_us",
            score - m("core.detect_tile"),
            REPLAY_REQUESTS,
        );
        out.put(
            "net.transport_us",
            m("net.roundtrip.replay")
                - m("codec.request_encode")
                - m("codec.request_decode")
                - score
                - m("codec.response_encode")
                - m("codec.response_decode"),
            REPLAY_REQUESTS,
        );
        let client = served.client.stats();
        out.put("net.retries", client.retries as f64, 1);
        out.put(
            "net.reconnects",
            client.connects.saturating_sub(1) as f64,
            1,
        );
        out.put(
            "net.server_refused",
            served.server.stats().shed_connections as f64,
            1,
        );
        crate::write_spans(t, "wire_batch");
    }
    served.server.shutdown();
    out
}

/// Replays each hop of the request path on [`REPLAY_REQUESTS`] tiles
/// through its public function, one span per hop under a `replay` root.
/// Returns `(attempted, failed, median request frame bytes, median response
/// frame bytes)`.
fn replay(served: &mut Served, t: &mut Tracer) -> (u64, u64, f64, f64) {
    let detector: Box<dyn Detector> = load(&served.document).expect("saved detector loads");
    let mut failed = 0u64;
    let mut request_bytes = Vec::with_capacity(REPLAY_REQUESTS);
    let mut response_bytes = Vec::with_capacity(REPLAY_REQUESTS);
    for i in 0..REPLAY_REQUESTS {
        let k = i % served.tiles.len();
        let tile = &served.tiles[k];
        let req = i as u64;
        let root = t.open("replay", None, req);

        let client = &mut served.client;
        let (over_wire, _) = time(Some(t), "net.roundtrip.replay", Some(root), req, || {
            client.score_batch(ENDPOINT, tile)
        });

        let ((request, frame), _) = time(Some(t), "codec.request_encode", Some(root), req, || {
            let request = Request::ScoreBatch {
                endpoint: ENDPOINT.to_string(),
                rows: tile.iter_rows().map(<[f64]>::to_vec).collect(),
            };
            let frame = encode_frame(
                PROTOCOL_VERSION,
                request.kind().as_u8(),
                &request.to_json().to_string(),
            )
            .expect("request frame encodes");
            (request, frame)
        });
        request_bytes.push(frame.len() as f64);

        let (decoded, _) = time(Some(t), "codec.request_decode", Some(root), req, || {
            decode(&frame)
                .and_then(|(kind, json)| Request::from_wire(kind, &json).map_err(|e| e.to_string()))
        });
        if decoded.as_ref() != Ok(&request) {
            failed += 1;
        }

        let fleet = &served.fleet;
        let (scored, _) = time(Some(t), "serve.score_batch.replay", Some(root), req, || {
            fleet.score_batch(ENDPOINT, tile)
        });
        let (direct, _) = time(Some(t), "core.detect_tile", Some(root), req, || {
            detector.detect_batch(tile)
        });

        let Ok(scored) = scored else {
            failed += 1;
            t.close(root);
            continue;
        };
        let (frame, _) = time(Some(t), "codec.response_encode", Some(root), req, || {
            let response = Response::ScoreBatch(scored);
            encode_frame(
                PROTOCOL_VERSION,
                response.kind().as_u8(),
                &response.to_json().to_string(),
            )
            .expect("response frame encodes")
        });
        response_bytes.push(frame.len() as f64);

        let (decoded, _) = time(Some(t), "codec.response_decode", Some(root), req, || {
            decode(&frame).and_then(|(kind, json)| {
                Response::from_wire(kind, &json).map_err(|e| e.to_string())
            })
        });
        t.close(root);

        let source = &served.source[k];
        let reference = &served.reference;
        let agrees = match (&over_wire, &decoded, &direct) {
            (Ok(served), Ok(Response::ScoreBatch(decoded)), Ok(direct)) => {
                tile_agrees(served, source, reference)
                    && tile_agrees(decoded, source, reference)
                    && direct.len() == source.len()
                    && direct
                        .iter()
                        .zip(source)
                        .all(|(d, &idx)| same_report(d, &reference[idx]))
            }
            _ => false,
        };
        if !agrees {
            eprintln!("wire_batch: replayed tile {k} differs from detect_batch");
            failed += 1;
        }
    }
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    (
        REPLAY_REQUESTS as u64,
        failed,
        median(&request_bytes),
        median(&response_bytes),
    )
}

/// Splits a frame into its kind and parsed payload, as the server's reader
/// does: header parse, UTF-8 check, JSON parse.
fn decode(frame: &[u8]) -> Result<(FrameKind, Json), String> {
    let header: &[u8; HEADER_LEN] = frame
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or("short frame")?;
    let header = FrameHeader::parse(header).map_err(|e| e.to_string())?;
    let kind = FrameKind::from_u8(header.kind).ok_or("unknown frame kind")?;
    let payload = std::str::from_utf8(&frame[HEADER_LEN..]).map_err(|e| e.to_string())?;
    let json = Json::parse(payload).map_err(|e| e.to_string())?;
    Ok((kind, json))
}
