//! What a run measured, the metric catalogue it is checked against, and
//! the lines it prints.

use crate::stats::{chunked_rate, median, valid_metric_name, Chunk, Windows};
use crate::trace::Tracer;
use hmd_codec::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("unknown_escalation", "fraction"),
    ("escalation_balanced_accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// never calls into a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Set-up, every workload.
    ("dvfs.corpus_ms", "ms"),
    ("hpc.corpus_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("serve.deploy_us", "us"),
    ("net.bind_connect_ms", "ms"),
    // wire_batch.
    ("net.roundtrip_us", "us"),
    ("codec.request_encode_us", "us"),
    ("codec.request_decode_us", "us"),
    ("serve.score_us", "us"),
    ("core.detect_tile_us", "us"),
    ("codec.response_encode_us", "us"),
    ("codec.response_decode_us", "us"),
    ("net.transport_us", "us"),
    ("codec.request_bytes", "bytes"),
    ("codec.response_bytes", "bytes"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.server_refused", "count"),
    // scan_hpc.
    ("core.detect_batch_us", "us"),
    ("core.preprocess_us", "us"),
    ("ml.votes_us", "us"),
    ("core.entropy_reject_us", "us"),
    ("ml.trees", "count"),
    ("ml.split_nodes", "count"),
    ("ml.pool_threads", "count"),
    ("core.escalated_rows", "count"),
    // drift_loop.
    ("loop.retrain_ms", "ms"),
    ("loop.recover_rows", "rows"),
    ("core.refit_ms", "ms"),
    ("serve.deploy_shadow_us", "us"),
    ("serve.promote_us", "us"),
    ("serve.rollback_us", "us"),
    ("loop.tick_us", "us"),
    ("loop.ingest_us", "us"),
    ("serve.score_batch_us.champion", "us"),
    ("serve.score_batch_us.shadowed", "us"),
    ("loop.retrains", "count"),
    ("loop.promoted", "count"),
    ("loop.rejected", "count"),
    ("loop.rolled_back", "count"),
    ("loop.recovered", "count"),
    // The cost of tracing itself: wall time per request of traced chunks
    // minus that of the untraced chunks interleaved with them.
    ("trace.overhead_us", "us"),
    ("trace.spans", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Value, in the catalogue's unit.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or whose report differed from the reference.
    pub failed: u64,
    /// Measured values; the catalogue of the run's mode picks which ones
    /// the result line carries, and the rest are printed for people.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Records the median of `samples` under `name`, scaled by `scale`.
    pub fn put_median(&mut self, name: &str, samples: &[f64], scale: f64) {
        if let Some(m) = median(samples) {
            self.put(name, m * scale, samples.len());
        }
    }

    /// Adds a phase's operations to the result's counts.
    pub fn count(&mut self, phase: &Measured) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    /// Counts an untraced phase and records its end-to-end metrics other
    /// than `setup_s` and `peak_rss_mb`.
    pub fn put_measured(&mut self, phase: &Measured) {
        self.count(phase);
        self.put_rate(&phase.chunks);
        self.put_latency(&phase.latencies_us);
        phase.escalations.put(self);
    }

    /// Records `latency_p50_us`, `latency_p90_us` and `latency_p99_us`.
    ///
    /// The p99 is printed for people but is not in the catalogue: on a
    /// shared host it follows the hypervisor's steal slices more than the
    /// program (see DESIGN.md), so it is too noisy to hold a bound.
    pub fn put_latency(&mut self, latencies: &Windows) {
        if let Some(p50) = latencies.p50() {
            self.put("latency_p50_us", p50, latencies.count());
        }
        if let Some(p90) = latencies.p90() {
            self.put("latency_p90_us", p90, latencies.count());
        }
        if let Some(p99) = latencies.p99() {
            self.put("latency_p99_us", p99, latencies.count());
        }
    }

    /// Records `rows_per_s` as the median rate over throughput chunks.
    pub fn put_rate(&mut self, chunks: &[Chunk]) {
        if let Some(rate) = chunked_rate(chunks) {
            self.put("rows_per_s", rate, chunks.len());
        }
    }

    /// Records every per-layer timing metric that has spans: the median
    /// self time of the spans named after it (see [`span_name`]).
    pub fn put_span_medians(&mut self, tracer: &Tracer) {
        let self_ns = tracer.self_times_by_name();
        for &(metric, unit) in PER_LAYER {
            let Some(span) = span_name(metric, unit) else {
                continue;
            };
            let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
            if let Some(samples) = self_ns.get(span.as_str()) {
                self.put_median(metric, samples, scale);
            }
        }
        self.put("trace.spans", tracer.spans().len() as f64, 1);
    }
}

/// The span a timing metric summarises: its name without the unit
/// (`core.refit_ms` → `core.refit`, `serve.score_batch_us.shadowed` →
/// `serve.score_batch.shadowed`). `None` for metrics that are not times.
/// Metrics computed another way (residuals, `loop.retrain_ms`) have no
/// span of that name.
pub fn span_name(metric: &str, unit: &str) -> Option<String> {
    if !matches!(unit, "us" | "ms") {
        return None;
    }
    let suffix = format!("_{unit}");
    let at = metric.find(&suffix)?;
    Some(format!("{}{}", &metric[..at], &metric[at + suffix.len()..]))
}

/// Host details stamped on every result.
pub fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::object(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string())),
    ])
}

/// Peak resident set size (`VmHWM`) of this process in MB, read at exit.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one measured phase did: request latencies, throughput chunks,
/// operations attempted and failed, and escalations.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of each request, in microseconds.
    pub latencies_us: Windows,
    /// Rows and time spent inside the measured calls, per chunk.
    pub chunks: Vec<Chunk>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose report differed from the reference.
    pub failed: u64,
    /// Escalations among the rows served.
    pub escalations: Escalations,
}

/// Escalations among served rows, split by whether the row's family was
/// seen in training.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Escalations {
    unknown_rows: u64,
    unknown_escalated: u64,
    known_rows: u64,
    known_escalated: u64,
}

impl Escalations {
    /// Counts one served row.
    pub fn record(&mut self, unknown: bool, escalated: bool) {
        let escalated = u64::from(escalated);
        if unknown {
            self.unknown_rows += 1;
            self.unknown_escalated += escalated;
        } else {
            self.known_rows += 1;
            self.known_escalated += escalated;
        }
    }

    /// Rows escalated, of either kind.
    pub fn escalated(&self) -> u64 {
        self.unknown_escalated + self.known_escalated
    }

    /// Records `unknown_escalation` and `escalation_balanced_accuracy`: the
    /// mean of the unknown rows' escalation rate and the known rows'
    /// acceptance rate.
    pub fn put(&self, out: &mut Outcome) {
        let unknown = self.unknown_escalated as f64 / self.unknown_rows.max(1) as f64;
        let known_accept = 1.0 - self.known_escalated as f64 / self.known_rows.max(1) as f64;
        out.put("unknown_escalation", unknown, self.unknown_rows as usize);
        out.put(
            "escalation_balanced_accuracy",
            (unknown + known_accept) / 2.0,
            (self.unknown_rows + self.known_rows) as usize,
        );
    }
}

/// Prints the run: one human-readable line per metric (with its sample
/// count), the stamp line, and last the JSON result line.
/// Returns whether every catalogue metric was present.
pub fn print(outcome: &Outcome, workload: &str, seed: u64, traced: bool) -> bool {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut complete = true;
    let mut values: Vec<(&str, Json)> = Vec::new();
    let mut samples: Vec<(&str, Json)> = Vec::new();
    let by_name: BTreeMap<&str, &Metric> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m))
        .collect();
    println!("# {workload} seed {seed} trace {}", u8::from(traced));
    for &(name, unit) in catalogue {
        debug_assert!(valid_metric_name(name));
        let (value, n) = match by_name.get(name) {
            Some(m) if m.value.is_finite() => (m.value, m.samples),
            // A layer this workload never calls into spent no time there.
            None if traced => (0.0, 0),
            _ => {
                eprintln!("metric {name} was not measured");
                complete = false;
                continue;
            }
        };
        println!("{name:<32} {value:>16.4} {unit:<8} n={n}");
        values.push((
            name,
            Json::object(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
        samples.push((name, Json::Int(n as i64)));
    }
    let failed_fraction = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<32} {failed_fraction:>16.4} {:<8} n={}",
        "failed_fraction", "fraction", outcome.attempted
    );
    for m in &outcome.metrics {
        if !catalogue.iter().any(|(name, _)| *name == m.name) {
            println!("{:<32} {:>16.4} {:<8} n={}", m.name, m.value, "", m.samples);
        }
    }
    let stamp = Json::object(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Int(i64::try_from(seed).unwrap_or(i64::MAX))),
        ("trace", Json::Bool(traced)),
        ("host", host_stamp()),
        ("samples", Json::object(samples)),
    ]);
    println!("{stamp}");
    let correct = complete && outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::object(values)),
    ]);
    println!("{result}");
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn span_names_drop_the_unit() {
        assert_eq!(
            span_name("core.refit_ms", "ms").as_deref(),
            Some("core.refit")
        );
        assert_eq!(
            span_name("serve.score_batch_us.shadowed", "us").as_deref(),
            Some("serve.score_batch.shadowed")
        );
        assert_eq!(span_name("codec.request_bytes", "bytes"), None);
        assert_eq!(span_name("net.retries", "count"), None);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn escalations_balance_unknown_escalation_and_known_acceptance() {
        let mut e = Escalations::default();
        for i in 0..100 {
            e.record(true, i < 90);
        }
        for i in 0..200 {
            e.record(false, i < 10);
        }
        assert_eq!(e.escalated(), 100);
        let mut out = Outcome::default();
        e.put(&mut out);
        assert_eq!(out.metrics[0].name, "unknown_escalation");
        assert!((out.metrics[0].value - 0.9).abs() < 1e-12);
        assert_eq!(out.metrics[0].samples, 100);
        assert!((out.metrics[1].value - (0.9 + 0.95) / 2.0).abs() < 1e-12);
        assert_eq!(out.metrics[1].samples, 300);
    }
}
