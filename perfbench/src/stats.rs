//! Summary statistics the benchmark reports: nearest-rank percentiles that
//! refuse to report a tail the sample cannot support, medians over fixed
//! windows, and the metric-name grammar.

/// A percentile is only reported when at least this many samples lie beyond
/// it, so a p99 from 500 samples (5 beyond) is refused, not guessed.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`: the value of
/// rank `ceil(p / 100 * n)` in ascending order.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie above that rank
/// (so p50 needs 20 samples and p99 needs 1000), or for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples per latency window: a window this size has [`MIN_BEYOND`]
/// samples beyond its p99.
pub const WINDOW: usize = 1000;

/// Per-window percentiles of a latency stream.
///
/// Samples are cut into consecutive windows of a fixed size; each full
/// window's p50, p90 and p99 are kept and the window's samples dropped, so
/// memory does not grow with the run. The reported figure is the median
/// over windows: one host stall inflates the tail of the window it lands in
/// and moves the median of windows by at most one rank, where it would move
/// a pooled p99 directly. A trailing partial window is ignored.
#[derive(Debug, Clone)]
pub struct Windows {
    window: usize,
    current: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    p99s: Vec<f64>,
    count: usize,
}

impl Windows {
    /// Windows of `window` samples.
    pub fn new(window: usize) -> Windows {
        Windows {
            window,
            current: Vec::with_capacity(window),
            p50s: Vec::new(),
            p90s: Vec::new(),
            p99s: Vec::new(),
            count: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.current.push(value);
        if self.current.len() == self.window {
            if let (Some(p50), Some(p90), Some(p99)) = (
                percentile(&self.current, 50.0),
                percentile(&self.current, 90.0),
                percentile(&self.current, 99.0),
            ) {
                self.p50s.push(p50);
                self.p90s.push(p90);
                self.p99s.push(p99);
            }
            self.current.clear();
        }
    }

    /// Median over full windows of the window p50.
    pub fn p50(&self) -> Option<f64> {
        median(&self.p50s)
    }

    /// Median over full windows of the window p90.
    pub fn p90(&self) -> Option<f64> {
        median(&self.p90s)
    }

    /// Median over full windows of the window p99.
    pub fn p99(&self) -> Option<f64> {
        median(&self.p99s)
    }

    /// Samples pushed, including those of a trailing partial window.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Default for Windows {
    fn default() -> Windows {
        Windows::new(WINDOW)
    }
}

/// Throughput of one chunk of work: `items / seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Work items completed in the chunk (rows).
    pub items: f64,
    /// Wall seconds the chunk took.
    pub seconds: f64,
}

/// Median over chunks of each chunk's rate, so one slow chunk cannot swing
/// the figure the way it swings total items over total time. Chunks with no
/// elapsed time are skipped; `None` when none remain.
pub fn chunked_rate(chunks: &[Chunk]) -> Option<f64> {
    let rates: Vec<f64> = chunks
        .iter()
        .filter(|c| c.seconds > 0.0)
        .map(|c| c.items / c.seconds)
        .collect();
    median(&rates)
}

/// The metric-name grammar: 1 to 64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the percentile must sort before ranking.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        // n = 1000: p99 is rank 990, with exactly 10 samples beyond it.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // p50 of 1..=100 is rank 50.
        assert_eq!(percentile(&ramp(100), 50.0), Some(50.0));
        // A fractional rank rounds up: p50 of 1..=101 is rank 51.
        assert_eq!(percentile(&ramp(101), 50.0), Some(51.0));
    }

    #[test]
    fn percentile_refuses_tails_with_fewer_than_ten_beyond() {
        // n = 999: p99 rank is ceil(989.01) = 990, leaving 9 beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // p50 needs 20 samples: rank 10 of 20 leaves 10 beyond.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        // p100 never has anything beyond it.
        assert_eq!(percentile(&ramp(5000), 100.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
    }

    #[test]
    fn windows_report_the_median_of_window_percentiles() {
        // Three windows of 1000 whose p50s are 500, 1500 and 10500, whose
        // p90s are 900, 1900 and 10900 and whose p99s are 990, 1990 and
        // 10990; a trailing partial window of huge values is ignored.
        let mut w = Windows::new(1000);
        for base in [0.0, 1000.0, 10_000.0] {
            for v in (1..=1000).rev() {
                w.push(base + v as f64);
            }
        }
        for _ in 0..500 {
            w.push(1e9);
        }
        assert_eq!(w.p50(), Some(1500.0));
        assert_eq!(w.p90(), Some(1900.0));
        assert_eq!(w.p99(), Some(1990.0));
        assert_eq!(w.count(), 3500);
    }

    #[test]
    fn one_stalled_window_cannot_move_the_median_of_three() {
        let mut w = Windows::new(1000);
        for base in [0.0, 1e12, 1000.0] {
            for v in 1..=1000 {
                w.push(base + v as f64);
            }
        }
        assert_eq!(w.p50(), Some(1500.0));
        assert_eq!(w.p90(), Some(1900.0));
        assert_eq!(w.p99(), Some(1990.0));
    }

    #[test]
    fn windows_too_small_for_a_p99_report_nothing() {
        let mut w = Windows::new(999);
        for v in 0..5000 {
            w.push(v as f64);
        }
        assert_eq!(w.p99(), None);
        assert_eq!(Windows::new(1000).p50(), None);
    }

    #[test]
    fn chunked_rate_is_the_median_chunk_rate() {
        let chunks = [
            Chunk {
                items: 1000.0,
                seconds: 0.10,
            },
            Chunk {
                items: 1000.0,
                seconds: 0.08,
            },
            // A host stall: one chunk ten times slower.
            Chunk {
                items: 1000.0,
                seconds: 1.00,
            },
            Chunk {
                items: 500.0,
                seconds: 0.05,
            },
            Chunk {
                items: 7.0,
                seconds: 0.0,
            },
        ];
        // Rates 10000, 12500, 1000, 10000 (zero-time chunk skipped).
        assert_eq!(chunked_rate(&chunks), Some(10_000.0));
        // Pooled throughput would read 3500 / 1.23 ≈ 2846 rows/s.
        assert_eq!(chunked_rate(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in [
            "setup_s",
            "latency_p99_us",
            "serve.score_batch_us.shadowed",
            "net.transport_us",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_leading",
            ".dot",
            "-dash",
            "has space",
            "µs",
            "slash/name",
            "brace{}",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }
}
