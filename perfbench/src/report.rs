//! What one run hands back, and the JSON line the benchmark prints last.

use crate::stats::Summary;
use crate::trace::Span;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, for example `ms`.
    pub unit: &'static str,
    /// The measured value, all digits kept.
    pub value: f64,
}

/// Where a reported tail percentile came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TailNote {
    /// The metric reporting the tail.
    pub metric: &'static str,
    /// The percentile reported (for example `99.9`).
    pub percentile: f64,
    /// Samples behind it.
    pub samples: usize,
}

/// The result of running one workload once.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<Metric>,
    /// Which percentile each tail metric reports, with its sample count.
    pub tails: Vec<TailNote>,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Recorded spans (traced run only).
    pub spans: Vec<Span>,
    /// The metric `trace.overhead_frac` compares, with this run's value.
    pub overhead_reference: Option<(&'static str, f64)>,
    /// Further named figures for the info line (for example how late the
    /// load generator ran).
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric { name, unit, value });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric { name, unit, value });
    }

    /// Reports the latency of the call a workload is about: median and tail
    /// as end-to-end metrics.
    pub fn primary(&mut self, s: Summary) {
        self.e2e("primary_p50_ms", "ms", s.p50);
        self.tail("primary_tail_ms", s);
    }

    /// Reports the latency of a workload's other call: its tail as an
    /// end-to-end metric, its median per layer (unbounded; see
    /// `secondary_p50_ms` in the metric table).
    pub fn secondary(&mut self, s: Summary) {
        self.layer("secondary_p50_ms", "ms", s.p50);
        self.tail("secondary_tail_ms", s);
    }

    fn tail(&mut self, name: &'static str, s: Summary) {
        self.e2e(name, "ms", s.tail);
        self.tails.push(TailNote {
            metric: name,
            percentile: s.tail_q * 100.0,
            samples: s.samples,
        });
    }

    /// Looks up a metric value by name in either list.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and the chosen
    /// metric list.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            body.join(",")
        )
    }

    /// A JSON line describing the tails, any failed checks, the overhead
    /// reference and the notes.
    pub fn info_json(&self) -> String {
        let tails: Vec<String> = self
            .tails
            .iter()
            .map(|t| {
                format!(
                    "\"{}\":{{\"percentile\":{},\"samples\":{}}}",
                    t.metric, t.percentile, t.samples
                )
            })
            .collect();
        let fails: Vec<String> = self
            .check_failures
            .iter()
            .map(|f| format!("\"{}\"", kcv_obs::json_escape(f)))
            .collect();
        let reference = self.overhead_reference.map_or_else(
            || "null".to_string(),
            |(m, v)| format!("{{\"metric\":\"{m}\",\"value\":{}}}", json_number(v)),
        );
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(name, v)| format!("\"{name}\":{}", json_number(*v)))
            .collect();
        format!(
            "{{\"tails\":{{{}}},\"check_failures\":[{}],\"overhead_reference\":{reference},\"notes\":{{{}}}}}",
            tails.join(","),
            fails.join(","),
            notes.join(",")
        )
    }
}

/// A finite float as JSON, full precision (`Display` is shortest
/// round-trip); non-finite values, which JSON cannot carry, become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
