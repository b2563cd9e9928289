//! Metric registry: counters, gauges, and fixed-bucket histograms
//! addressed by a static name plus key-value labels.

use std::collections::HashMap;

/// Label set attached to a metric or span: static keys, owned values.
pub type Labels = Vec<(&'static str, String)>;

/// Default histogram buckets (upper bounds), spanning the ratios and
/// sub-second latencies the simulators produce. Callers with a known
/// domain should pass explicit buckets instead.
pub const DEFAULT_BUCKETS: &[f64] = &[
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.5, 10.0, 100.0,
];

/// One metric's identity inside the registry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetricKey {
    pub(crate) name: &'static str,
    pub(crate) labels: Labels,
}

/// Current value of a metric.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MetricValue {
    Counter { value: u64 },
    Gauge { value: f64 },
    Histogram { histogram: HistogramSnapshot },
}

/// Frozen view of a histogram: cumulative-style bucket counts plus
/// aggregate statistics.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bounds of each bucket; values above the last bound land
    /// in the overflow count.
    pub(crate) bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts, one per bound.
    pub(crate) counts: Vec<u64>,
    /// Observations above the last bound.
    pub(crate) overflow: u64,
    pub count: u64,
    pub(crate) sum: f64,
    pub min: f64,
    pub max: f64,
}

#[cfg(test)]
impl HistogramSnapshot {
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        match self.bounds.iter().position(|&b| value <= b) {
            // position() came from bounds, and counts is built with
            // bounds.len() slots, so the slot always exists.
            Some(i) => match self.counts.get_mut(i) {
                Some(c) => *c += 1,
                None => self.overflow += 1,
            },
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            overflow: self.overflow,
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// Aggregate timing statistics for one span path.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanStats {
    pub(crate) path: String,
    pub count: u64,
    pub(crate) total_s: f64,
    pub(crate) min_s: f64,
    pub(crate) max_s: f64,
}

/// Frozen view of one registered metric.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricSnapshot {
    pub name: String,
    pub(crate) labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// Frozen view of the whole registry at one instant.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    pub metrics: Vec<MetricSnapshot>,
    pub(crate) spans: Vec<SpanStats>,
}

impl Snapshot {
    fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Total over every label combination of counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match &m.value {
                MetricValue::Counter { value } => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// First gauge registered under `name`, any labels.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.find(name).and_then(|m| match &m.value {
            MetricValue::Gauge { value } => Some(*value),
            _ => None,
        })
    }

    /// First histogram registered under `name`, any labels.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.find(name).and_then(|m| match &m.value {
            MetricValue::Histogram { histogram } => Some(histogram),
            _ => None,
        })
    }

    /// Aggregate stats of the span whose full path is `path`.
    pub fn span(&self, path: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.path == path)
    }
}

/// Mutable store behind the `Telemetry` handle's mutex.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    metrics: HashMap<MetricKey, Slot>,
    spans: HashMap<String, SpanStats>,
}

impl Registry {
    pub(crate) fn incr(&mut self, key: MetricKey, delta: u64) {
        match self.metrics.entry(key).or_insert_with(|| Slot::Counter(0)) {
            Slot::Counter(v) => *v += delta,
            other => *other = Slot::Counter(delta),
        }
    }

    pub(crate) fn gauge(&mut self, key: MetricKey, value: f64) {
        self.metrics.insert(key, Slot::Gauge(value));
    }

    pub(crate) fn observe(&mut self, key: MetricKey, buckets: &[f64], value: f64) {
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Histogram::new(buckets)))
        {
            Slot::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::new(buckets);
                h.observe(value);
                *other = Slot::Histogram(h);
            }
        }
    }

    pub(crate) fn record_span(&mut self, path: &str, seconds: f64) {
        let stats = self
            .spans
            .entry(path.to_string())
            .or_insert_with(|| SpanStats {
                path: path.to_string(),
                count: 0,
                total_s: 0.0,
                min_s: f64::INFINITY,
                max_s: 0.0,
            });
        stats.count += 1;
        stats.total_s += seconds;
        stats.min_s = stats.min_s.min(seconds);
        stats.max_s = stats.max_s.max(seconds);
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<MetricSnapshot> = self
            .metrics
            .iter()
            .map(|(key, slot)| MetricSnapshot {
                name: key.name.to_string(),
                labels: key
                    .labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match slot {
                    Slot::Counter(v) => MetricValue::Counter { value: *v },
                    Slot::Gauge(v) => MetricValue::Gauge { value: *v },
                    Slot::Histogram(h) => MetricValue::Histogram {
                        histogram: h.snapshot(),
                    },
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut spans: Vec<SpanStats> = self.spans.values().cloned().collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        Snapshot { metrics, spans }
    }
}
