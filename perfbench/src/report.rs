//! Sample statistics and the report every run prints.
//!
//! Human-readable lines (host facts, each metric with its sample count)
//! go first; the last line of standard output is the one JSON object
//! with exactly the keys `correct`, `attempted`, `failed` and `metrics`.

/// Nearest-rank percentile of `xs` (`q` in 0..=1). Sorts a copy.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The quantile `stream_fps` reads: the fastest tenth of the closed
/// loop's windows. The host is shared, and other tenants slow it in bursts
/// of seconds to minutes; the fastest tenth estimates the uncontended
/// speed, while a slower program still shifts every sample.
pub const FAST: f64 = 0.1;

/// Rate at the `FAST` quantile from the top (a high rate).
pub fn fast_rate(xs: &[f64]) -> f64 {
    percentile(xs, 1.0 - FAST)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (percentiles) or `None` for derived values.
    samples: Option<usize>,
}

pub struct Report {
    metrics: Vec<Metric>,
    facts: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that were not bit-exact against the scalar reference.
    pub mismatches: u64,
}

impl Report {
    pub fn new() -> Self {
        Report {
            metrics: Vec::new(),
            facts: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
        }
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, None);
    }

    /// A value read from `n` samples (a percentile or a median).
    pub fn add_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(name.into(), value, unit, Some(n));
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, samples: Option<usize>) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// A host or input fact, printed before the metrics and written into
    /// the trace file.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The facts as JSON members, for the trace file header.
    pub fn facts_json(&self) -> String {
        let members: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        members.join(", ")
    }

    /// Counts one attempted operation and whether its output was correct.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Counts one attempted operation that produced no output (a frame
    /// refused, shed or failed by the stream).
    pub fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Prints the facts and one line per metric, then the result object as
    /// the last line.
    pub fn print(&self) {
        for (k, v) in &self.facts {
            println!("# {k}: {v}");
        }
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("{} = {} {} (n={n})", m.name, m.value, m.unit),
                None => println!("{} = {} {}", m.name, m.value, m.unit),
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn geomean_weighs_each_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
