//! Order statistics and the result line the benchmark prints.

/// The `p`-th percentile (0..=100) of `values` by nearest rank on the
/// sorted samples; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile with at least ten samples beyond it, capped at
/// the 99th and floored at the median.
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).floor().clamp(50.0, 99.0)
}

/// Named metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keeps only `names`, in that order, filling absent ones with 0.
    pub fn select(&self, names: &[(String, &'static str)]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|(name, unit)| (name.clone(), self.get(name).unwrap_or(0.0), *unit))
                .collect(),
        )
    }

    /// The metrics whose names start with `prefix`.
    pub fn select_prefix(&self, prefix: &str) -> Metrics {
        Metrics(
            self.0
                .iter()
                .filter(|(n, _, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
        )
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run reports: whether every correctness gate held, how many
/// operations were attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub gate_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a correctness gate; a violated one fails the run.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.to_json()
        )
    }
}
