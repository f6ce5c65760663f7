//! Order statistics and the metric table a run fills in.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median over groups of each group's `q`-quantile. A group measured
/// while the host ran slow moves it less than it moves the quantile of
/// all samples pooled.
pub fn quantile_of_groups<'a>(groups: impl IntoIterator<Item = &'a [f64]>, q: f64) -> f64 {
    median(
        &groups
            .into_iter()
            .map(|g| quantile(g, q))
            .collect::<Vec<_>>(),
    )
}

/// Each group's `q`-quantile to three decimals, as a JSON array.
pub fn rounded_quantiles<'a>(groups: impl IntoIterator<Item = &'a [f64]>, q: f64) -> String {
    let v: Vec<f64> = groups
        .into_iter()
        .map(|g| (quantile(g, q) * 1e3).round() / 1e3)
        .collect();
    format!("{v:?}")
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Metric values by name, each with its unit.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}
