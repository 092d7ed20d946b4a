//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) by linear interpolation between closest
/// ranks; `NaN` for no samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median; `NaN` for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean; `NaN` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
