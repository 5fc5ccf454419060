//! Sample statistics shared by the storage and analytics layers.

/// Quantile by linear interpolation between the closest ranks of the
/// sorted sample, `q` in `[0, 1]`; `None` for an empty sample or a `q`
/// outside that range. A TSDB `Median`/`P95` and the analytics quantile are
/// both this function, so a dashboard percentile equals the analytics one
/// bit for bit. Panic-free: the query path reaches it.
#[inline]
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    match (v.get(lo), v.get(hi)) {
        (Some(&a), Some(&b)) => Some(a + (b - a) * frac),
        _ => None,
    }
}
