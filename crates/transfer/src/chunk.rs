//! Splitting one transfer's bytes across parallel paths (paper §4.3.3).
//!
//! On heterogeneous NVLink paths GROUTER sizes per-path shares
//! proportionally to path capacity, so all paths drain at the same time
//! (minimising tail latency). Chunking itself (2 MB chunks in batches of
//! 5) is the [`crate::pipeline`] model's.

/// Split `bytes` across items proportionally to their capacities (bytes/s),
/// so every path finishes at the same instant: `field` reaches each item's
/// capacity, which is overwritten with its share. Shares sum to `bytes`;
/// items with non-positive capacity get zero. The planners keep a
/// candidate flow's capacity in its byte count, so a plan is split without
/// side vectors.
pub fn split_in_place<T>(bytes: f64, items: &mut [T], field: impl Fn(&mut T) -> &mut f64) {
    let total: f64 = items
        .iter_mut()
        .map(|t| *field(t))
        .filter(|&c| c > 0.0)
        .sum();
    if total <= 0.0 {
        items.iter_mut().for_each(|t| *field(t) = 0.0);
        return;
    }
    for t in items {
        let c = field(t);
        *c = if *c > 0.0 { bytes * *c / total } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shares of `bytes` over paths of the given capacities.
    fn split(bytes: f64, capacities: &[f64]) -> Vec<f64> {
        let mut shares = capacities.to_vec();
        split_in_place(bytes, &mut shares, |c| c);
        shares
    }

    #[test]
    fn proportional_split_equalises_finish_times() {
        // Paper: a 48 GB/s link gets twice the share of a 24 GB/s link.
        let shares = split(90.0, &[48e9, 24e9, 24e9]);
        assert_eq!(shares, vec![45.0, 22.5, 22.5]);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 90.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_paths_get_nothing() {
        let shares = split(10.0, &[0.0, 5.0, -1.0]);
        assert_eq!(shares, vec![0.0, 10.0, 0.0]);
    }

    #[test]
    fn no_usable_paths_yields_zeros() {
        assert_eq!(split(10.0, &[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(split(10.0, &[]), Vec::<f64>::new());
    }
}
