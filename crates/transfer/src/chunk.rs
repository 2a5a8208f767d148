//! Chunking and batching arithmetic (paper §4.3.1–§4.3.3).
//!
//! GROUTER splits every transfer into 2 MB chunks pipelined across GPU
//! streams, groups chunks into batches of 5 so newly arrived functions can
//! preempt bandwidth at batch boundaries, and — on heterogeneous NVLink
//! paths — sizes per-path shares proportionally to path capacity so all
//! paths drain at the same time (minimising tail latency).

use grouter_sim::params;

/// Shape of one transfer after chunking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkPlan {
    /// Total bytes.
    pub bytes: f64,
    /// Number of chunks (≥ 1 for non-empty transfers).
    pub chunks: usize,
    /// Number of batches (≥ 1 for non-empty transfers).
    pub batches: usize,
}

/// Number of `chunk_size`-byte chunks needed for `bytes`.
pub fn chunk_count(bytes: f64, chunk_size: f64) -> usize {
    assert!(chunk_size > 0.0, "chunk size must be positive");
    if bytes <= 0.0 {
        return 0;
    }
    (bytes / chunk_size).ceil() as usize
}

impl ChunkPlan {
    /// Chunk a transfer with the paper's defaults (2 MB chunks, 5 per batch).
    pub fn with_defaults(bytes: f64) -> ChunkPlan {
        ChunkPlan::new(bytes, params::CHUNK_SIZE, params::CHUNKS_PER_BATCH)
    }

    pub fn new(bytes: f64, chunk_size: f64, chunks_per_batch: usize) -> ChunkPlan {
        assert!(chunks_per_batch > 0, "batch must hold at least one chunk");
        let chunks = chunk_count(bytes, chunk_size);
        let batches = chunks.div_ceil(chunks_per_batch);
        ChunkPlan {
            bytes: bytes.max(0.0),
            chunks,
            batches,
        }
    }
}

/// Split `bytes` across paths proportionally to their `capacities`
/// (bytes/s), so every path finishes at the same instant. Returns one share
/// per capacity; shares sum to `bytes`. Paths with non-positive capacity get
/// zero.
pub fn proportional_split(bytes: f64, capacities: &[f64]) -> Vec<f64> {
    let mut shares = capacities.to_vec();
    split_in_place(bytes, &mut shares, |c| c);
    shares
}

/// [`proportional_split`] over the items' own fields: `field` reaches each
/// item's capacity, which is overwritten with its share. The planners keep
/// a candidate flow's capacity in its byte count, so a plan is split
/// without side vectors.
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

    #[test]
    fn chunk_counts_round_up() {
        assert_eq!(chunk_count(0.0, 2e6), 0);
        assert_eq!(chunk_count(1.0, 2e6), 1);
        assert_eq!(chunk_count(2e6, 2e6), 1);
        assert_eq!(chunk_count(2e6 + 1.0, 2e6), 2);
    }

    #[test]
    fn default_plan_matches_paper_constants() {
        // 20 MiB = 10 chunks of 2 MiB = 2 batches of 5.
        let p = ChunkPlan::with_defaults(20.0 * 1024.0 * 1024.0);
        assert_eq!(p.chunks, 10);
        assert_eq!(p.batches, 2);
    }

    #[test]
    fn empty_transfer_has_no_batches() {
        let p = ChunkPlan::with_defaults(0.0);
        assert_eq!(p.chunks, 0);
        assert_eq!(p.batches, 0);
    }

    #[test]
    fn proportional_split_equalises_finish_times() {
        // Paper: a 48 GB/s link gets twice the share of a 24 GB/s link.
        let shares = proportional_split(90.0, &[48e9, 24e9, 24e9]);
        assert_eq!(shares, vec![45.0, 22.5, 22.5]);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 90.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_paths_get_nothing() {
        let shares = proportional_split(10.0, &[0.0, 5.0, -1.0]);
        assert_eq!(shares, vec![0.0, 10.0, 0.0]);
    }

    #[test]
    fn no_usable_paths_yields_zeros() {
        assert_eq!(proportional_split(10.0, &[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(proportional_split(10.0, &[]), Vec::<f64>::new());
    }
}
