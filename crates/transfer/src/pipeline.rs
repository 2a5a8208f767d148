//! Batched chunk admission on a shared link (paper §4.3.2, Fig. 10).
//!
//! Once a DMA chunk transfer is launched it cannot be interrupted, so the
//! admission granularity determines fairness: launching a whole transfer at
//! once blocks newly arrived functions until it drains ("initiated data
//! chunk transfers cannot be interrupted"), while launching chunk-by-chunk
//! pays connection/launch overhead per chunk. GROUTER groups chunks into
//! **batches** (default 5) — new transfers inject their batches at the next
//! boundary, and the per-batch overhead is amortised over five chunks.
//!
//! [`BatchPipeline`] is an exact, self-contained model of one link under
//! this discipline (round-robin among active transfers, one batch in flight
//! at a time). The flow-level network model elsewhere in the simulator is
//! the *idealised* (continuously fair) limit of this mechanism; this module
//! quantifies how close a given batch size gets to that limit and what it
//! costs — the trade-off behind the paper's default, swept in the
//! design-constant sweeps of `grouter-bench`'s `all_experiments`.

use grouter_sim::time::{SimDuration, SimTime};

/// One link under batched round-robin admission.
///
/// # Examples
///
/// ```
/// use grouter_sim::SimTime;
/// use grouter_transfer::pipeline::{BatchPipeline, Offered};
///
/// let pipe = BatchPipeline::with_defaults(12e9);
/// let offered = [
///     Offered { arrival: SimTime::ZERO, bytes: 64e6 },
///     Offered { arrival: SimTime(1_000_000), bytes: 2e6 },
/// ];
/// let done = pipe.simulate(&offered);
/// assert_eq!(done.len(), 2);
/// // The small late transfer slots in at a batch boundary and finishes
/// // long before the large one.
/// assert_eq!(done[0].id, 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchPipeline {
    /// Link bandwidth in bytes/second.
    pub link_bw: f64,
    /// Chunk size in bytes (paper default 2 MB).
    pub chunk_bytes: f64,
    /// Chunks per batch (paper default 5).
    pub chunks_per_batch: usize,
    /// Fixed overhead to launch one batch (connection setup / DMA launch).
    pub batch_overhead: SimDuration,
}

/// A transfer offered to the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct Offered {
    pub arrival: SimTime,
    pub bytes: f64,
}

/// Completion record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Index into the offered slice.
    pub id: usize,
    pub finished: SimTime,
}

impl BatchPipeline {
    /// Paper defaults on a link of `link_bw` bytes/s.
    pub fn with_defaults(link_bw: f64) -> BatchPipeline {
        BatchPipeline {
            link_bw,
            chunk_bytes: grouter_sim::params::CHUNK_SIZE,
            chunks_per_batch: grouter_sim::params::CHUNKS_PER_BATCH,
            batch_overhead: grouter_sim::params::NIC_CONN_SETUP,
        }
    }

    /// Time to move one batch of `chunks` chunks (the last batch may be
    /// short).
    fn batch_time(&self, chunks: usize, last_partial: f64) -> SimDuration {
        let bytes = (chunks.saturating_sub(1)) as f64 * self.chunk_bytes + last_partial;
        self.batch_overhead + SimDuration::from_secs_f64(bytes / self.link_bw)
    }

    /// Simulate the offered transfers to completion. Transfers must be
    /// sorted by arrival. Returns completions in finish order.
    ///
    /// Discipline: the link serves one batch at a time; among transfers
    /// that have arrived and still have chunks, admission is round-robin in
    /// arrival order ("fair bandwidth preemption").
    pub fn simulate(&self, offered: &[Offered]) -> Vec<Completion> {
        assert!(self.link_bw > 0.0 && self.chunk_bytes > 0.0);
        assert!(self.chunks_per_batch > 0);
        for pair in offered.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival, "sort by arrival");
        }
        let mut remaining: Vec<f64> = offered.iter().map(|o| o.bytes.max(0.0)).collect();
        let mut done: Vec<Completion> = Vec::new();
        // Zero-byte transfers complete on arrival.
        for (i, o) in offered.iter().enumerate() {
            if remaining[i] <= 0.0 {
                done.push(Completion {
                    id: i,
                    finished: o.arrival,
                });
            }
        }
        let mut now = match offered.first() {
            Some(o) => o.arrival,
            None => return done,
        };
        let mut rr = 0usize; // round-robin cursor
        loop {
            // Active transfers: arrived, bytes left.
            let active: Vec<usize> = (0..offered.len())
                .filter(|&i| offered[i].arrival <= now && remaining[i] > 0.0)
                .collect();
            if active.is_empty() {
                // Jump to the next arrival, if any.
                match (0..offered.len())
                    .filter(|&i| remaining[i] > 0.0)
                    .map(|i| offered[i].arrival)
                    .min()
                {
                    Some(next) => {
                        now = next;
                        continue;
                    }
                    None => break,
                }
            }
            // Pick the next active transfer at or after the cursor.
            let pick = *active.iter().find(|&&i| i >= rr).unwrap_or(&active[0]);
            rr = pick + 1;
            // Serve one batch of it.
            let full_chunks = (remaining[pick] / self.chunk_bytes).ceil() as usize;
            let chunks = full_chunks.min(self.chunks_per_batch);
            let last_bytes = remaining[pick] - (chunks as f64 - 1.0) * self.chunk_bytes;
            let last_partial = if chunks == full_chunks {
                last_bytes.min(self.chunk_bytes).max(0.0)
            } else {
                self.chunk_bytes
            };
            let dt = self.batch_time(chunks, last_partial);
            now += dt;
            remaining[pick] = (remaining[pick] - chunks as f64 * self.chunk_bytes).max(0.0);
            if remaining[pick] <= 0.0 {
                done.push(Completion {
                    id: pick,
                    finished: now,
                });
            }
        }
        done
    }

    /// Latency (from its arrival) of transfer `id` under this discipline,
    /// or `None` if `id` is not among the offered transfers.
    pub fn latency_of(&self, offered: &[Offered], id: usize) -> Option<SimDuration> {
        let done = self.simulate(offered);
        let c = done.iter().find(|c| c.id == id)?;
        Some(c.finished - offered.get(id)?.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn pipe(chunks_per_batch: usize) -> BatchPipeline {
        BatchPipeline {
            link_bw: 12e9,
            chunk_bytes: 2.0 * MB,
            chunks_per_batch,
            batch_overhead: SimDuration::from_micros(30),
        }
    }

    #[test]
    fn lone_transfer_time_matches_bandwidth_plus_overhead() {
        let p = pipe(5);
        let offered = [Offered {
            arrival: SimTime::ZERO,
            bytes: 100.0 * MB, // 50 chunks = 10 batches
        }];
        let lat = p.latency_of(&offered, 0).unwrap();
        let ideal = 100.0 * MB / 12e9;
        let overhead = 10.0 * 30e-6;
        assert!(
            (lat.as_secs_f64() - (ideal + overhead)).abs() < 1e-6,
            "{lat}"
        );
    }

    #[test]
    fn small_batches_let_late_arrivals_preempt() {
        // A huge transfer starts; a tiny one arrives shortly after. With
        // batch=5 it slots in at the next boundary; with one giant batch it
        // waits for the whole elephant.
        let offered = [
            Offered {
                arrival: SimTime::ZERO,
                bytes: 400.0 * MB,
            },
            Offered {
                arrival: SimTime(1_000_000), // t = 1 ms
                bytes: 2.0 * MB,
            },
        ];
        let batched = pipe(5).latency_of(&offered, 1).unwrap();
        let monolithic = pipe(100_000).latency_of(&offered, 1).unwrap();
        assert!(
            batched.as_millis_f64() < 0.15 * monolithic.as_millis_f64(),
            "batched {batched} vs monolithic {monolithic}"
        );
    }

    #[test]
    fn tiny_batches_pay_overhead() {
        let offered = [Offered {
            arrival: SimTime::ZERO,
            bytes: 200.0 * MB, // 100 chunks
        }];
        let per_chunk = pipe(1).latency_of(&offered, 0).unwrap();
        let per_five = pipe(5).latency_of(&offered, 0).unwrap();
        // batch=1 launches 100 connections; batch=5 launches 20.
        let diff = per_chunk.as_secs_f64() - per_five.as_secs_f64();
        assert!((diff - 80.0 * 30e-6).abs() < 1e-6, "diff {diff}");
    }

    #[test]
    fn round_robin_is_fair_between_equals() {
        let offered = [
            Offered {
                arrival: SimTime::ZERO,
                bytes: 50.0 * MB,
            },
            Offered {
                arrival: SimTime::ZERO,
                bytes: 50.0 * MB,
            },
        ];
        let p = pipe(5);
        let done = p.simulate(&offered);
        assert_eq!(done.len(), 2);
        // Finish within one batch of each other.
        let gap = (done[1].finished.as_secs_f64() - done[0].finished.as_secs_f64()).abs();
        let batch_secs = 10.0 * MB / 12e9 + 30e-6;
        assert!(gap <= batch_secs + 1e-9, "gap {gap}");
    }

    #[test]
    fn conservation_every_transfer_completes() {
        let offered: Vec<Offered> = (0..7)
            .map(|i| Offered {
                arrival: SimTime(i as u64 * 500_000),
                bytes: (i as f64 + 1.0) * 3.0 * MB,
            })
            .collect();
        let done = pipe(5).simulate(&offered);
        assert_eq!(done.len(), 7);
        let mut ids: Vec<usize> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        // Finish times are non-decreasing in report order.
        assert!(done.windows(2).all(|w| w[0].finished <= w[1].finished));
    }

    #[test]
    fn empty_and_zero_byte_inputs() {
        let p = pipe(5);
        assert!(p.simulate(&[]).is_empty());
        let done = p.simulate(&[Offered {
            arrival: SimTime(5),
            bytes: 0.0,
        }]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, SimTime(5));
    }
}
