//! Keyed edge batching for the LCO continuation path.
//!
//! The evaluation DAG applies the same per-level operator to many edges.
//! An [`EdgeBatcher`] collects those edges at the locality where they will
//! be applied, keyed by the operator they share, and hands back a full
//! batch either when a key reaches its flush threshold or when the last
//! expected edge for that key arrives.
//!
//! Keys are dense indices `0..keys`, numbered once when the DAG is built,
//! so a deposit takes its own key's lock and nothing else — no hashing and
//! no lock shared between keys.
//!
//! Accounting is exact: the expected edge count per key is registered up
//! front (from a sweep of the DAG, replayed by [`EdgeBatcher::refill`] at
//! the start of every run), every deposit decrements it, and the final
//! deposit always flushes — so no edge can be stranded in a bucket and
//! quiescence detection is unaffected.  Batch *composition* may vary with
//! scheduling order; callers must ensure (as the batched operators do) that
//! per-edge results do not depend on which batch an edge lands in.
//!
//! In a multi-process run, every edge is applied — and therefore
//! deposited — at the locality owning its destination LCO.  The sweep
//! must register expectations **only for edges applied at localities this
//! process hosts**: an edge applied at a remote process drains at *its*
//! batcher, and counting it here would hold the local drain count
//! ([`EdgeBatcher::remaining`]) open forever.

use parking_lot::Mutex;

/// Default flush threshold: large enough to amortise the gather/GEMM
/// setup, small enough to bound held memory and latency.
pub const DEFAULT_BATCH_THRESHOLD: usize = 32;

struct Bucket<E> {
    /// Deposits still expected for this key.
    remaining: usize,
    /// Entries collected since the last flush.
    entries: Vec<E>,
}

/// Collects per-operator edge batches with exact drain accounting, one
/// lock per key.
pub struct EdgeBatcher<E> {
    buckets: Vec<Mutex<Bucket<E>>>,
    threshold: usize,
}

impl<E> EdgeBatcher<E> {
    /// Batcher over keys `0..keys`, none expecting a deposit yet, flushing
    /// each key at `threshold` entries (and always on the key's last
    /// expected deposit).
    pub fn new(keys: usize, threshold: usize) -> Self {
        assert!(threshold > 0, "flush threshold must be positive");
        EdgeBatcher {
            buckets: (0..keys)
                .map(|_| {
                    Mutex::new(Bucket {
                        remaining: 0,
                        entries: Vec::new(),
                    })
                })
                .collect(),
            threshold,
        }
    }

    /// Arm for a run: key `k` expects `expected[k]` deposits.  Panics
    /// unless the previous run drained every key.
    pub fn refill(&self, expected: &[u32]) {
        assert_eq!(expected.len(), self.buckets.len(), "one count per key");
        for (bucket, &count) in self.buckets.iter().zip(expected) {
            let mut b = bucket.lock();
            assert!(
                b.remaining == 0 && b.entries.is_empty(),
                "refill of a batcher that has not drained"
            );
            b.remaining = count as usize;
            let first = b.remaining.min(self.threshold);
            b.entries.reserve(first);
        }
    }

    fn bucket(&self, key: usize) -> &Mutex<Bucket<E>> {
        self.buckets
            .get(key)
            .expect("deposit for unregistered batch key")
    }

    /// Deposit one edge.  Returns the accumulated batch (including this
    /// entry) when the key hit the threshold or its last expected deposit,
    /// `None` while the batch is still filling.
    ///
    /// Panics if `key` is not below the key count, or has already received
    /// all expected deposits — either means the build-time DAG sweep and
    /// the apply path disagree.
    pub fn deposit(&self, key: usize, entry: E) -> Option<Vec<E>> {
        let mut b = self.bucket(key).lock();
        assert!(b.remaining > 0, "more deposits than expected for batch key");
        b.remaining -= 1;
        b.entries.push(entry);
        if b.remaining == 0 || b.entries.len() >= self.threshold {
            let next = b.remaining.min(self.threshold);
            Some(std::mem::replace(&mut b.entries, Vec::with_capacity(next)))
        } else {
            None
        }
    }

    /// Entries currently parked in unfilled batches (diagnostics/tests;
    /// zero once every expected deposit has arrived).
    pub fn parked(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().entries.len()).sum()
    }

    /// Deposits still outstanding across all keys — the open drain count.
    /// Zero after a complete run; permanently nonzero if expectations were
    /// registered for edges that drain at another process (see the module
    /// docs).
    pub fn remaining(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().remaining).sum()
    }

    /// Empty every bucket, returning the entries parked in unfilled batches
    /// and *clearing all outstanding expectations*.
    ///
    /// For recovery after a locality loss: deposits that will never
    /// arrive (their source died) would hold buckets open forever, so the
    /// coordinator drains everything, [`EdgeBatcher::refill`]s it with what
    /// the rest of the run brings, and deposits the returned entries again.
    /// Must not race active deposits (called between runs, at survivor
    /// quiescence).
    pub fn drain_parked(&self) -> Vec<(usize, Vec<E>)> {
        let mut parked = Vec::new();
        for (key, bucket) in self.buckets.iter().enumerate() {
            let mut b = bucket.lock();
            b.remaining = 0;
            if !b.entries.is_empty() {
                parked.push((key, std::mem::take(&mut b.entries)));
            }
        }
        parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batcher over `counts.len()` keys, key `k` expecting `counts[k]`.
    fn armed<E>(threshold: usize, counts: &[u32]) -> EdgeBatcher<E> {
        let b = EdgeBatcher::new(counts.len(), threshold);
        b.refill(counts);
        b
    }

    #[test]
    fn last_deposit_flushes_partial_batch() {
        let b = armed(100, &[0, 3]);
        assert!(b.deposit(1, 1).is_none());
        assert!(b.deposit(1, 2).is_none());
        assert_eq!(b.deposit(1, 3), Some(vec![1, 2, 3]));
        assert_eq!(b.parked(), 0);
    }

    #[test]
    fn threshold_flushes_and_refills() {
        let b = armed(2, &[5]);
        assert!(b.deposit(0, 10).is_none());
        assert_eq!(b.deposit(0, 11), Some(vec![10, 11]));
        assert!(b.deposit(0, 12).is_none());
        assert_eq!(b.deposit(0, 13), Some(vec![12, 13]));
        // Final expected deposit flushes a batch of one.
        assert_eq!(b.deposit(0, 14), Some(vec![14]));
        assert_eq!(b.parked(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let b = armed(2, &[0, 2, 2]);
        assert!(b.deposit(1, 100).is_none());
        assert!(b.deposit(2, 200).is_none());
        assert_eq!(b.parked(), 2);
        assert_eq!(b.deposit(1, 101), Some(vec![100, 101]));
        assert_eq!(b.deposit(2, 201), Some(vec![200, 201]));
    }

    #[test]
    fn drain_count_closes_only_when_every_expected_edge_lands() {
        let b = armed(4, &[0, 2, 1]);
        assert_eq!(b.remaining(), 3);
        let _ = b.deposit(1, 0);
        let _ = b.deposit(1, 1);
        assert_eq!(b.remaining(), 1, "key 2 still holds the drain open");
        let _ = b.deposit(2, 9);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.parked(), 0);
    }

    #[test]
    fn refill_rearms_a_drained_batcher() {
        let b = armed(2, &[1, 3]);
        for round in 0..3 {
            assert_eq!(b.deposit(0, round), Some(vec![round]));
            assert!(b.deposit(1, 1).is_none());
            assert_eq!(b.deposit(1, 2), Some(vec![1, 2]));
            assert_eq!(b.deposit(1, 3), Some(vec![3]));
            assert_eq!((b.remaining(), b.parked()), (0, 0));
            b.refill(&[1, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "has not drained")]
    fn refill_refuses_an_undrained_batcher() {
        let b = armed(8, &[2]);
        let _ = b.deposit(0, 1);
        b.refill(&[2]);
    }

    #[test]
    fn drain_parked_returns_entries_and_clears_expectations() {
        let b = armed(8, &[0, 3, 5]);
        let _ = b.deposit(1, 10);
        let _ = b.deposit(1, 11);
        let drained = b.drain_parked();
        assert_eq!(drained, vec![(1, vec![10, 11])]);
        assert_eq!(b.parked(), 0);
        assert_eq!(b.remaining(), 0, "expectations cleared wholesale");
        // The batcher is reusable with fresh expectations.
        b.refill(&[1, 0, 0]);
        assert_eq!(b.deposit(0, 7), Some(vec![7]));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unregistered_key_panics() {
        let b = armed(2, &[1, 1]);
        let _ = b.deposit(9, 0);
    }

    #[test]
    #[should_panic(expected = "more deposits than expected")]
    fn overflow_deposit_panics() {
        let b = armed(10, &[1]);
        let _ = b.deposit(0, 0);
        let _ = b.deposit(0, 1);
    }

    #[test]
    fn concurrent_deposits_all_flush() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 103;
        let b = armed(8, &[n as u32]);
        let flushed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = &b;
                let flushed = &flushed;
                s.spawn(move || {
                    let mine = (0..n).filter(|i| i % 4 == t).count();
                    for _ in 0..mine {
                        if let Some(batch) = b.deposit(0, t) {
                            flushed.fetch_add(batch.len(), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(flushed.load(Ordering::Relaxed), n);
        assert_eq!(b.parked(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any key set, any threshold, deposits shuffled and dealt to four
        /// threads: across two runs of one batcher every entry is flushed
        /// exactly once, no batch exceeds the threshold, and the drain
        /// count ends at zero.
        #[test]
        fn shuffled_deposits_on_four_threads_flush_every_entry_once(
            counts in proptest::collection::vec(0u32..40, 1..24),
            threshold in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let b = EdgeBatcher::new(counts.len(), threshold);
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _run in 0..2 {
                b.refill(&counts);
                // Entry `(key, i)`: the `i`-th deposit into `key`.
                let mut all: Vec<(usize, u32)> = counts
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &n)| (0..n).map(move |i| (k, i)))
                    .collect();
                for i in (1..all.len()).rev() {
                    all.swap(i, next() as usize % (i + 1));
                }
                let yields: Vec<u64> = (0..4).map(|_| next()).collect();
                let flushed = std::sync::Mutex::new(Vec::new());
                std::thread::scope(|s| {
                    for (t, &y) in yields.iter().enumerate() {
                        let (b, all, flushed) = (&b, &all, &flushed);
                        s.spawn(move || {
                            for (j, &(key, i)) in all.iter().enumerate().skip(t).step_by(4) {
                                if (y >> (j % 64)) & 1 == 1 {
                                    std::thread::yield_now();
                                }
                                if let Some(batch) = b.deposit(key, (key, i)) {
                                    assert!(batch.len() <= threshold);
                                    assert!(batch.iter().all(|e| e.0 == key));
                                    flushed.lock().unwrap().extend(batch);
                                }
                            }
                        });
                    }
                });
                let mut got = flushed.into_inner().unwrap();
                got.sort_unstable();
                all.sort_unstable();
                proptest::prop_assert_eq!(got, all);
                proptest::prop_assert_eq!((b.remaining(), b.parked()), (0, 0));
            }
        }
    }
}
