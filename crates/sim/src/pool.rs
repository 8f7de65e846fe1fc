//! Deterministic fan-out over scoped OS threads.
//!
//! Work is split into contiguous chunks (one per worker) and results are
//! merged back **by item index** — never by completion order — so the
//! output is deterministic and independent of thread scheduling.
//!
//! Workers share nothing mutable. Callers that need a
//! [`KnowledgeArena`](crate::KnowledgeArena) build one inside their
//! closure: interning is content-addressed, so every worker reconstructs
//! identical knowledge structure locally and only sends plain results
//! back, and no lock ever serializes the hot interning path.

/// Maps `f` over `items` on up to `threads` scoped OS threads.
///
/// The result vector is in item order regardless of which worker computed
/// which item or when it finished; with `threads == 1` this degenerates to
/// a plain serial map (no thread is spawned).
///
/// # Panics
///
/// Panics if `threads == 0`, or re-raises a worker's panic with its own
/// payload.
pub fn map_items<I, R, F>(items: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                let f = &f;
                scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        // Joining in spawn order merges chunk results back in item order,
        // independent of which worker finished first.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in &mut chunks {
        out.append(c);
    }
    out
}

/// Sample-sharding fan-out for Monte-Carlo estimators: splits the index
/// range `0..total` into one contiguous chunk per worker and folds each
/// chunk with `f`, merging chunk results back in index order.
///
/// The contract that makes sharded estimates **bit-identical for any
/// worker count** is that `f` derives everything about sample `i` from
/// `i` itself (e.g. an RNG stream keyed by the sample index) — never from
/// the chunk boundaries, the worker identity, or shared mutable state.
/// Under that contract the multiset of per-sample verdicts is a pure
/// function of `total`, and any order-insensitive reduction of the
/// returned per-chunk values (integer sums in practice) equals the serial
/// loop's exactly.
///
/// Chunk boundaries are rounded up to a multiple of `align`: every chunk
/// starts at an index divisible by `align`, and every chunk except the
/// last covers a whole number of `align`-sized words. The bit-sliced
/// Monte-Carlo kernel passes `align = 64` so each worker owns whole lane
/// words and only the globally last word can be partially filled; the
/// scalar samplers pass `align = 1`.
///
/// Returns one result per non-empty chunk, ordered by chunk start; with
/// `threads == 1` this degenerates to a single serial fold.
///
/// # Panics
///
/// Panics if `threads == 0` or `align == 0`, or re-raises a worker's
/// panic.
pub fn map_sample_chunks<R, F>(total: usize, threads: usize, align: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    assert!(align >= 1, "alignment must be at least 1");
    let chunk = total.div_ceil(threads).max(1).div_ceil(align) * align;
    let ranges: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|w| (w * chunk).min(total)..((w + 1) * chunk).min(total))
        .filter(|r| !r.is_empty())
        .collect();
    map_items(&ranges, threads, |range| f(range.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Execution, KnowledgeArena, Model};
    use rsbt_random::{Assignment, Realization};

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = map_items(&items, 1, |&i| i * i);
        for threads in [2, 3, 4, 8, 64] {
            let par = map_items(&items, threads, |&i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_arenas_reproduce_serial_partitions() {
        // Consistency partitions computed through private arenas must be
        // identical to the single-arena serial pass.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let rhos: Vec<Realization> = Realization::enumerate_consistent(&alpha, 3).collect();
        let partition = |rho: &Realization, arena: &mut KnowledgeArena| {
            let exec = Execution::run(&Model::Blackboard, rho, arena);
            exec.consistency_partition(exec.time())
        };
        let mut shared = KnowledgeArena::new();
        let serial: Vec<_> = rhos.iter().map(|rho| partition(rho, &mut shared)).collect();
        for threads in [1, 2, 3, 5] {
            let private = map_items(&rhos, threads, |rho| {
                partition(rho, &mut KnowledgeArena::new())
            });
            assert_eq!(private, serial);
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2];
        assert_eq!(map_items(&items, 16, |&i| i + 1), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = map_items(&[1u32], 0, |&i| i);
    }

    #[test]
    fn worker_panics_keep_their_own_message() {
        let items: Vec<u32> = (0..4).collect();
        let caught = std::panic::catch_unwind(|| {
            map_items(&items, 2, |&i| {
                if i == 3 {
                    panic!("item 3 is poisoned");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("item 3 is poisoned"));
    }

    #[test]
    fn sample_chunks_cover_the_range_exactly_once() {
        for total in [0usize, 1, 2, 7, 64, 100] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                for align in [1usize, 3, 64] {
                    let chunks =
                        map_sample_chunks(total, threads, align, |r| r.collect::<Vec<usize>>());
                    let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                    let expect: Vec<usize> = (0..total).collect();
                    assert_eq!(
                        flat, expect,
                        "total={total} threads={threads} align={align}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_index_sums_are_thread_count_invariant() {
        // A reduction over per-index values (the Monte-Carlo shape) must
        // be identical for every worker count.
        let per_index = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9) % 7;
        let serial: u64 = (0..1000).map(per_index).sum();
        for threads in [1usize, 2, 3, 4, 8] {
            for align in [1usize, 64] {
                let total: u64 =
                    map_sample_chunks(1000, threads, align, |r| r.map(per_index).sum::<u64>())
                        .into_iter()
                        .sum();
                assert_eq!(total, serial, "threads={threads} align={align}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn sample_chunks_zero_threads_rejected() {
        let _ = map_sample_chunks(4, 0, 1, |r| r.len());
    }

    #[test]
    fn aligned_chunks_cover_the_range_on_word_boundaries() {
        // Word-boundary edge cases: counts not divisible by 64, counts
        // below 64, and a single sample.
        for total in [0usize, 1, 2, 63, 64, 65, 127, 128, 130, 1000] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let chunks = map_sample_chunks(total, threads, 64, |r| r);
                let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..total).collect();
                assert_eq!(flat, expect, "total={total} threads={threads}");
                for (c, r) in chunks.iter().enumerate() {
                    assert_eq!(r.start % 64, 0, "chunk {c} start, total={total}");
                    assert!(
                        r.end % 64 == 0 || r.end == total,
                        "only the last word may be partial: chunk {c}, total={total}"
                    );
                }
            }
        }
    }

    #[test]
    fn align_one_matches_the_unaligned_chunking() {
        // align = 1 is the plain split: ceil(total / threads) per chunk.
        for total in [0usize, 1, 7, 100, 129] {
            for threads in [1usize, 2, 3, 8] {
                let chunk = total.div_ceil(threads).max(1);
                let plain: Vec<_> = (0..total)
                    .step_by(chunk)
                    .map(|lo| lo..(lo + chunk).min(total))
                    .collect();
                let aligned = map_sample_chunks(total, threads, 1, |r| r);
                assert_eq!(plain, aligned, "total={total} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "alignment must be at least 1")]
    fn zero_alignment_rejected() {
        let _ = map_sample_chunks(4, 1, 0, |r| r.len());
    }
}
