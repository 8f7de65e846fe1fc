//! Take-or-build caching of output-complex representations.
//!
//! Before this cache, every call to the solvability checkers rebuilt
//! `task.output_complex(n)` from scratch — a `BTreeSet` of facet
//! simplices with quadratic maximality maintenance — even when a caller
//! evaluated thousands of realizations of the same `(task, n)` pair in a
//! loop. [`OutputComplexCache`] builds each representation once per
//! process (or per run, wherever the caller scopes it) and hands out
//! borrows:
//!
//! * [`OutputComplexCache::table`] — the dense [`FacetTable`], built by
//!   **streaming** [`Task::facet_stream`] straight into the flat buffer
//!   (no intermediate [`Complex`] at all);
//! * [`OutputComplexCache::complex`] — the classic [`Complex`], for the
//!   Definition 3.1/3.4 search paths that need faces and projections.
//!
//! Keys are `(Task::name, n)`; like the sweep engine's exact-series
//! cache, this relies on task names uniquely identifying the
//! output-complex family (all in-tree tasks guarantee it).

use rsbt_complex::{Complex, FacetTable};
use rsbt_sim::FxHashMap;
use rsbt_tasks::Task;

/// Builds the dense facet table of `task`'s output complex for `n`
/// processes, streaming facets without materializing a [`Complex`].
///
/// # Panics
///
/// Panics where `task.output_complex(n)` would (undefined `n`), or if the
/// task's facets do not cover the names `0..n` (every admissible output
/// complex in the paper does).
pub fn build_output_table<T: Task + ?Sized>(task: &T, n: usize) -> FacetTable {
    FacetTable::from_facets(n, task.facet_stream(n))
        .expect("output facets assign one value to every process name")
}

/// A take-or-build cache of output-complex representations, keyed by
/// `(task name, n)`.
///
/// # Example
///
/// ```
/// use rsbt_core::output_cache::OutputComplexCache;
/// use rsbt_tasks::LeaderElection;
///
/// let mut cache = OutputComplexCache::new();
/// let facets = cache.table(&LeaderElection, 4).facet_count();
/// assert_eq!(facets, 4);
/// cache.table(&LeaderElection, 4); // answered from memory
/// assert_eq!(cache.builds(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OutputComplexCache {
    /// `task name → n → dense table`.
    tables: FxHashMap<String, FxHashMap<usize, FacetTable>>,
    /// `task name → n → facet-set complex`.
    complexes: FxHashMap<String, FxHashMap<usize, Complex<u64>>>,
    builds: u64,
    hits: u64,
}

impl OutputComplexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        OutputComplexCache::default()
    }

    /// How many representations were built (missed).
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// How many lookups were answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The dense facet table for `(task, n)`, building it on first use.
    ///
    /// # Panics
    ///
    /// Same conditions as [`build_output_table`].
    pub fn table<T: Task + ?Sized>(&mut self, task: &T, n: usize) -> &FacetTable {
        let name = task.name();
        // Borrowed probe first: hits never allocate the key.
        if self
            .tables
            .get(name.as_ref())
            .is_some_and(|m| m.contains_key(&n))
        {
            self.hits += 1;
        } else {
            self.builds += 1;
            self.tables
                .entry(name.as_ref().to_owned())
                .or_default()
                .insert(n, build_output_table(task, n));
        }
        &self.tables[name.as_ref()][&n]
    }

    /// The output [`Complex`] for `(task, n)`, building it on first use.
    ///
    /// # Panics
    ///
    /// Panics where `task.output_complex(n)` does.
    pub fn complex<T: Task + ?Sized>(&mut self, task: &T, n: usize) -> &Complex<u64> {
        let name = task.name();
        if self
            .complexes
            .get(name.as_ref())
            .is_some_and(|m| m.contains_key(&n))
        {
            self.hits += 1;
        } else {
            self.builds += 1;
            self.complexes
                .entry(name.as_ref().to_owned())
                .or_default()
                .insert(n, task.output_complex(n));
        }
        &self.complexes[name.as_ref()][&n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

    #[test]
    fn takes_or_builds_once_per_key() {
        let mut cache = OutputComplexCache::new();
        cache.table(&LeaderElection, 3);
        cache.table(&LeaderElection, 3);
        cache.table(&LeaderElection, 4);
        cache.complex(&LeaderElection, 3);
        cache.complex(&LeaderElection, 3);
        assert_eq!(cache.builds(), 3);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn keys_distinguish_tasks_and_sizes() {
        let mut cache = OutputComplexCache::new();
        let le = cache.table(&LeaderElection, 4).facet_count();
        let two = cache.table(&KLeaderElection::new(2), 4).facet_count();
        assert_eq!(le, 4);
        assert_eq!(two, 6);
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn streamed_table_matches_complex_table() {
        let mut cache = OutputComplexCache::new();
        for n in 2..=5 {
            let streamed = cache.table(&WeakSymmetryBreaking, n).clone();
            let via_complex =
                rsbt_complex::FacetTable::from_complex(&WeakSymmetryBreaking.output_complex(n))
                    .unwrap();
            assert_eq!(streamed, via_complex, "n={n}");
        }
    }
}
