//! Morsels: the fixed-size row ranges the columnar executor
//! ([`crate::chunk_exec`]) splits scans and hash-join builds into.
//!
//! Operators walk their morsels in range order on the calling thread:
//! there is no worker count to configure and no scheduling for results
//! to depend on (DESIGN.md §13 has the measurement behind that).

/// Rows per morsel. Large enough to keep the typed kernel loops hot,
/// small enough that per-batch scratch state stays cache-sized.
pub(crate) const MORSEL_ROWS: usize = 8192;

/// Partition `[0, len)` into consecutive ranges of at most `step` rows.
pub(crate) fn morsels(len: usize, step: usize) -> Vec<(usize, usize)> {
    (0..len)
        .step_by(step)
        .map(|start| (start, (start + step).min(len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_partition_covers_range() {
        assert_eq!(morsels(0, 10), Vec::<(usize, usize)>::new());
        assert_eq!(morsels(25, 10), vec![(0, 10), (10, 20), (20, 25)]);
        assert_eq!(morsels(10, 10), vec![(0, 10)]);
    }
}
