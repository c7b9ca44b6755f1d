//! Row-parallel passes over CSR arrays.
//!
//! The preprocessing builders ([`CsrPattern::from_unsorted_rows`],
//! [`CsrPattern::permute_symmetric`]) end with a per-row sort, and a row's
//! sort never looks at another row. So the rows are cut into contiguous
//! chunks of about 64 Ki entries, the chunks are fanned out with
//! `grow_sim::exec::parallel_map`, and the results come back in chunk
//! order. The cut points depend only on the row pointers, never on the
//! thread count, and each row's output is a pure function of its input,
//! so the result is bit-identical in every execution mode.
//!
//! [`CsrPattern::from_unsorted_rows`]: crate::CsrPattern::from_unsorted_rows
//! [`CsrPattern::permute_symmetric`]: crate::CsrPattern::permute_symmetric

use std::ops::Range;

use grow_sim::exec::parallel_map;

/// Entry count below which a row-parallel pass runs inline on the calling
/// thread, as a single chunk: small graphs spawn no threads.
pub const PARALLEL_MIN_NNZ: usize = 1 << 18;

/// Target entries per chunk of a row-parallel pass.
const CHUNK_NNZ: usize = 1 << 16;

/// Cuts the rows behind `indptr` (`rows + 1` non-decreasing offsets) into
/// contiguous ranges of about 64 Ki entries each, for fanning a per-row
/// pass across threads.
///
/// The cut points are a function of `indptr` alone. Below
/// [`PARALLEL_MIN_NNZ`] entries the result is the single range of all
/// rows.
///
/// ```
/// let indptr: Vec<usize> = (0..=1000).map(|r| r * 1000).collect();
/// let chunks = grow_sparse::row_chunks(&indptr);
/// assert_eq!(chunks.first().unwrap().start, 0);
/// assert_eq!(chunks.last().unwrap().end, 1000);
/// assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
/// assert!(chunks.len() > 1);
/// assert_eq!(grow_sparse::row_chunks(&[0, 5, 9]), vec![0..2]);
/// ```
///
/// # Panics
///
/// Panics if `indptr` is empty.
pub fn row_chunks(indptr: &[usize]) -> Vec<Range<usize>> {
    let rows = indptr.len() - 1;
    let total = indptr[rows] - indptr[0];
    if total < PARALLEL_MIN_NNZ {
        return std::iter::once(0..rows).collect();
    }
    let mut chunks = Vec::with_capacity(total / CHUNK_NNZ + 1);
    let mut start = 0;
    while start < rows {
        // First row boundary at least CHUNK_NNZ entries past the start,
        // and at least one row further.
        let goal = indptr[start] + CHUNK_NNZ;
        let end = (start + 1 + indptr[start + 1..].partition_point(|&p| p < goal)).min(rows);
        chunks.push(start..end);
        start = end;
    }
    chunks
}

/// Runs `f` on every chunk of [`row_chunks`]`(indptr)`, handing it the
/// chunk's rows and its segment of `data` (the entries
/// `indptr[rows.start]..indptr[rows.end]`), and returns the results in
/// chunk order. Chunks run in parallel (`grow_sim::exec::parallel_map`)
/// and each owns its segment, so a pass whose rows are independent gives
/// the same `data` and results in every execution mode.
///
/// ```
/// let indptr = [0, 2, 3];
/// let mut data = [5u32, 1, 7];
/// let sums = grow_sparse::map_row_chunks(&indptr, &mut data, |rows, segment| {
///     segment.sort_unstable();
///     rows.len()
/// });
/// assert_eq!(sums, vec![2]);
/// assert_eq!(data, [1, 5, 7]);
/// ```
///
/// # Panics
///
/// Panics if `data` is shorter than `indptr`'s last offset, or if `f`
/// panics.
pub fn map_row_chunks<E, R, F>(indptr: &[usize], data: &mut [E], f: F) -> Vec<R>
where
    E: Send,
    R: Send,
    F: Fn(Range<usize>, &mut [E]) -> R + Sync,
{
    let mut items = Vec::new();
    let mut rest = data;
    for rows in row_chunks(indptr) {
        let (segment, tail) = rest.split_at_mut(indptr[rows.end] - indptr[rows.start]);
        items.push((rows, segment));
        rest = tail;
    }
    parallel_map(items, |_, (rows, segment)| f(rows, segment))
}
