//! Triplet (coordinate-list) builder — the ingestion format.
//!
//! Generators and Matrix Market readers accumulate `(row, col, value)`
//! entries here; [`TripletMatrix::to_csr`] produces the canonical CSR
//! matrix everything else converts from.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Unsorted coordinate-triplet accumulator.
///
/// Duplicate `(row, col)` entries are *summed* during [`Self::to_csr`],
/// in insertion order, matching the usual Matrix Market assembly
/// convention.
#[derive(Clone, Debug)]
pub struct TripletMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// New empty builder for a `rows x cols` matrix.
    ///
    /// Indices are stored as `u32`; shapes above `u32::MAX` are rejected
    /// (far beyond anything this reproduction instantiates).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "TripletMatrix shape exceeds u32 index space"
        );
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Builder with pre-reserved entry capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        let mut t = Self::new(rows, cols);
        t.entries.reserve(cap);
        t
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of accumulated entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one entry; errors if outside the declared shape.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Append without bounds checking against the shape (debug-asserted).
    /// Generators that produce indices by construction use this hot path.
    #[inline]
    pub fn push_unchecked(&mut self, row: u32, col: u32, value: T) {
        debug_assert!((row as usize) < self.rows && (col as usize) < self.cols);
        self.entries.push((row, col, value));
    }

    /// Raw entry access (tests, shufflers).
    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// Convert to CSR: a counting sort by row, then a sort of each row by
    /// column. Duplicate `(row, col)` entries are summed in insertion
    /// order (`((v0 + v1) + v2) + ...`), so the result does not depend on
    /// any sort's tie-breaking.
    pub fn to_csr(self) -> CsrMatrix<T> {
        let TripletMatrix {
            rows,
            cols,
            entries,
        } = self;
        let mut row_offsets = vec![0u32; rows + 1];
        for &(r, _, _) in &entries {
            row_offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        // Scatter into row buckets; a stable pass, so each row keeps its
        // entries in insertion order.
        let mut next = row_offsets[..rows].to_vec();
        let mut by_row = vec![(0u32, T::ZERO); entries.len()];
        for (r, c, v) in entries {
            let slot = &mut next[r as usize];
            by_row[*slot as usize] = (c, v);
            *slot += 1;
        }
        drop(next);
        // Sort each row by column and merge duplicates, rewriting
        // `row_offsets` to the merged counts as rows complete. A row that
        // is not already strictly increasing is ordered through packed
        // `col << 32 | position` keys: they are distinct, so an unstable
        // sort keeps equal columns in insertion order.
        let mut col_indices = Vec::with_capacity(by_row.len());
        let mut values: Vec<T> = Vec::with_capacity(by_row.len());
        let mut keys: Vec<u64> = Vec::new();
        let mut lo = 0usize;
        for r in 0..rows {
            let hi = row_offsets[r + 1] as usize;
            let row = &by_row[lo..hi];
            if row.windows(2).all(|w| w[0].0 < w[1].0) {
                col_indices.extend(row.iter().map(|&(c, _)| c));
                values.extend(row.iter().map(|&(_, v)| v));
            } else {
                keys.clear();
                keys.extend(
                    row.iter()
                        .enumerate()
                        .map(|(j, &(c, _))| (c as u64) << 32 | j as u64),
                );
                keys.sort_unstable();
                let start = col_indices.len();
                for &key in &keys {
                    let (c, v) = ((key >> 32) as u32, row[key as u32 as usize].1);
                    if col_indices.len() > start && col_indices.last() == Some(&c) {
                        *values.last_mut().expect("values track col_indices") += v;
                    } else {
                        col_indices.push(c);
                        values.push(v);
                    }
                }
            }
            row_offsets[r + 1] = col_indices.len() as u32;
            lo = hi;
        }
        CsrMatrix::from_raw_parts(rows, cols, row_offsets, col_indices, values)
            .expect("triplet assembly produced invalid CSR (internal bug)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        assert!(t.push(2, 0, 1.0).is_err());
        assert!(t.push(0, 2, 1.0).is_err());
        assert!(t.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn to_csr_sorts_and_offsets_correctly() {
        let mut t = TripletMatrix::<f64>::new(3, 4);
        t.push(2, 1, 5.0).unwrap();
        t.push(0, 3, 1.0).unwrap();
        t.push(0, 0, 2.0).unwrap();
        t.push(1, 2, 3.0).unwrap();
        let m = t.to_csr();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_offsets(), &[0, 2, 3, 4]);
        assert_eq!(m.col_indices(), &[0, 3, 2, 1]);
        assert_eq!(m.values(), &[2.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::<f32>::new(1, 1);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 0, 2.5).unwrap();
        let m = t.to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    fn empty_builder_yields_empty_csr() {
        let t = TripletMatrix::<f64>::new(5, 5);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_offsets(), &[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn empty_rows_interleave_correctly() {
        let mut t = TripletMatrix::<f64>::new(4, 4);
        t.push(0, 0, 1.0).unwrap();
        t.push(3, 3, 2.0).unwrap();
        let m = t.to_csr();
        assert_eq!(m.row_offsets(), &[0, 1, 1, 1, 2]);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 0);
    }
}
