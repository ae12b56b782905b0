//! `TripletMatrix::to_csr` against the comparison-sort assembly it
//! replaced: sort every triplet by `(row, col)`, then merge neighbours.
//!
//! Where duplicate sums are exact (duplicate-free input, or
//! integer-valued duplicates) the two must agree bit for bit. On general
//! duplicates the old unstable sort summed in an unspecified order, so
//! the reference there is the documented one: each coordinate's values
//! summed in insertion order.

use proptest::prelude::*;
use sparse_formats::{CsrMatrix, TripletMatrix};

type Entry = (u32, u32, f64);

/// CSR parts: row offsets, column indices, value bits.
type Parts = (Vec<u32>, Vec<u32>, Vec<u64>);

/// Value bits with every NaN mapped to one pattern: Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified (the compiler
/// may swap the operands of an addition), so only "is NaN" is
/// comparable.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn parts(m: &CsrMatrix<f64>) -> Parts {
    (
        m.row_offsets().to_vec(),
        m.col_indices().to_vec(),
        m.values().iter().map(|&v| bits(v)).collect(),
    )
}

fn assemble(rows: usize, cols: usize, entries: &[Entry]) -> Parts {
    let mut t = TripletMatrix::new(rows, cols);
    for &(r, c, v) in entries {
        t.push(r as usize, c as usize, v).unwrap();
    }
    let m = t.to_csr();
    assert_eq!(m.shape(), (rows, cols));
    parts(&m)
}

/// The comparison-sort assembly `to_csr` used before.
fn sort_merge_oracle(rows: usize, entries: &[Entry]) -> Parts {
    let mut sorted = entries.to_vec();
    sorted.sort_unstable_by_key(|e| (e.0, e.1));
    let mut merged: Vec<Entry> = Vec::new();
    for (r, c, v) in sorted {
        match merged.last_mut() {
            Some(last) if last.0 == r && last.1 == c => last.2 += v,
            _ => merged.push((r, c, v)),
        }
    }
    let mut offsets = vec![0u32; rows + 1];
    for &(r, _, _) in &merged {
        offsets[r as usize + 1] += 1;
    }
    for i in 0..rows {
        offsets[i + 1] += offsets[i];
    }
    (
        offsets,
        merged.iter().map(|e| e.1).collect(),
        merged.iter().map(|e| bits(e.2)).collect(),
    )
}

/// Row-major distinct coordinates, each with its values summed in
/// insertion order.
fn insertion_order_reference(rows: usize, entries: &[Entry]) -> Parts {
    let mut coords: Vec<(u32, u32)> = entries.iter().map(|e| (e.0, e.1)).collect();
    coords.sort_unstable();
    coords.dedup();
    let mut offsets = vec![0u32; rows + 1];
    let mut values = Vec::with_capacity(coords.len());
    for &(r, c) in &coords {
        offsets[r as usize + 1] += 1;
        let mut dups = entries.iter().filter(|e| (e.0, e.1) == (r, c));
        let first = dups.next().expect("coordinate came from the entries").2;
        values.push(bits(dups.fold(first, |acc, e| acc + e.2)));
    }
    for i in 0..rows {
        offsets[i + 1] += offsets[i];
    }
    (offsets, coords.iter().map(|&(_, c)| c).collect(), values)
}

/// Keep the first entry at each coordinate.
fn dedup_coords(entries: &[Entry]) -> Vec<Entry> {
    let mut seen = std::collections::BTreeSet::new();
    entries
        .iter()
        .copied()
        .filter(|e| seen.insert((e.0, e.1)))
        .collect()
}

/// Map raw draws into the shape: an empty shape takes no entries.
fn in_shape(rows: usize, cols: usize, raw: Vec<(u32, u32, f64)>) -> Vec<Entry> {
    if rows == 0 || cols == 0 {
        return Vec::new();
    }
    raw.into_iter()
        .map(|(r, c, v)| (r % rows as u32, c % cols as u32, v))
        .collect()
}

/// Finite fractions, small integers, NaN and ±Inf.
fn arb_value() -> impl Strategy<Value = f64> {
    (0u32..8, -1.0e3f64..1.0e3).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 | 4 => x.round(),
        _ => x,
    })
}

/// Small shapes (0 included, so 0×n and n×0 occur) and dense enough
/// entry lists that duplicates and empty rows are both common.
fn arb_triplets() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f64)>)> {
    (
        0usize..9,
        0usize..9,
        proptest::collection::vec((any::<u32>(), any::<u32>(), arb_value()), 0..64),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn duplicate_free_input_matches_the_oracle_bit_for_bit(
        (rows, cols, raw) in arb_triplets()
    ) {
        let entries = dedup_coords(&in_shape(rows, cols, raw));
        prop_assert_eq!(assemble(rows, cols, &entries), sort_merge_oracle(rows, &entries));
    }

    #[test]
    fn integer_valued_duplicates_match_the_oracle_bit_for_bit(
        (rows, cols, raw) in arb_triplets()
    ) {
        let entries: Vec<Entry> = in_shape(rows, cols, raw)
            .into_iter()
            .map(|(r, c, v)| (r, c, if v.is_finite() { v.round() } else { 1.0 }))
            .collect();
        prop_assert_eq!(assemble(rows, cols, &entries), sort_merge_oracle(rows, &entries));
    }

    #[test]
    fn general_duplicates_sum_in_insertion_order(
        (rows, cols, raw) in arb_triplets()
    ) {
        let entries = in_shape(rows, cols, raw);
        prop_assert_eq!(
            assemble(rows, cols, &entries),
            insertion_order_reference(rows, &entries)
        );
    }
}

#[test]
fn empty_shapes_assemble() {
    for (rows, cols) in [(0, 0), (0, 3), (3, 0)] {
        let m = TripletMatrix::<f64>::new(rows, cols).to_csr();
        assert_eq!(m.shape(), (rows, cols));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_offsets(), vec![0u32; rows + 1].as_slice());
    }
}

#[test]
fn duplicates_sum_in_insertion_order() {
    // (1e16 + 1) + 1 rounds twice to 1e16; 1e16 + (1 + 1) does not, so
    // the summation order is visible in the result.
    let entries = [(1, 2, 1.0e16), (0, 0, 5.0), (1, 2, 1.0), (1, 2, 1.0)];
    let (offsets, cols, values) = assemble(2, 3, &entries);
    assert_eq!(offsets, vec![0, 1, 2]);
    assert_eq!(cols, vec![0, 2]);
    assert_eq!(values, vec![5.0f64.to_bits(), 1.0e16f64.to_bits()]);
    let reordered = [(1, 2, 1.0), (1, 2, 1.0), (1, 2, 1.0e16)];
    let (_, _, values) = assemble(2, 3, &reordered);
    assert_eq!(values, vec![(1.0e16f64 + 2.0).to_bits()]);
}
