//! Dynamic-graph update streams (paper §VII).
//!
//! Reproduces the paper's protocol verbatim: "We randomly selected 10% of
//! the rows to be updated. Scanning the columns of a row, we either
//! remove a column or add another column to the row, each with equal
//! probability. The total number of non-zeros in the matrix is thus kept
//! nearly constant."

use crate::rmat::Quadrants;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_formats::{CsrMatrix, Scalar, UpdateBatch};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Parameters for [`generate_update_batch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpdateConfig {
    /// Fraction of rows to touch (paper: 0.10).
    pub row_fraction: f64,
    /// Probability that a scanned column is deleted rather than paired
    /// with an insertion (paper: 0.5).
    pub delete_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            row_fraction: 0.10,
            delete_probability: 0.5,
            seed: 0xD1FF_2014,
        }
    }
}

/// Generate one §VII update batch for `m`.
pub fn generate_update_batch<T: Scalar>(m: &CsrMatrix<T>, cfg: &UpdateConfig) -> UpdateBatch<T> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rows = m.rows();
    let n_touch = ((rows as f64 * cfg.row_fraction).round() as usize).clamp(1, rows);

    // Random sample of rows without replacement (partial Fisher-Yates),
    // then sorted as the paper's kernel requires.
    let mut ids: Vec<u32> = (0..rows as u32).collect();
    for i in 0..n_touch {
        let j = rng.random_range(i..rows);
        ids.swap(i, j);
    }
    let mut touched: Vec<u32> = ids[..n_touch].to_vec();
    touched.sort_unstable();

    let mut delete_offsets = Vec::with_capacity(n_touch + 1);
    let mut delete_cols = Vec::new();
    let mut insert_offsets = Vec::with_capacity(n_touch + 1);
    let mut insert_cols: Vec<u32> = Vec::new();
    let mut insert_vals: Vec<T> = Vec::new();
    delete_offsets.push(0u32);
    insert_offsets.push(0u32);

    let cols = m.cols();
    let mut row_inserts: Vec<(u32, T)> = Vec::new();
    for &r in &touched {
        let (rcols, _) = m.row(r as usize);
        row_inserts.clear();
        let mut row_deletes: Vec<u32> = Vec::new();
        for &c in rcols {
            if rng.random::<f64>() < cfg.delete_probability {
                row_deletes.push(c);
            } else {
                // "add another column": draw a column not already present
                // (and not just queued for insertion).
                for _ in 0..16 {
                    let nc = rng.random_range(0..cols as u32);
                    if rcols.binary_search(&nc).is_err()
                        && !row_inserts.iter().any(|&(ic, _)| ic == nc)
                    {
                        row_inserts.push((nc, T::from_f64(0.5 + rng.random::<f64>())));
                        break;
                    }
                }
            }
        }
        row_inserts.sort_unstable_by_key(|&(c, _)| c);
        delete_cols.extend_from_slice(&row_deletes);
        delete_offsets.push(delete_cols.len() as u32);
        for (c, v) in row_inserts.drain(..) {
            insert_cols.push(c);
            insert_vals.push(v);
        }
        insert_offsets.push(insert_cols.len() as u32);
    }

    let batch = UpdateBatch {
        rows: touched,
        delete_offsets,
        delete_cols,
        insert_offsets,
        insert_cols,
        insert_vals,
    };
    debug_assert!(batch.validate().is_ok());
    batch
}

/// Parameters for [`generate_edge_stream`]: a sustained, rate-pinned
/// RMAT churn workload for streaming-maintenance experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Nominal sustained edge-update rate (inserts + deletes per
    /// second of virtual time).
    pub updates_per_sec: f64,
    /// Batch cadence: updates accumulate for this long, then ship as one
    /// [`UpdateBatch`] stamped with the window's end time.
    pub batch_interval_s: f64,
    /// Stream duration, seconds of virtual time.
    pub horizon_s: f64,
    /// Probability an update is an insert (the rest are deletes of live
    /// edges). 0.5 keeps nnz nearly constant, like §VII.
    pub insert_fraction: f64,
    /// R-MAT quadrant probabilities for inserted edges (`d = 1-a-b-c`):
    /// new edges land with the same skew that built the graph, so churn
    /// keeps hammering the hot rows.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            updates_per_sec: 100_000.0,
            batch_interval_s: 0.01,
            horizon_s: 0.1,
            insert_fraction: 0.5,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0x57AE_A414,
        }
    }
}

/// One churn batch with its virtual-time stamp (the end of its
/// accumulation window).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedBatch<T> {
    /// When the batch is due to be applied, seconds of virtual time.
    pub at_s: f64,
    /// Edge updates recorded for the batch (inserts + deletes, after
    /// within-batch net-effect folding).
    pub ops: usize,
    /// The batch, valid against the matrix state *before* it.
    pub batch: UpdateBatch<T>,
}

/// Pending net effect of this batch's updates on one edge.
enum Pending<T> {
    Insert(T),
    Delete,
}

/// Generate a sustained edge-churn stream against `m`: batches of RMAT
/// inserts and live-edge deletes, applied consecutively (batch `k` is
/// valid for the matrix after batches `0..k`). The stream is
/// *rate-pinned*: the number of updates emitted by the end of window `k`
/// is `round(rate · t_k)` — an error-free accumulator like the loadgen
/// mean-rate contract, so the empirical rate matches
/// `cfg.updates_per_sec` to well under 1% over any horizon. Updates that
/// cancel within one window (insert then delete of the same new edge)
/// still count toward the rate but fold out of the shipped batch.
pub fn generate_edge_stream<T: Scalar>(m: &CsrMatrix<T>, cfg: &ChurnConfig) -> Vec<TimedBatch<T>> {
    assert!(cfg.updates_per_sec > 0.0, "rate must be positive");
    assert!(cfg.batch_interval_s > 0.0, "interval must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.insert_fraction),
        "insert fraction must be a probability"
    );
    let (rows, cols) = (m.rows(), m.cols());
    let levels = usize::max(rows, cols).next_power_of_two().trailing_zeros();
    let quadrant = Quadrants::new(cfg.a, cfg.b, cfg.c);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Live-edge state, kept in lockstep with the emitted batches.
    let mut adj: Vec<Vec<u32>> = (0..rows).map(|r| m.row(r).0.to_vec()).collect();
    // Room for every insert the stream can make, so the edge list does
    // not reallocate mid-stream; capped at doubling, which one
    // reallocation would do anyway.
    let max_ops = (cfg.updates_per_sec * cfg.horizon_s).round() as usize;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m.nnz() + max_ops.min(m.nnz()));
    for r in 0..rows {
        edges.extend(m.row(r).0.iter().map(|&c| (r as u32, c)));
    }

    let mut out = Vec::new();
    let mut emitted = 0u64;
    let mut k = 0u64;
    // packed (row, col) -> (existed before this batch, net op)
    let mut pending: HashMap<u64, (bool, Pending<T>), BuildPackedHasher> = HashMap::default();
    let mut folded: Vec<(u64, Pending<T>)> = Vec::new();
    loop {
        let t = (k + 1) as f64 * cfg.batch_interval_s;
        if t > cfg.horizon_s + 1e-12 {
            break;
        }
        k += 1;
        let due = (cfg.updates_per_sec * t).round() as u64;
        let ops = (due - emitted) as usize;
        emitted = due;

        pending.clear();
        for _ in 0..ops {
            let mut insert = rng.random::<f64>() < cfg.insert_fraction || edges.is_empty();
            if insert {
                let mut placed = false;
                for _ in 0..16 {
                    // R-MAT quadrant descent, same recursion as the
                    // static generator, rejecting out-of-shape and live
                    // edges.
                    let (r, c) = quadrant.descend(&mut rng, levels);
                    if r as usize >= rows || c as usize >= cols {
                        continue;
                    }
                    if let Err(pos) = adj[r as usize].binary_search(&c) {
                        let val = T::from_f64(0.5 + rng.random::<f64>());
                        adj[r as usize].insert(pos, c);
                        edges.push((r, c));
                        // first touch of a currently-dead edge means it
                        // was dead pre-batch too
                        let key = pack(r, c);
                        let existed = pending.get(&key).map(|e| e.0).unwrap_or(false);
                        pending.insert(key, (existed, Pending::Insert(val)));
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    insert = false; // graph too dense here: delete instead
                }
            }
            if !insert {
                if edges.is_empty() {
                    continue; // nothing left to delete (degenerate)
                }
                let i = rng.random_range(0..edges.len());
                let (r, c) = edges.swap_remove(i);
                let pos = adj[r as usize]
                    .binary_search(&c)
                    .expect("edge list and adjacency must agree");
                adj[r as usize].remove(pos);
                let key = pack(r, c);
                match pending.get(&key).map(|e| e.0) {
                    Some(false) => {
                        // inserted earlier this batch: net no-op
                        pending.remove(&key);
                    }
                    Some(true) | None => {
                        pending.insert(key, (true, Pending::Delete));
                    }
                }
            }
        }

        // Fold the pending map, sorted by row then col (the packed key's
        // order), into the wire format. An edge that was live pre-batch
        // and is live again after a delete→reinsert chain is a structural
        // no-op; dropping it keeps the invariant that every emitted insert
        // targets a dead edge and every emitted delete targets a live one.
        folded.clear();
        folded.extend(pending.drain().filter_map(|(key, entry)| match entry {
            (true, Pending::Insert(_)) => None,
            (_, op) => Some((key, op)),
        }));
        folded.sort_unstable_by_key(|&(key, _)| key);
        let mut batch = UpdateBatch::<T>::empty();
        let mut cur_row: Option<u32> = None;
        for &(key, ref op) in &folded {
            let (r, c) = unpack(key);
            if cur_row != Some(r) {
                if cur_row.is_some() {
                    batch.delete_offsets.push(batch.delete_cols.len() as u32);
                    batch.insert_offsets.push(batch.insert_cols.len() as u32);
                }
                batch.rows.push(r);
                cur_row = Some(r);
            }
            match op {
                Pending::Insert(v) => {
                    batch.insert_cols.push(c);
                    batch.insert_vals.push(*v);
                }
                Pending::Delete => batch.delete_cols.push(c),
            }
        }
        if cur_row.is_some() {
            batch.delete_offsets.push(batch.delete_cols.len() as u32);
            batch.insert_offsets.push(batch.insert_cols.len() as u32);
        }
        debug_assert!(batch.validate_for(rows, cols).is_ok());
        out.push(TimedBatch {
            at_s: t,
            ops,
            batch,
        });
    }
    out
}

/// `(row, col)` packed so that key order is row-major order.
fn pack(r: u32, c: u32) -> u64 {
    (r as u64) << 32 | c as u64
}

fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Hasher for packed `(row, col)` keys: one folded 64×64→128-bit
/// multiply, which mixes both halves into the low bits the table indexes
/// by. The keys are generator-internal, so no DoS resistance is needed.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let wide = key as u128 * 0x9E37_79B9_7F4A_7C15u128;
        self.0 = (wide as u64) ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type BuildPackedHasher = BuildHasherDefault<PackedHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::{generate_power_law, PowerLawConfig};

    fn matrix() -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows: 2000,
            cols: 2000,
            mean_degree: 10.0,
            max_degree: 256,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn batch_touches_requested_fraction() {
        let m = matrix();
        let b = generate_update_batch(&m, &UpdateConfig::default());
        assert_eq!(b.touched_rows(), 200);
        b.validate().unwrap();
    }

    #[test]
    fn nnz_stays_nearly_constant() {
        let m = matrix();
        let b = generate_update_batch(&m, &UpdateConfig::default());
        let updated = b.apply_to_csr(&m);
        let drift = (updated.nnz() as f64 - m.nnz() as f64).abs() / m.nnz() as f64;
        assert!(drift < 0.05, "nnz drifted {:.1}%", drift * 100.0);
    }

    #[test]
    fn deletes_reference_existing_columns() {
        let m = matrix();
        let b = generate_update_batch(&m, &UpdateConfig::default());
        for (i, &r) in b.rows.iter().enumerate() {
            let (del, _, _) = b.row_ops(i);
            let (rcols, _) = m.row(r as usize);
            for c in del {
                assert!(rcols.binary_search(c).is_ok(), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn inserts_reference_new_columns() {
        let m = matrix();
        let b = generate_update_batch(&m, &UpdateConfig::default());
        for (i, &r) in b.rows.iter().enumerate() {
            let (_, ins, _) = b.row_ops(i);
            let (rcols, _) = m.row(r as usize);
            for c in ins {
                assert!(rcols.binary_search(c).is_err(), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = matrix();
        let a = generate_update_batch(&m, &UpdateConfig::default());
        let b = generate_update_batch(&m, &UpdateConfig::default());
        assert_eq!(a, b);
        let c = generate_update_batch(
            &m,
            &UpdateConfig {
                seed: 99,
                ..Default::default()
            },
        );
        assert_ne!(a, c);
    }

    fn rmat_matrix() -> CsrMatrix<f64> {
        crate::rmat::generate_rmat(&crate::rmat::RmatConfig {
            scale: 10,
            edge_factor: 8,
            seed: 31,
            ..Default::default()
        })
    }

    #[test]
    fn edge_stream_rate_lands_within_two_percent_of_nominal() {
        // awkward non-round rate × interval, mirroring the loadgen
        // mean-rate contract fix
        let m = rmat_matrix();
        let cfg = ChurnConfig {
            updates_per_sec: 3333.3,
            batch_interval_s: 0.0123,
            horizon_s: 0.9,
            ..Default::default()
        };
        let stream = generate_edge_stream(&m, &cfg);
        assert!(stream.len() >= 70, "got {} batches", stream.len());
        let total_ops: usize = stream.iter().map(|b| b.ops).sum();
        let span = stream.last().unwrap().at_s;
        let empirical = total_ops as f64 / span;
        let err = (empirical - cfg.updates_per_sec).abs() / cfg.updates_per_sec;
        assert!(
            err < 0.02,
            "empirical {empirical:.1} vs nominal {} ({:.2}% off)",
            cfg.updates_per_sec,
            err * 100.0
        );
    }

    #[test]
    fn edge_stream_batches_apply_consecutively() {
        let m = rmat_matrix();
        let stream = generate_edge_stream(
            &m,
            &ChurnConfig {
                updates_per_sec: 20_000.0,
                batch_interval_s: 0.005,
                horizon_s: 0.05,
                ..Default::default()
            },
        );
        let mut cur = m.clone();
        for tb in &stream {
            tb.batch.validate_for(cur.rows(), cur.cols()).unwrap();
            // every delete targets a live edge; every insert a dead one
            for (i, &r) in tb.batch.rows.iter().enumerate() {
                let (del, ins, _) = tb.batch.row_ops(i);
                let (rcols, _) = cur.row(r as usize);
                for c in del {
                    assert!(rcols.binary_search(c).is_ok(), "row {r} col {c}");
                }
                for c in ins {
                    assert!(rcols.binary_search(c).is_err(), "row {r} col {c}");
                }
            }
            cur = tb.batch.apply_to_csr(&cur);
        }
        // balanced mix keeps nnz nearly constant
        let drift = (cur.nnz() as f64 - m.nnz() as f64).abs() / m.nnz() as f64;
        assert!(drift < 0.05, "nnz drifted {:.1}%", drift * 100.0);
    }

    #[test]
    fn edge_stream_insert_mix_controls_growth() {
        let m = rmat_matrix();
        let grow = generate_edge_stream(
            &m,
            &ChurnConfig {
                insert_fraction: 1.0,
                ..Default::default()
            },
        );
        let mut cur = m.clone();
        for tb in &grow {
            cur = tb.batch.apply_to_csr(&cur);
        }
        assert!(cur.nnz() > m.nnz());
        let shrink = generate_edge_stream(
            &m,
            &ChurnConfig {
                insert_fraction: 0.0,
                ..Default::default()
            },
        );
        let mut cur = m.clone();
        for tb in &shrink {
            cur = tb.batch.apply_to_csr(&cur);
        }
        assert!(cur.nnz() < m.nnz());
    }

    #[test]
    fn edge_stream_is_deterministic_per_seed() {
        let m = rmat_matrix();
        let cfg = ChurnConfig::default();
        let a = generate_edge_stream(&m, &cfg);
        let b = generate_edge_stream(&m, &cfg);
        assert_eq!(a, b);
        let c = generate_edge_stream(
            &m,
            &ChurnConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn delete_probability_one_only_deletes() {
        let m = matrix();
        let b = generate_update_batch(
            &m,
            &UpdateConfig {
                delete_probability: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(b.total_inserts(), 0);
        assert!(b.total_deletes() > 0);
        let updated = b.apply_to_csr(&m);
        assert!(updated.nnz() < m.nnz());
    }
}
