//! Power-law matrix generator.
//!
//! Produces matrices with the Figure-3 shape: a heavy concentration of
//! very short rows plus a long tail of very wide rows. Degrees are drawn
//! from a truncated discrete power law whose exponent is fitted to the
//! requested mean; a configurable number of rows are *pinned* to the
//! maximum degree so the tail the paper's dynamic-parallelism path targets
//! is guaranteed to exist at any scale.

use crate::sampling::{fit_alpha_for_mean, thin_tail_pmf, truncated_power_law_pmf, DiscreteAlias};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_formats::{CsrMatrix, Scalar};

/// Row-degree distribution family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegreeModel {
    /// Truncated power law fitted to the mean — the Figure 3 shape.
    #[default]
    PowerLaw,
    /// Thin tail (truncated geometric/Poisson) — the AMZ/DBL/RAL contrast
    /// cases whose σ stays near (or below) μ.
    ThinTail,
}

/// Configuration for [`generate_power_law`].
#[derive(Clone, Debug, PartialEq)]
pub struct PowerLawConfig {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns (== `rows` for adjacency matrices).
    pub cols: usize,
    /// Target mean non-zeros per row (Table I's μ).
    pub mean_degree: f64,
    /// Maximum non-zeros in any row (Table I's Max); also the power-law
    /// truncation point.
    pub max_degree: usize,
    /// Number of rows pinned to exactly `max_degree` (guarantees the long
    /// tail exists; the paper's matrices have a handful of such rows).
    pub pinned_max_rows: usize,
    /// Zipf exponent for *column* popularity (0.0 = uniform columns).
    /// Real web/social adjacency columns are themselves skewed; this
    /// shapes the x-vector reuse pattern the texture cache sees.
    pub col_skew: f64,
    /// RNG seed — all generation is deterministic given the config.
    pub seed: u64,
    /// Degree distribution family.
    pub degree_model: DegreeModel,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            rows: 1 << 16,
            cols: 1 << 16,
            mean_degree: 12.0,
            max_degree: 2048,
            pinned_max_rows: 2,
            col_skew: 0.6,
            seed: 0xACE5_2014,
            degree_model: DegreeModel::PowerLaw,
        }
    }
}

/// Generate a power-law sparse matrix per `cfg`. Values are drawn from
/// `U(0.5, 1.5)` so no structural zeros appear and normalizations are
/// well-conditioned.
pub fn generate_power_law<T: Scalar>(cfg: &PowerLawConfig) -> CsrMatrix<T> {
    assert!(cfg.rows > 0 && cfg.cols > 0, "empty shape");
    let max_degree = cfg.max_degree.clamp(1, cfg.cols);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Degree distribution fitted to the target mean. The pinned max rows
    // contribute `pinned * max / rows` to the realized mean — significant
    // at small scales — so the sampled part is fitted to compensate.
    let pinned = cfg.pinned_max_rows.min(cfg.rows);
    let sampled_rows = (cfg.rows - pinned).max(1);
    let target_mean = ((cfg.mean_degree * cfg.rows as f64 - (pinned * max_degree) as f64)
        / sampled_rows as f64)
        .max(1.01);
    let pmf = match cfg.degree_model {
        DegreeModel::PowerLaw => {
            let alpha = fit_alpha_for_mean(target_mean, max_degree);
            truncated_power_law_pmf(alpha, max_degree)
        }
        DegreeModel::ThinTail => thin_tail_pmf(target_mean, max_degree),
    };
    let degree_table = DiscreteAlias::new(&pmf);

    // Column popularity: Zipf over a random permutation of columns so the
    // popular columns are not simply the low indices.
    let col_table = if cfg.col_skew > 0.0 {
        Some(DiscreteAlias::new(&zipf_weights(cfg.cols, cfg.col_skew)))
    } else {
        None
    };
    let mut col_perm: Vec<u32> = (0..cfg.cols as u32).collect();
    // Fisher-Yates shuffle.
    for i in (1..col_perm.len()).rev() {
        let j = rng.random_range(0..=i);
        col_perm.swap(i, j);
    }

    let mut degrees: Vec<usize> = (0..cfg.rows)
        .map(|_| degree_table.sample(&mut rng) + 1)
        .collect();
    // Pin the long tail.
    for d in degrees.iter_mut().take(cfg.pinned_max_rows.min(cfg.rows)) {
        *d = max_degree;
    }

    // Rows are emitted straight into CSR: each row's columns are
    // distinct, so sorting its (col, value) pairs is the whole assembly.
    let est_nnz: usize = degrees.iter().sum();
    let mut row_offsets = Vec::with_capacity(cfg.rows + 1);
    let mut col_indices = Vec::with_capacity(est_nnz);
    let mut values = Vec::with_capacity(est_nnz);
    row_offsets.push(0u32);
    let mut row_cols: Vec<u32> = Vec::with_capacity(max_degree);
    let mut row: Vec<(u32, T)> = Vec::with_capacity(max_degree);
    let mut seen = vec![false; cfg.cols];
    for &d in &degrees {
        sample_distinct_columns(
            d,
            cfg.cols,
            col_table.as_ref(),
            &col_perm,
            &mut rng,
            &mut row_cols,
            &mut seen,
        );
        row.clear();
        for &c in &row_cols {
            row.push((c, T::from_f64(0.5 + rng.random::<f64>())));
        }
        row.sort_unstable_by_key(|&(c, _)| c);
        for &(c, v) in &row {
            col_indices.push(c);
            values.push(v);
        }
        row_offsets.push(col_indices.len() as u32);
    }
    CsrMatrix::from_raw_parts(cfg.rows, cfg.cols, row_offsets, col_indices, values)
        .expect("power-law rows are in shape with distinct columns")
}

/// Zipf weights over `n` outcomes with exponent `s`.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| (k as f64).powf(-s)).collect()
}

/// Sample `d` distinct columns into `out`. Uses rejection against a
/// `seen` bitmap (reset on exit); falls back to dense selection when `d`
/// approaches the column count, where rejection would thrash.
fn sample_distinct_columns<R: Rng>(
    d: usize,
    cols: usize,
    table: Option<&DiscreteAlias>,
    perm: &[u32],
    rng: &mut R,
    out: &mut Vec<u32>,
    seen: &mut [bool],
) {
    out.clear();
    let d = d.min(cols);
    if d * 4 >= cols * 3 {
        // Dense case: choose which columns to *exclude*.
        let excluded = cols - d;
        for c in 0..cols as u32 {
            out.push(c);
        }
        for _ in 0..excluded {
            let i = rng.random_range(0..out.len());
            out.swap_remove(i);
        }
        return;
    }
    let mut attempts = 0usize;
    while out.len() < d {
        let raw = match table {
            Some(t) => perm[t.sample(rng)],
            None => rng.random_range(0..cols as u32),
        };
        if !seen[raw as usize] {
            seen[raw as usize] = true;
            out.push(raw);
        }
        attempts += 1;
        // Popular-column collisions can stall huge rows under heavy skew;
        // degrade gracefully to uniform sampling.
        if attempts > 20 * d + 100 {
            while out.len() < d {
                let raw = rng.random_range(0..cols as u32);
                if !seen[raw as usize] {
                    seen[raw as usize] = true;
                    out.push(raw);
                }
            }
            break;
        }
    }
    for &c in out.iter() {
        seen[c as usize] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> PowerLawConfig {
        PowerLawConfig {
            rows: 4000,
            cols: 4000,
            mean_degree: 8.0,
            max_degree: 512,
            pinned_max_rows: 2,
            col_skew: 0.6,
            seed: 42,
            degree_model: DegreeModel::PowerLaw,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: CsrMatrix<f64> = generate_power_law(&small_cfg());
        let b: CsrMatrix<f64> = generate_power_law(&small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: CsrMatrix<f64> = generate_power_law(&small_cfg());
        let mut cfg = small_cfg();
        cfg.seed = 43;
        let b: CsrMatrix<f64> = generate_power_law(&cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_degree_is_close_to_target() {
        let m: CsrMatrix<f64> = generate_power_law(&small_cfg());
        let stats = m.row_stats();
        assert!(
            (stats.mean - 8.0).abs() / 8.0 < 0.15,
            "mean {} vs target 8",
            stats.mean
        );
    }

    #[test]
    fn max_degree_rows_are_pinned() {
        let m: CsrMatrix<f64> = generate_power_law(&small_cfg());
        let stats = m.row_stats();
        assert_eq!(stats.max_row, 512);
        assert_eq!(m.row_nnz(0), 512);
        assert_eq!(m.row_nnz(1), 512);
    }

    #[test]
    fn looks_power_law() {
        let m: CsrMatrix<f64> = generate_power_law(&small_cfg());
        assert!(m.row_stats().looks_power_law());
    }

    #[test]
    fn rows_have_distinct_sorted_columns() {
        let m: CsrMatrix<f64> = generate_power_law(&small_cfg());
        for r in 0..m.rows() {
            let (cols, _) = m.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r}");
        }
    }

    #[test]
    fn zero_col_skew_is_supported() {
        let mut cfg = small_cfg();
        cfg.col_skew = 0.0;
        cfg.rows = 500;
        cfg.cols = 500;
        let m: CsrMatrix<f32> = generate_power_law(&cfg);
        assert!(m.nnz() > 0);
    }

    #[test]
    fn rectangular_shapes_work() {
        let cfg = PowerLawConfig {
            rows: 64,
            cols: 10_000,
            mean_degree: 200.0,
            max_degree: 3000,
            pinned_max_rows: 1,
            col_skew: 0.2,
            seed: 9,
            degree_model: DegreeModel::PowerLaw,
        };
        let m: CsrMatrix<f64> = generate_power_law(&cfg);
        assert_eq!(m.shape(), (64, 10_000));
        assert_eq!(m.row_stats().max_row, 3000);
    }

    #[test]
    fn near_dense_rows_use_exclusion_path() {
        let cfg = PowerLawConfig {
            rows: 8,
            cols: 32,
            mean_degree: 28.0,
            max_degree: 32,
            pinned_max_rows: 8,
            col_skew: 0.5,
            seed: 3,
            degree_model: DegreeModel::PowerLaw,
        };
        let m: CsrMatrix<f64> = generate_power_law(&cfg);
        for r in 0..8 {
            assert_eq!(m.row_nnz(r), 32);
        }
    }

    #[test]
    fn values_are_in_expected_range() {
        let m: CsrMatrix<f64> = generate_power_law(&small_cfg());
        assert!(m.values().iter().all(|&v| (0.5..1.5).contains(&v)));
    }
}
