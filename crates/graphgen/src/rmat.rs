//! R-MAT recursive matrix generator (Chakrabarti, Zhan & Faloutsos).
//!
//! The classic Kronecker-style generator behind Graph500: each edge is
//! placed by recursively descending into one of four quadrants with
//! probabilities `(a, b, c, d)`. With the canonical skewed parameters it
//! produces power-law in- and out-degree distributions — an independent
//! second source of paper-shaped inputs alongside [`crate::powerlaw`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_formats::{CsrMatrix, Scalar, TripletMatrix};

/// Configuration for [`generate_rmat`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices (matrix is `2^scale x 2^scale`).
    pub scale: u32,
    /// Average edges per vertex (Graph500 uses 16).
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to ~1. Graph500: (0.57, 0.19,
    /// 0.19, 0.05).
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 14,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0x5EED_0500,
        }
    }
}

impl RmatConfig {
    /// The implied `d` probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generate an R-MAT matrix. Duplicate edges are merged (values summed),
/// so the realized nnz is slightly below `edge_factor * 2^scale`.
pub fn generate_rmat<T: Scalar>(cfg: &RmatConfig) -> CsrMatrix<T> {
    assert!(cfg.scale >= 1 && cfg.scale <= 30, "scale out of range");
    let d = cfg.d();
    assert!(
        cfg.a >= 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && d >= -1e-9,
        "quadrant probabilities must be non-negative"
    );
    let n = 1usize << cfg.scale;
    let edges = n * cfg.edge_factor;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let quadrant = Quadrants::new(cfg.a, cfg.b, cfg.c);
    let mut t = TripletMatrix::with_capacity(n, n, edges);
    for _ in 0..edges {
        let (r, c) = quadrant.descend(&mut rng, cfg.scale);
        t.push_unchecked(r, c, T::ONE);
    }
    t.to_csr()
}

/// Branch-free R-MAT quadrant choice from the cumulative thresholds
/// `a`, `a+b`, `a+b+c`, precomputed once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Quadrants {
    a: f64,
    ab: f64,
    abc: f64,
}

impl Quadrants {
    pub(crate) fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0,
            "quadrant probabilities must be non-negative"
        );
        let ab = a + b;
        Quadrants { a, ab, abc: ab + c }
    }

    /// Quadrant index for a uniform draw `p`: 0 = (0,0), 1 = (0,1),
    /// 2 = (1,0), 3 = (1,1). Non-negative probabilities make the
    /// thresholds non-decreasing, so counting the ones `p` has passed
    /// picks the same quadrant as the cascade
    /// `if p < a {0} else if p < a+b {1} else if p < a+b+c {2} else {3}`,
    /// with the same comparisons and no branches.
    #[inline]
    fn pick(&self, p: f64) -> u32 {
        (p >= self.a) as u32 + (p >= self.ab) as u32 + (p >= self.abc) as u32
    }

    /// One edge: descend `levels` levels from the top bit, one uniform
    /// draw per level.
    #[inline]
    pub(crate) fn descend<R: Rng>(&self, rng: &mut R, levels: u32) -> (u32, u32) {
        let (mut r, mut c) = (0u32, 0u32);
        for level in (0..levels).rev() {
            let q = self.pick(rng.random());
            r |= (q >> 1) << level;
            c |= (q & 1) << level;
        }
        (r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_density_are_as_configured() {
        let cfg = RmatConfig {
            scale: 10,
            edge_factor: 8,
            ..Default::default()
        };
        let m: CsrMatrix<f64> = generate_rmat(&cfg);
        assert_eq!(m.shape(), (1024, 1024));
        // duplicates merge, so nnz ≤ edges but most survive
        assert!(m.nnz() <= 8 * 1024);
        assert!(m.nnz() > 4 * 1024, "nnz {}", m.nnz());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RmatConfig {
            scale: 9,
            ..Default::default()
        };
        let a: CsrMatrix<f32> = generate_rmat(&cfg);
        let b: CsrMatrix<f32> = generate_rmat(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_parameters_give_skewed_degrees() {
        let cfg = RmatConfig {
            scale: 12,
            edge_factor: 16,
            ..Default::default()
        };
        let m: CsrMatrix<f64> = generate_rmat(&cfg);
        let stats = m.row_stats();
        assert!(
            stats.max_row as f64 > 6.0 * stats.mean,
            "max {} mean {}",
            stats.max_row,
            stats.mean
        );
    }

    #[test]
    fn uniform_parameters_give_flat_degrees() {
        let cfg = RmatConfig {
            scale: 12,
            edge_factor: 16,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            seed: 7,
        };
        let m: CsrMatrix<f64> = generate_rmat(&cfg);
        let stats = m.row_stats();
        assert!(
            stats.std_dev < stats.mean,
            "σ {} μ {}",
            stats.std_dev,
            stats.mean
        );
    }

    #[test]
    fn duplicate_edges_sum_values() {
        // With scale 2 and many edges, duplicates are certain; all values
        // must be positive integers (sums of ONE).
        let cfg = RmatConfig {
            scale: 2,
            edge_factor: 64,
            ..Default::default()
        };
        let m: CsrMatrix<f64> = generate_rmat(&cfg);
        let total: f64 = m.values().iter().sum();
        assert_eq!(total, 4.0 * 64.0);
    }
}
