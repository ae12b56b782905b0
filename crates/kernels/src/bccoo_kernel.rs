//! BCCOO SpMV \[27\]: lanes walk dense tiles, accumulating per tile row and
//! publishing at row-stripe boundaries (the bit-flag segmented scan of
//! yaSpMV, simplified to per-lane stripe accumulation + atomics at
//! boundaries).
//!
//! A lane publishes a tile row only if it accumulated a stored non-zero
//! for it: rows whose stripe segment is all padding issue no atomic. The
//! test reads the matrix, never `x`, so the kernel's modeled cost is a
//! function of the matrix alone — the value-independence launch replay
//! relies on.
//!
//! Kernel behaviour is configuration-driven ([`sparse_formats::BccooConfig`]):
//! workgroup size, tiles per thread (thread coarsening) and texture use all
//! come from the tuned configuration — the knobs whose search constitutes
//! the format's enormous preprocessing cost.

use crate::{fill_kernel, DevBccoo, GpuSpmv};
use gpu_sim::{Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// BCCOO engine.
pub struct BccooKernel<T> {
    mat: DevBccoo<T>,
}

impl<T: Scalar> BccooKernel<T> {
    /// Wrap an uploaded BCCOO matrix (its config travels with it).
    pub fn new(mat: DevBccoo<T>) -> Self {
        BccooKernel { mat }
    }
}

impl<T: Scalar> GpuSpmv<T> for BccooKernel<T> {
    fn name(&self) -> &'static str {
        "BCCOO"
    }

    fn rows(&self) -> usize {
        self.mat.rows
    }
    fn cols(&self) -> usize {
        self.mat.cols
    }
    fn nnz(&self) -> usize {
        self.mat.nnz
    }
    fn device_bytes(&self) -> u64 {
        self.mat.device_bytes()
    }

    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        assert_eq!(x.len(), self.mat.cols, "x length mismatch");
        assert_eq!(y.len(), self.mat.rows, "y length mismatch");
        let zero = fill_kernel(dev, y, T::ZERO);
        let mat = &self.mat;
        let cfg = mat.config;
        let (bh, bw) = (cfg.block_h, cfg.block_w);
        let tile_len = bh * bw;
        let n_tiles = mat.n_tiles;
        if n_tiles == 0 {
            return zero;
        }
        let tiles_per_thread = cfg.thread_load.max(1);
        let threads = n_tiles.div_ceil(tiles_per_thread);
        let block_dim = cfg.workgroup.clamp(WARP, 1024);
        let grid = threads.div_ceil(block_dim).max(1);
        let main = dev.launch("bccoo", grid, block_dim, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let t0 = warp.first_thread();
                if t0 >= threads {
                    return;
                }
                let live = (threads - t0).min(WARP);
                // Per-lane stripe accumulators: bh running sums, bh masks
                // of lanes that accumulated a stored non-zero, and the
                // stripe's base row.
                let mut acc: Vec<[T; WARP]> = vec![[T::ZERO; WARP]; bh];
                let mut stored = vec![0u32; bh];
                let mut cur_row = [u32::MAX; WARP];

                for step in 0..tiles_per_thread {
                    // lane l processes tile (t0+l)*tiles_per_thread + step
                    let mut t_mask = 0u32;
                    let mut tidx = [0usize; WARP];
                    for lane in 0..live {
                        let t = (t0 + lane) * tiles_per_thread + step;
                        if t < n_tiles {
                            t_mask |= 1 << lane;
                            tidx[lane] = t;
                        }
                    }
                    if t_mask == 0 {
                        break;
                    }
                    let trows = warp.gather(&mat.tile_rows, &tidx, t_mask);
                    let tcols = warp.gather(&mat.tile_cols, &tidx, t_mask);

                    // stripe change -> flush accumulated rows via atomics
                    let mut flush_mask = 0u32;
                    for lane in 0..live {
                        if t_mask >> lane & 1 == 1
                            && cur_row[lane] != u32::MAX
                            && trows[lane] != cur_row[lane]
                        {
                            flush_mask |= 1 << lane;
                        }
                    }
                    warp.charge_alu(1);
                    if flush_mask != 0 {
                        flush(
                            warp,
                            y,
                            &mut acc,
                            &mut stored,
                            &cur_row,
                            flush_mask,
                            mat.rows,
                        );
                    }
                    for lane in 0..live {
                        if t_mask >> lane & 1 == 1
                            && (flush_mask >> lane & 1 == 1 || cur_row[lane] == u32::MAX)
                        {
                            cur_row[lane] = trows[lane];
                        }
                    }

                    // multiply the dense tile: bh*bw value reads + bw x reads
                    for j in 0..bw {
                        let xi: [usize; WARP] = std::array::from_fn(|l| {
                            if t_mask >> l & 1 == 1 {
                                (tcols[l] as usize + j).min(mat.cols - 1)
                            } else {
                                0
                            }
                        });
                        // lanes whose column j is in range
                        let mut jm = 0u32;
                        for lane in 0..live {
                            if t_mask >> lane & 1 == 1 && (tcols[lane] as usize + j) < mat.cols {
                                jm |= 1 << lane;
                            }
                        }
                        if jm == 0 {
                            continue;
                        }
                        let xs = if cfg.texture_x {
                            warp.gather_tex(x, &xi, jm)
                        } else {
                            warp.gather(x, &xi, jm)
                        };
                        for i in 0..bh {
                            let vidx: [usize; WARP] = std::array::from_fn(|l| {
                                if jm >> l & 1 == 1 {
                                    tidx[l] * tile_len + i * bw + j
                                } else {
                                    0
                                }
                            });
                            let vals = warp.gather(&mat.tile_values, &vidx, jm);
                            for lane in 0..live {
                                if jm >> lane & 1 == 1 {
                                    acc[i][lane] = vals[lane].mul_add(xs[lane], acc[i][lane]);
                                    stored[i] |= u32::from(vals[lane] != T::ZERO) << lane;
                                }
                            }
                            warp.charge_fma(jm);
                        }
                    }
                }
                // final flush of every lane that accumulated anything
                let mut final_mask = 0u32;
                for lane in 0..live {
                    if cur_row[lane] != u32::MAX {
                        final_mask |= 1 << lane;
                    }
                }
                if final_mask != 0 {
                    flush(
                        warp,
                        y,
                        &mut acc,
                        &mut stored,
                        &cur_row,
                        final_mask,
                        mat.rows,
                    );
                }
            });
        });
        zero.then(&main)
    }
}

/// Publish the accumulated tile-row sums of every flushing lane that
/// accumulated a stored non-zero for the row, with atomics, then clear
/// those accumulators.
fn flush<T: Scalar>(
    warp: &mut gpu_sim::WarpCtx,
    y: &DeviceBuffer<T>,
    acc: &mut [[T; WARP]],
    stored: &mut [u32],
    cur_row: &[u32; WARP],
    flush_mask: u32,
    rows: usize,
) {
    for (i, (acc, stored)) in acc.iter_mut().zip(stored.iter_mut()).enumerate() {
        let mut m = 0u32;
        let mut idx = [0usize; WARP];
        let mut vals = [T::ZERO; WARP];
        for lane in 0..WARP {
            if flush_mask >> lane & 1 == 1 {
                let r = cur_row[lane] as usize + i;
                if r < rows && *stored >> lane & 1 == 1 {
                    m |= 1 << lane;
                    idx[lane] = r;
                    vals[lane] = acc[lane];
                }
                acc[lane] = T::ZERO;
            }
        }
        *stored &= !flush_mask;
        if m != 0 {
            warp.atomic_rmw(y, &idx, &vals, m, |a, b| a + b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;
    use sparse_formats::{BccooConfig, BccooMatrix};

    fn run_with(cfg: BccooConfig, rows: usize, seed: u64) {
        let m = test_matrix(rows, seed);
        let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = BccooKernel::new(DevBccoo::upload(&dev, &b));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![5.0f64; m.rows()]);
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, &format!("{cfg:?}"));
    }

    #[test]
    fn matches_reference_default_config() {
        run_with(BccooConfig::default(), 900, 41);
    }

    #[test]
    fn matches_reference_across_tile_shapes() {
        for (bh, bw) in [(1, 1), (2, 2), (4, 4), (8, 2), (1, 8)] {
            run_with(
                BccooConfig {
                    block_h: bh,
                    block_w: bw,
                    ..Default::default()
                },
                400,
                42,
            );
        }
    }

    #[test]
    fn thread_coarsening_preserves_results() {
        for tl in [1, 2, 4] {
            run_with(
                BccooConfig {
                    thread_load: tl,
                    ..Default::default()
                },
                500,
                43,
            );
        }
    }

    #[test]
    fn workgroup_sizes_preserve_results() {
        for wg in [64, 256, 1024] {
            run_with(
                BccooConfig {
                    workgroup: wg,
                    ..Default::default()
                },
                300,
                44,
            );
        }
    }

    #[test]
    fn config_changes_modeled_time() {
        // different configs must actually produce different cost profiles
        let m = test_matrix(3000, 45);
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f64>(m.cols());
        let mut times = Vec::new();
        for cfg in [
            BccooConfig {
                block_h: 1,
                block_w: 1,
                ..Default::default()
            },
            BccooConfig {
                block_h: 8,
                block_w: 8,
                ..Default::default()
            },
        ] {
            let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
            let eng = BccooKernel::new(DevBccoo::upload(&dev, &b));
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc_zeroed::<f64>(m.rows());
            times.push(eng.spmv(&dev, &xd, &yd).time_s);
        }
        assert_ne!(times[0], times[1]);
    }
}
