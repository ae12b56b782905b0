//! Property tests for the fleet sharding layer: at every device count
//! the bin partition is a disjoint cover, and `partition_fleet`'s
//! replication / halo bookkeeping is internally consistent — every
//! input a shard's computed rows read is owned, replicated, or imported
//! exactly once, replicas are hot rows owned elsewhere, and the
//! replication policy's caps hold. The hot-row census also matches a
//! reference implementation that counts referencing shards in an ordered
//! map.

use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::{partition_fleet, FleetPartition, ReplicationPolicy, ShardPlan};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use std::collections::BTreeMap;

const DEVICE_COUNTS: [usize; 4] = [3, 5, 8, 16];

fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 7.0,
        max_degree: rows / 2 + 8,
        pinned_max_rows: 2,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

/// The full fleet-sharding invariant set for one partition.
fn assert_fleet_invariants(
    m: &CsrMatrix<f64>,
    n: usize,
    policy: &ReplicationPolicy,
    fp: &FleetPartition,
) {
    let rows = m.rows();
    assert_eq!(fp.shards.len(), n);
    assert_eq!(fp.owner.len(), rows);

    // 1. Owned rows form a disjoint cover and agree with the owner map.
    let mut seen = vec![false; rows];
    for s in &fp.shards {
        assert!(s.owned.windows(2).all(|w| w[0] < w[1]), "owned not sorted");
        for &r in &s.owned {
            assert!(!seen[r as usize], "row {r} owned twice");
            seen[r as usize] = true;
            assert_eq!(fp.owner[r as usize] as usize, s.device);
        }
    }
    assert!(seen.iter().all(|&s| s), "some row unowned");

    // 2. Replicas are hot rows owned by a *different* shard, and their
    //    nnz is included in the shard's compute load.
    let hot: Vec<bool> = {
        let mut f = vec![false; rows];
        for &r in &fp.hot_rows {
            f[r as usize] = true;
        }
        f
    };
    for s in &fp.shards {
        assert!(
            s.replicas.windows(2).all(|w| w[0] < w[1]),
            "replicas not sorted"
        );
        for &r in &s.replicas {
            assert!(hot[r as usize], "replica {r} is not a hot row");
            assert_ne!(
                fp.owner[r as usize] as usize, s.device,
                "shard replicates a row it already owns"
            );
        }
        let expect_nnz: usize = s
            .owned
            .iter()
            .chain(s.replicas.iter())
            .map(|&r| m.row_nnz(r as usize))
            .sum();
        assert_eq!(s.nnz, expect_nnz, "device {} nnz accounting", s.device);
    }

    // 3. Halo groups: keyed by the true owner, disjoint from owned and
    //    replicas, and together with them covering every in-range input
    //    column the shard's computed rows read.
    for s in &fp.shards {
        let mut local = vec![false; rows];
        for &r in s.owned.iter().chain(s.replicas.iter()) {
            local[r as usize] = true;
        }
        let mut imported = vec![false; rows];
        for (owner, group) in &s.halo_in {
            assert_ne!(*owner, s.device, "self-edge in halo");
            assert!(group.windows(2).all(|w| w[0] < w[1]), "halo not sorted");
            for &c in group {
                assert_eq!(fp.owner[c as usize] as usize, *owner, "wrong halo owner");
                assert!(!local[c as usize], "halo imports a locally computed row");
                assert!(!imported[c as usize], "column {c} imported twice");
                imported[c as usize] = true;
            }
        }
        for &r in &s.compute_rows() {
            for &c in m.row(r as usize).0 {
                if (c as usize) < rows {
                    assert!(
                        local[c as usize] || imported[c as usize],
                        "device {}: input column {c} of row {r} is neither local nor imported",
                        s.device
                    );
                }
            }
        }
    }

    // 4. Policy caps: hot rows are short, referenced widely enough, and
    //    bounded by the redundancy cap.
    let cap = (policy.max_fraction * rows as f64).floor() as usize;
    assert!(fp.hot_rows.len() <= cap, "redundancy cap exceeded");
    for &r in &fp.hot_rows {
        assert!(m.row_nnz(r as usize) <= policy.max_row_len);
        let replicating = fp
            .shards
            .iter()
            .filter(|s| s.replicas.binary_search(&r).is_ok())
            .count();
        assert!(
            replicating >= 1,
            "hot row {r} is replicated nowhere (census drifted)"
        );
    }
}

/// Rebuild `fp` from its owned rows with an ordered-map census: count
/// the non-owner shards reading each row, keep the short rows read by
/// enough shards, take the most-referenced first (ties ascending) up to
/// the redundancy cap, then derive replicas, halos and loads. Also
/// returns how many rows qualified before the cap.
fn reference_partition(
    m: &CsrMatrix<f64>,
    policy: &ReplicationPolicy,
    fp: &FleetPartition,
) -> (FleetPartition, usize) {
    let rows = m.rows();
    let owner = &fp.owner;
    let remote_inputs = |d: usize, computed: &mut dyn Iterator<Item = u32>| -> Vec<u32> {
        let mut cols: Vec<u32> = computed
            .flat_map(|r| m.row(r as usize).0.iter().copied())
            .filter(|&c| (c as usize) < rows && owner[c as usize] as usize != d)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    let refs: Vec<Vec<u32>> = fp
        .shards
        .iter()
        .map(|s| remote_inputs(s.device, &mut s.owned.iter().copied()))
        .collect();
    let mut census: BTreeMap<u32, usize> = BTreeMap::new();
    for &c in refs.iter().flatten() {
        *census.entry(c).or_insert(0) += 1;
    }
    let mut hot: Vec<u32> = if policy.min_referencing_shards == 0 {
        Vec::new()
    } else {
        census
            .iter()
            .filter(|&(&c, &n)| {
                n >= policy.min_referencing_shards && m.row_nnz(c as usize) <= policy.max_row_len
            })
            .map(|(&c, _)| c)
            .collect()
    };
    hot.sort_by_key(|&c| (std::cmp::Reverse(census[&c]), c));
    let qualified = hot.len();
    hot.truncate((policy.max_fraction * rows as f64).floor() as usize);
    hot.sort_unstable();
    let shards = fp
        .shards
        .iter()
        .zip(&refs)
        .map(|(s, shard_refs)| {
            let replicas: Vec<u32> = shard_refs
                .iter()
                .copied()
                .filter(|c| hot.binary_search(c).is_ok())
                .collect();
            let halo: Vec<u32> =
                remote_inputs(s.device, &mut s.owned.iter().chain(&replicas).copied())
                    .into_iter()
                    .filter(|c| replicas.binary_search(c).is_err())
                    .collect();
            let mut halo_in: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for c in halo {
                halo_in
                    .entry(owner[c as usize] as usize)
                    .or_default()
                    .push(c);
            }
            let nnz = s
                .owned
                .iter()
                .chain(&replicas)
                .map(|&r| m.row_nnz(r as usize))
                .sum();
            ShardPlan {
                device: s.device,
                owned: s.owned.clone(),
                replicas,
                halo_in: halo_in.into_iter().collect(),
                nnz,
            }
        })
        .collect();
    let reference = FleetPartition {
        shards,
        hot_rows: hot,
        owner: owner.clone(),
    };
    (reference, qualified)
}

/// Replication policies the census oracle runs under: the default, off,
/// and one whose cap keeps fewer rows than qualify, so ties between
/// equally referenced rows are cut by row id.
fn census_policies() -> [ReplicationPolicy; 3] {
    [
        ReplicationPolicy::default(),
        ReplicationPolicy::disabled(),
        ReplicationPolicy {
            min_referencing_shards: 1,
            max_row_len: 64,
            max_fraction: 0.02,
        },
    ]
}

/// `partition_fleet` equals the ordered-map reference at N ∈ {2, 3, 4,
/// 8, 16} under every census policy; the truncating policy must actually
/// truncate somewhere, or the tie rule went untested.
fn assert_census_matches_reference(m: &CsrMatrix<f64>) -> bool {
    let mut truncated = false;
    for n in [2usize, 3, 4, 8, 16] {
        for policy in census_policies() {
            let fp = partition_fleet(m, n, &policy);
            let (want, qualified) = reference_partition(m, &policy, &fp);
            assert_eq!(fp, want, "{n} devices, {policy:?}");
            truncated |= qualified > fp.hot_rows.len();
        }
    }
    truncated
}

#[test]
fn census_matches_ordered_map_reference() {
    let m = matrix(3000, 1501);
    assert!(
        assert_census_matches_reference(&m),
        "the capped policy never truncated its candidates"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The census oracle on random power-law graphs.
    #[test]
    fn census_matches_reference_on_random_graphs(rows in 60usize..500, seed in 1u64..5000) {
        assert_census_matches_reference(&matrix(rows, seed));
    }

    /// The bin partition behind `partition_fleet` (replication off, so
    /// every shard computes exactly its owned rows) at N ∈ {3, 5, 8, 16}:
    /// disjoint cover with exact nnz accounting.
    #[test]
    fn bin_partition_is_disjoint_cover(rows in 60usize..500, seed in 1u64..5000) {
        let m = matrix(rows, seed);
        for n in DEVICE_COUNTS {
            let fp = partition_fleet(&m, n, &ReplicationPolicy::disabled());
            prop_assert_eq!(fp.shards.len(), n);
            let mut seen = vec![false; m.rows()];
            let mut nnz = 0usize;
            for s in &fp.shards {
                prop_assert!(s.owned.windows(2).all(|w| w[0] < w[1]));
                for &r in &s.owned {
                    prop_assert!(!seen[r as usize], "row {} assigned twice", r);
                    seen[r as usize] = true;
                }
                nnz += s.nnz;
            }
            prop_assert!(seen.iter().all(|&s| s));
            prop_assert_eq!(nnz, m.nnz());
        }
    }

    /// `partition_fleet` bookkeeping at N ∈ {3, 5, 8, 16}, with
    /// replication both on and off.
    #[test]
    fn fleet_partition_bookkeeping_holds(rows in 60usize..400, seed in 1u64..5000) {
        let m = matrix(rows, seed);
        let generous = ReplicationPolicy {
            min_referencing_shards: 2,
            max_row_len: 64,
            max_fraction: 0.10,
        };
        for n in DEVICE_COUNTS {
            for policy in [ReplicationPolicy::disabled(), ReplicationPolicy::default(), generous] {
                let fp = partition_fleet(&m, n, &policy);
                assert_fleet_invariants(&m, n, &policy, &fp);
                if policy == ReplicationPolicy::disabled() {
                    prop_assert!(fp.hot_rows.is_empty());
                    prop_assert!(fp.shards.iter().all(|s| s.replicas.is_empty()));
                }
            }
        }
    }
}

/// Fewer rows than devices: surplus shards are empty, with no replicas,
/// no halo, and zero nnz — and the cover still holds.
#[test]
fn fewer_rows_than_devices_leaves_clean_empty_shards() {
    let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3);
    t.push(0, 1, 1.0).unwrap();
    t.push(1, 2, 2.0).unwrap();
    t.push(2, 0, 3.0).unwrap();
    let m = t.to_csr();
    for n in [8usize, 16] {
        let fp = partition_fleet(&m, n, &ReplicationPolicy::default());
        assert_fleet_invariants(&m, n, &ReplicationPolicy::default(), &fp);
        let empty = fp.shards.iter().filter(|s| s.owned.is_empty()).count();
        assert_eq!(empty, n - 3, "{n} devices: exactly 3 shards own a row");
        for s in fp.shards.iter().filter(|s| s.owned.is_empty()) {
            assert!(s.replicas.is_empty(), "empty shard replicates nothing");
            assert!(s.halo_in.is_empty(), "empty shard imports nothing");
            assert_eq!(s.nnz, 0);
        }
    }
}
