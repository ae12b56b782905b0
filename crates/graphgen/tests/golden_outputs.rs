//! Golden fingerprints of every generator's output.
//!
//! Each case hashes the generated structure and value bits with FNV-1a,
//! so any change to the RNG call order, the column draw, the duplicate
//! merge or the CSR assembly shows up here as a changed fingerprint.
//! The fingerprints are the generators' contract: the Table-I analogs,
//! the committed `results/` artifacts and every modeled number
//! downstream depend on these bytes.
//!
//! On a mismatch the test prints every actual fingerprint, so an
//! intentional change can be re-recorded (and must be noted in
//! CHANGES.md together with the regenerated artifacts).

use graphgen::powerlaw::DegreeModel;
use graphgen::{
    generate_edge_stream, generate_power_law, generate_regular, generate_rmat, generate_uniform,
    generate_update_batch, ChurnConfig, PowerLawConfig, RmatConfig, UpdateConfig, TABLE1_SUITE,
};
use sparse_formats::{CsrMatrix, UpdateBatch};

/// Suite scale divisor: every spec lands at a few thousand rows, small
/// enough for a debug build.
const SUITE_SCALE: usize = 1024;
const SUITE_SEED: u64 = 1;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v.to_bits());
        }
    }

    fn csr(&mut self, m: &CsrMatrix<f64>) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.u32s(m.row_offsets());
        self.u32s(m.col_indices());
        self.f64s(m.values());
    }

    fn batch(&mut self, b: &UpdateBatch<f64>) {
        self.u32s(&b.rows);
        self.u32s(&b.delete_offsets);
        self.u32s(&b.delete_cols);
        self.u32s(&b.insert_offsets);
        self.u32s(&b.insert_cols);
        self.f64s(&b.insert_vals);
    }
}

fn csr_fp(m: &CsrMatrix<f64>) -> u64 {
    let mut h = Fnv::new();
    h.csr(m);
    h.0
}

fn power_law_cfg() -> PowerLawConfig {
    PowerLawConfig {
        rows: 3000,
        cols: 3000,
        mean_degree: 9.0,
        max_degree: 400,
        pinned_max_rows: 2,
        col_skew: 0.6,
        seed: 42,
        degree_model: DegreeModel::PowerLaw,
    }
}

fn rmat() -> CsrMatrix<f64> {
    generate_rmat(&RmatConfig {
        scale: 12,
        seed: 31,
        ..Default::default()
    })
}

/// Every case's actual fingerprint, in a fixed order.
fn actual() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for spec in TABLE1_SUITE {
        let m = spec.generate::<f64>(SUITE_SCALE, SUITE_SEED);
        out.push((format!("suite/{}", spec.abbrev), csr_fp(&m.csr)));
    }

    let thin = PowerLawConfig {
        degree_model: DegreeModel::ThinTail,
        max_degree: 40,
        ..power_law_cfg()
    };
    out.push((
        "power_law/thin_tail".into(),
        csr_fp(&generate_power_law(&thin)),
    ));
    let flat = PowerLawConfig {
        col_skew: 0.0,
        ..power_law_cfg()
    };
    out.push((
        "power_law/col_skew_0".into(),
        csr_fp(&generate_power_law(&flat)),
    ));

    let r = rmat();
    out.push(("rmat/scale12".into(), csr_fp(&r)));

    let stream = generate_edge_stream(&r, &ChurnConfig::default());
    let mut h = Fnv::new();
    h.u64(stream.len() as u64);
    for tb in &stream {
        h.u64(tb.at_s.to_bits());
        h.u64(tb.ops as u64);
        h.batch(&tb.batch);
    }
    out.push(("edge_stream/rmat".into(), h.0));

    let mut h = Fnv::new();
    h.batch(&generate_update_batch(&r, &UpdateConfig::default()));
    out.push(("update_batch/rmat".into(), h.0));

    out.push((
        "uniform".into(),
        csr_fp(&generate_uniform(2000, 1500, 10.0, 1)),
    ));
    out.push(("regular".into(), csr_fp(&generate_regular(500, 700, 6, 3))));
    out
}

/// Recorded before the generators were rewritten to emit CSR directly.
const EXPECTED: &[(&str, u64)] = &[
    ("suite/AMZ", 0xa137edc7ab7dccc0),
    ("suite/CNR", 0x608bb064918c3606),
    ("suite/DBL", 0xbf8b5b940ce00c86),
    ("suite/ENR", 0xd4bbebe7067c9a13),
    ("suite/EU2", 0xddc7c75ab73d5b65),
    ("suite/FLI", 0xb52558df2ec70a85),
    ("suite/HOL", 0x88bc8846a0d84256),
    ("suite/IN2", 0x905ed6e3f75e61da),
    ("suite/IND", 0xfe6c711dc2023cbe),
    ("suite/INT", 0x167bbeb9998a6fec),
    ("suite/LIV", 0xee485d694433d3d9),
    ("suite/LJ2", 0x83ade9550ea1a3b6),
    ("suite/UK2", 0x07e11cd88876ef98),
    ("suite/WIK", 0x14f1543983ef9576),
    ("suite/YOT", 0x8b97adeeab99dd3d),
    ("suite/WEB", 0x8533aaf0afcc4691),
    ("suite/RAL", 0x7c8b92d9365a4620),
    ("power_law/thin_tail", 0x4b579b6b1c2f6863),
    ("power_law/col_skew_0", 0xe9e33e421a108e17),
    ("rmat/scale12", 0x392b7ac6b4a81531),
    ("edge_stream/rmat", 0x359a95888610b761),
    ("update_batch/rmat", 0xf2575b234145638f),
    ("uniform", 0x993e1f1cc530f458),
    ("regular", 0xa52e3de4060b9a25),
];

#[test]
fn generator_outputs_match_golden_fingerprints() {
    let actual = actual();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !matches {
        let listing: String = actual
            .iter()
            .map(|(n, v)| format!("    (\"{n}\", 0x{v:016x}),\n"))
            .collect();
        panic!("generator fingerprints changed; actual:\n{listing}");
    }
}
