//! Engine-refactor regression gate: the discrete-event engine may be
//! rebuilt freely (timer wheel, slab arena, hashers), but behavior must
//! stay bit-identical. A 50-seed chaos soak is fingerprinted and compared
//! against a golden file captured on the pre-refactor (`BinaryHeap`)
//! engine; any divergence in delivery order, timer firing, or protocol
//! state shows up as a fingerprint mismatch.
//!
//! Regenerate the golden (only when *intentionally* changing behavior)
//! with:
//!
//! ```text
//! BLESS_ENGINE_FINGERPRINTS=1 cargo test -p bft-sim --release \
//!     --test engine_fingerprint
//! ```

use bft_sim::chaos::{run_plan, ChaosPlan};

/// Soak width in every profile; the golden file holds all 50 seeds.
const SEEDS: u64 = 50;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chaos_fingerprints.txt"
);

fn soak() -> String {
    let mut out = String::new();
    for seed in 0..SEEDS {
        let report = run_plan(&ChaosPlan::generate(seed));
        assert!(
            report.ok,
            "seed {seed} violated the oracle: {:?}",
            report.violations
        );
        out.push_str(&format!("{seed} {}\n", report.fingerprint));
    }
    out
}

#[test]
fn chaos_soak_fingerprints_match_pre_refactor_engine() {
    if std::env::var_os("BLESS_ENGINE_FINGERPRINTS").is_some() {
        std::fs::write(GOLDEN, soak()).expect("write golden");
        return;
    }
    let got = soak();
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    assert_eq!(
        want.lines().count() as u64,
        SEEDS,
        "golden covers all seeds"
    );
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "chaos fingerprint diverged from the pre-refactor engine at \
             golden line {}",
            line + 1
        );
    }
    assert_eq!(got.lines().count() as u64, SEEDS, "soak width");
}
