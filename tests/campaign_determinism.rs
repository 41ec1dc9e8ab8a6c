//! The acceptance pin for the campaign subsystem: the ported face-off
//! sweep's artifact is **byte-identical across shard counts {1, 2, 8}**
//! on the same campaign seed, and equal to the serial reference executor.
//! (The CI canary additionally diffs the `campaign` binary's on-disk
//! artifacts at 1 vs 4 shards.)

use lowsense_experiments::campaigns;
use lowsense_experiments::exp::{t4, t7};

#[test]
fn faceoff_artifact_is_byte_identical_across_shard_counts() {
    let spec = campaigns::faceoff_small_spec(42);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("\"schema\": \"lowsense-campaign/2\""));
    for shards in [1, 2, 8] {
        let run = spec.run_sharded(shards);
        assert_eq!(run, oracle, "cell statistics drifted at {shards} shards");
        assert_eq!(
            run.to_json(),
            json,
            "artifact bytes drifted at {shards} shards"
        );
    }
}

#[test]
fn feedback_grid_artifact_is_byte_identical_across_shard_counts() {
    let spec = campaigns::feedback_grid_small_spec(42);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("\"models\": [\"ternary\", \"no-cd\", \"costly(alpha=0.5)\"]"));
    // `campaign feedback-grid --seed 42` writes exactly this render; the
    // committed artifact must come back byte for byte.
    assert_eq!(json, include_str!("../CAMPAIGN_feedback_grid.json"));
    for shards in [1, 4] {
        let run = spec.run_sharded(shards);
        assert_eq!(run, oracle, "cell statistics drifted at {shards} shards");
        assert_eq!(
            run.to_json(),
            json,
            "artifact bytes drifted at {shards} shards"
        );
    }
}

#[test]
fn faceoff_campaign_seed_is_load_bearing() {
    let a = campaigns::faceoff_small_spec(1).run_sharded(2).to_json();
    let b = campaigns::faceoff_small_spec(2).run_sharded(2).to_json();
    assert_ne!(a, b, "different campaign seeds must give different sweeps");
}

#[test]
fn ported_energy_campaign_is_shard_count_invariant() {
    // The T4 energy sweep exercises per-packet accumulators (Welford +
    // sketch + histogram); pin those across shard counts too.
    let spec = t4::energy_spec(&[64, 128], 3, 7);
    let oracle = spec.run_serial();
    for shards in [2, 8] {
        assert_eq!(spec.run_sharded(shards), oracle, "{shards} shards");
    }
}

#[test]
fn ported_reactive_campaign_is_shard_count_invariant() {
    // The T7 sweep adds a custom metric; its accumulator must merge in
    // canonical order as well.
    let spec = t7::reactive_spec(128, &[0, 8], 3, 9);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("target_accesses"));
    for shards in [2, 8] {
        assert_eq!(spec.run_sharded(shards).to_json(), json, "{shards} shards");
    }
}
