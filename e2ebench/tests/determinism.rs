//! The traced run's counts must repeat exactly under one seed: nodes
//! and simulated misses per probe, wire bytes per window, join probes
//! per query and stored bytes per row.

use ccindex_e2ebench::layers::deterministic_counts;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn per_layer_counts_repeat_under_one_seed() {
    let dir = scratch("counts-repeat");
    let first = deterministic_counts(7, 20_000, &dir);
    // Allocate in between so the second run's arrays land elsewhere.
    let ballast: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 4096 * (i + 1)]).collect();
    let second = deterministic_counts(7, 20_000, &dir);
    drop(ballast);
    assert_eq!(first, second);
    assert!(first.css.nodes_per_probe > 1.0);
    assert!(first.css.l1_misses_per_probe > 0.0);
    assert!(first.wire_bytes_per_window > 0.0);
    assert!(first.join_probes_per_query > 0.0);
    assert!(first.store_bytes_per_row > 0.0);
}

#[test]
fn counts_follow_the_seed() {
    let dir = scratch("counts-seed");
    let a = deterministic_counts(7, 20_000, &dir);
    let b = deterministic_counts(8, 20_000, &dir);
    // The probes differ, so the simulated cache behaviour does.
    assert_ne!(a.css, b.css);
}
