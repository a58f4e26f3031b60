//! Integration tests for the self-tuning runtime
//! (`srumma_core::tune`): host-profile round-trips and rejection paths,
//! and tuner bitwise neutrality on batch streams.
//!
//! Profile tests use explicit temp-file paths (`HostProfile::save` /
//! `SrummaOptions::from_profile_path`) rather than the process-global
//! cached default so they stay independent of each other and of the
//! test runner's parallelism.

use srumma_core::batch::{
    batch_serial_reference, multiply_batch, multiply_batch_exec, multiply_batch_exec_tuned,
    BatchEntry, BatchSpec,
};
use srumma_core::{
    GemmSpec, HostProfile, ProfileError, SrummaOptions, TunerConfig, PROFILE_VERSION,
};
use srumma_dense::{max_abs_diff, BlockSizes, GemmConfig, Matrix, Microkernel, Op};
use std::path::PathBuf;

/// A unique temp path per test (pid + name), removed by the caller.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("srumma_tune_{}_{name}.json", std::process::id()))
}

fn an_available_kernel() -> Microkernel {
    Microkernel::all()
        .iter()
        .copied()
        .find(|k| k.available())
        .expect("at least the scalar kernel is always available")
}

#[test]
fn profile_roundtrip_preserves_every_field() {
    let profile = HostProfile {
        kernel: Some(an_available_kernel()),
        blocks: Some(BlockSizes {
            mc: 64,
            kc: 128,
            nc: 512,
        }),
        workers: Some(6),
        prefetch_depth: Some(3),
        batch_window: Some(3),
        ranks_per_node: Some(4),
        replication_budget_bytes: Some(12_345_678),
    };
    let path = temp_path("roundtrip");
    profile.save(&path).unwrap();
    let loaded = HostProfile::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, profile, "save -> load must be the identity");
}

#[test]
fn profile_roundtrip_resolves_identical_options() {
    let profile = HostProfile {
        blocks: Some(BlockSizes {
            mc: 32,
            kc: 64,
            nc: 256,
        }),
        prefetch_depth: Some(2),
        batch_window: Some(4),
        ..HostProfile::new()
    };
    let path = temp_path("resolve");
    profile.save(&path).unwrap();
    let from_disk = SrummaOptions::from_profile_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let direct = profile.resolve(SrummaOptions::default());
    assert_eq!(
        from_disk, direct,
        "resolving a reloaded profile must equal resolving the original"
    );
    assert!(from_disk.double_buffer);
    assert_eq!(from_disk.prefetch_depth, 2);
    assert_eq!(from_disk.gemm.unwrap().blocks.unwrap().kc, 64);
}

#[test]
fn profile_depth_zero_disables_double_buffering() {
    let profile = HostProfile {
        prefetch_depth: Some(0),
        ..HostProfile::new()
    };
    let resolved = profile.resolve(SrummaOptions::default());
    assert!(!resolved.double_buffer);
    assert_eq!(resolved.prefetch_depth, 0);
}

#[test]
fn profile_does_not_override_explicit_gemm_config() {
    let profile = HostProfile {
        blocks: Some(BlockSizes {
            mc: 64,
            kc: 128,
            nc: 512,
        }),
        ..HostProfile::new()
    };
    let explicit = srumma_dense::GemmConfig {
        blocks: Some(BlockSizes {
            mc: 16,
            kc: 32,
            nc: 64,
        }),
        ..srumma_dense::GemmConfig::default()
    };
    let base = SrummaOptions::default().with_gemm(explicit);
    let resolved = profile.resolve(base);
    assert_eq!(
        resolved.gemm.unwrap().blocks.unwrap().mc,
        16,
        "an explicit GemmConfig must win over the profile"
    );
}

#[test]
fn merge_folds_probed_fields_without_erasing_others() {
    let mut merged = HostProfile {
        workers: Some(4),
        batch_window: Some(2),
        ..HostProfile::new()
    };
    merged.merge(&HostProfile {
        workers: Some(8),
        prefetch_depth: Some(1),
        ..HostProfile::new()
    });
    assert_eq!(merged.workers, Some(8), "newer probe wins");
    assert_eq!(merged.batch_window, Some(2), "unprobed field survives");
    assert_eq!(merged.prefetch_depth, Some(1), "new field lands");
}

#[test]
fn corrupt_profile_is_a_parse_error() {
    let path = temp_path("corrupt");
    std::fs::write(&path, "{not json at all").unwrap();
    let err = HostProfile::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, ProfileError::Parse(_)),
        "expected Parse, got {err:?}"
    );
}

#[test]
fn stale_version_is_rejected() {
    let path = temp_path("stale");
    std::fs::write(&path, "{\"version\": 999, \"workers\": 4}\n").unwrap();
    let err = HostProfile::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        err,
        ProfileError::Version {
            found: Some(999),
            expected: PROFILE_VERSION
        }
    );
}

#[test]
fn missing_version_is_rejected() {
    let err = HostProfile::from_json("{\"workers\": 4}").unwrap_err();
    assert_eq!(
        err,
        ProfileError::Version {
            found: None,
            expected: PROFILE_VERSION
        }
    );
}

#[test]
fn malformed_fields_are_field_errors() {
    // blocks missing a member
    let text = format!("{{\"version\": {PROFILE_VERSION}, \"blocks\": {{\"mc\": 64}}}}");
    match HostProfile::from_json(&text).unwrap_err() {
        ProfileError::Field { field, .. } => assert_eq!(field, "blocks"),
        other => panic!("expected Field(blocks), got {other:?}"),
    }
    // unknown kernel name (e.g. a profile copied from another build)
    let text = format!("{{\"version\": {PROFILE_VERSION}, \"kernel\": \"no_such_isa\"}}");
    match HostProfile::from_json(&text).unwrap_err() {
        ProfileError::Field { field, .. } => assert_eq!(field, "kernel"),
        other => panic!("expected Field(kernel), got {other:?}"),
    }
    // non-integer worker count
    let text = format!("{{\"version\": {PROFILE_VERSION}, \"workers\": 2.5}}");
    match HostProfile::from_json(&text).unwrap_err() {
        ProfileError::Field { field, .. } => assert_eq!(field, "workers"),
        other => panic!("expected Field(workers), got {other:?}"),
    }
}

/// A profile written before the Z-order layout and the Strassen cutoff
/// were retired still carries their keys. `PROFILE_VERSION` did not
/// move, so such a file must load, and resolve to exactly the options
/// of the same profile without them.
#[test]
fn retired_profile_keys_are_ignored() {
    let profile = HostProfile {
        kernel: Some(an_available_kernel()),
        blocks: Some(BlockSizes {
            mc: 64,
            kc: 128,
            nc: 512,
        }),
        workers: Some(2),
        prefetch_depth: Some(3),
        batch_window: Some(3),
        ranks_per_node: Some(4),
        replication_budget_bytes: Some(12_345_678),
    };
    let current = profile.to_json();
    let old = current.replacen(
        '{',
        "{\"layout\": \"zorder\", \"strassen_cutoff\": 256, ",
        1,
    );
    assert_ne!(old, current);
    let loaded = HostProfile::from_json(&old).expect("retired keys must not fail the load");
    assert_eq!(loaded, profile);
    assert_eq!(
        loaded.resolve(SrummaOptions::default()),
        profile.resolve(SrummaOptions::default())
    );
}

#[test]
fn missing_profile_file_is_an_io_error() {
    let path = temp_path("definitely_absent");
    std::fs::remove_file(&path).ok();
    let err = SrummaOptions::from_profile_path(&path).unwrap_err();
    assert!(
        matches!(err, ProfileError::Io(_)),
        "expected Io, got {err:?}"
    );
}

#[test]
fn from_profile_never_panics_and_defaults_sanely() {
    // Whatever the ambient results/ dir holds (absent, valid, or
    // corrupt), the forgiving path must return usable options.
    let opts = SrummaOptions::from_profile();
    assert!(opts.prefetch_depth >= 1 || !opts.double_buffer);
}

// ---------------------------------------------------------------------
// Tuner neutrality: bitwise-identical outputs, tuner on vs off
// ---------------------------------------------------------------------

/// A mixed-shape stream long enough for the tuner to complete several
/// baseline/trial cycles.
fn tuned_test_batch(entries: usize, n: usize, tuner: Option<TunerConfig>) -> BatchSpec {
    let mut batch = BatchSpec::new();
    for e in 0..entries {
        let ta = if e % 2 == 0 { Op::N } else { Op::T };
        let tb = if e % 3 == 0 { Op::T } else { Op::N };
        let spec = GemmSpec::new(ta, tb, n, n, n);
        let a = Matrix::random(n, n, 9000 + 2 * e as u64);
        let b = Matrix::random(n, n, 9001 + 2 * e as u64);
        batch.push(BatchEntry::new(spec, a, b));
    }
    let mut opts = SrummaOptions::default();
    if let Some(cfg) = tuner {
        opts = opts.with_tuner(cfg);
    }
    batch.with_opts(opts).with_window(3)
}

#[test]
fn tuner_is_bitwise_neutral_on_exec_backend() {
    let (entries, n, nranks, workers) = (16, 32, 4, 2);
    let plain = tuned_test_batch(entries, n, None);
    let tuned = tuned_test_batch(entries, n, Some(TunerConfig::default()));

    let base = multiply_batch_exec(&plain, nranks, workers);
    let (tuned_res, steps) = multiply_batch_exec_tuned(&tuned, nranks, workers);

    let expect = batch_serial_reference(&plain);
    for (e, (got, want)) in tuned_res.outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff < 1e-10, "entry {e}: |diff|={diff:e}");
    }
    for (e, (got, want)) in tuned_res.outputs.iter().zip(&base.outputs).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(
            diff == 0.0,
            "entry {e}: tuned differs from untuned by {diff:e} — \
             the tuner must be bitwise-neutral"
        );
    }
    // The trajectory covers the stream and stays inside the config's
    // bounds (clamped additionally by the physical window).
    let cfg = TunerConfig::default();
    assert_eq!(steps.len(), entries);
    for s in &steps {
        assert!(s.depth >= cfg.min_depth && s.depth <= cfg.max_depth);
        assert!(s.window >= cfg.min_window && s.window <= cfg.max_window);
    }
}

#[test]
fn tuner_is_bitwise_neutral_on_thread_backend() {
    let (entries, n, nranks) = (12, 24, 4);
    let plain = tuned_test_batch(entries, n, None);
    let tuned = tuned_test_batch(entries, n, Some(TunerConfig::default()));

    let base = multiply_batch(&plain, nranks);
    let tuned_res = multiply_batch(&tuned, nranks);
    for (e, (got, want)) in tuned_res.outputs.iter().zip(&base.outputs).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff == 0.0, "entry {e}: tuned differs by {diff:e}");
    }
}

// ---------------------------------------------------------------------
// Cache-block clamping (profile blocks vs small problems)
// ---------------------------------------------------------------------

/// A profile calibrated at paper scale pins cache blocks far larger
/// than a small stream can use. The drivers clamp explicit blocks to
/// the stream's high-water shape — a pure allocation optimization that
/// must be bitwise-invisible: `min(block, dim)` never changes how a
/// call whose dims fit the clamp is tiled. Run the same stream with
/// paper-scale blocks and with the hand-clamped equivalent and demand
/// identical bits plus grow-at-most-once on every rank.
#[test]
fn big_block_profile_is_clamped_bitwise_neutrally() {
    let n = 48;
    let mut entries = Vec::new();
    for e in 0..8usize {
        let ta = if e % 2 == 0 { Op::N } else { Op::T };
        let spec = GemmSpec::new(ta, Op::N, n, n, n);
        let a = Matrix::random(n, n, 900 + 2 * e as u64);
        let b = Matrix::random(n, n, 901 + 2 * e as u64);
        entries.push(BatchEntry::new(spec, a, b));
    }
    let make = |blocks: BlockSizes| {
        let mut batch = BatchSpec::new();
        for e in &entries {
            batch.push(e.clone());
        }
        let cfg = GemmConfig {
            blocks: Some(blocks),
            ..GemmConfig::default()
        };
        batch.with_opts(SrummaOptions::default().with_gemm(cfg))
    };

    let huge = make(BlockSizes {
        mc: 128,
        kc: 512,
        nc: 512,
    });
    // What `clamped_to` produces for a stream whose high-water shape
    // is n×n×n.
    let clamped = make(BlockSizes {
        mc: n,
        kc: n,
        nc: n,
    });

    let res_huge = multiply_batch_exec(&huge, 9, 2);
    let res_clamped = multiply_batch_exec(&clamped, 9, 2);
    for (e, (got, want)) in res_huge
        .outputs
        .iter()
        .zip(&res_clamped.outputs)
        .enumerate()
    {
        let diff = max_abs_diff(got, want);
        assert!(
            diff == 0.0,
            "entry {e}: paper-scale blocks vs hand-clamped blocks differ (|diff|={diff:e})"
        );
    }
    for (rank, &g) in res_huge.ws_grow_counts.iter().enumerate() {
        assert!(g <= 1, "rank {rank}: workspace grew {g} times");
    }
    // And the stream is still *correct*, not just self-consistent.
    let expect = batch_serial_reference(&huge);
    for (e, (got, want)) in res_huge.outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff < 1e-9, "entry {e}: |diff|={diff:e}");
    }
}

/// The clamp itself: explicit blocks shrink to the shape (floored at
/// 1), already-small blocks and Auto (`None`) blocks are untouched.
#[test]
fn clamped_to_math() {
    let cfg = GemmConfig {
        blocks: Some(BlockSizes {
            mc: 128,
            kc: 512,
            nc: 512,
        }),
        ..GemmConfig::default()
    };
    let c = cfg.clamped_to(48, 64, 600);
    assert_eq!(
        c.blocks,
        Some(BlockSizes {
            mc: 48,
            kc: 64,
            nc: 512
        })
    );
    // Degenerate dims clamp to 1, never 0.
    let c = cfg.clamped_to(0, 0, 0);
    assert_eq!(
        c.blocks,
        Some(BlockSizes {
            mc: 1,
            kc: 1,
            nc: 1
        })
    );
    // Auto blocks stay Auto — the resolver owns them.
    let auto = GemmConfig::default().clamped_to(4, 4, 4);
    assert_eq!(auto.blocks, None);
}
