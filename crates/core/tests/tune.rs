//! Integration tests for host profiles (`srumma_core::tune`):
//! round-trips, rejection paths, keys retired from the schema, and the
//! profile path end to end.
//!
//! Profile tests use explicit temp-file paths (`HostProfile::save` /
//! `SrummaOptions::from_profile_path`) rather than the process-global
//! cached default so they stay independent of each other and of the
//! test runner's parallelism.

use srumma_core::batch::{batch_serial_reference, multiply_batch_exec, BatchEntry, BatchSpec};
use srumma_core::driver::serial_reference;
use srumma_core::{
    Algorithm, Backend, GemmSpec, HostProfile, ProfileError, Run, SrummaOptions, PROFILE_VERSION,
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
        prefetch_depth: Some(3),
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
        kernel: Some(an_available_kernel()),
        blocks: Some(BlockSizes {
            mc: 32,
            kc: 64,
            nc: 256,
        }),
        prefetch_depth: Some(2),
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

    // The profile path end to end: a run under the options a kernel +
    // blocks + depth profile resolves to equals the serial reference.
    let (nranks, n) = (8, 64);
    let spec = GemmSpec::square(n);
    let (a, b) = (Matrix::random(n, n, 11), Matrix::random(n, n, 12));
    let run = Run {
        operands: Some((&a, &b)),
        ..Run::new(
            spec,
            nranks,
            Algorithm::Srumma(from_disk),
            Backend::Exec { workers: 0 },
        )
    };
    let c = run.execute().expect("a plain run is valid").c.unwrap();
    let diff = max_abs_diff(&c, &serial_reference(&spec, &a, &b));
    assert!(diff < 1e-9, "profile-resolved multiply |diff|={diff:e}");
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
    let blocks = |mc| {
        Some(BlockSizes {
            mc,
            kc: 256,
            nc: 512,
        })
    };
    let mut merged = HostProfile {
        kernel: Some(an_available_kernel()),
        blocks: blocks(32),
        ..HostProfile::new()
    };
    merged.merge(&HostProfile {
        blocks: blocks(64),
        prefetch_depth: Some(1),
        ..HostProfile::new()
    });
    assert_eq!(merged.blocks, blocks(64), "newer probe wins");
    assert_eq!(
        merged.kernel,
        Some(an_available_kernel()),
        "unprobed field survives"
    );
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
    std::fs::write(&path, "{\"version\": 999, \"prefetch_depth\": 4}\n").unwrap();
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
    let err = HostProfile::from_json("{\"prefetch_depth\": 4}").unwrap_err();
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
    // non-integer, negative and non-numeric prefetch depths
    for bad in ["2.5", "-1", "\"deep\""] {
        let text = format!("{{\"version\": {PROFILE_VERSION}, \"prefetch_depth\": {bad}}}");
        match HostProfile::from_json(&text).unwrap_err() {
            ProfileError::Field { field, .. } => assert_eq!(field, "prefetch_depth"),
            other => panic!("expected Field(prefetch_depth) for {bad}, got {other:?}"),
        }
    }
}

/// A profile written before a key was retired still carries it: the
/// Z-order layout and the Strassen cutoff (PR 16), and the four keys no
/// run ever read — `workers`, `batch_window`, `ranks_per_node`,
/// `replication_budget_bytes` — as the parent's `calibrate -- --all`
/// wrote them. `PROFILE_VERSION` did not move, so such a file must
/// load, whatever those keys hold, and resolve to exactly the options
/// of the same file without them.
#[test]
fn retired_profile_keys_are_ignored() {
    let profile = HostProfile {
        kernel: Some(an_available_kernel()),
        blocks: Some(BlockSizes {
            mc: 64,
            kc: 128,
            nc: 512,
        }),
        prefetch_depth: Some(3),
    };
    let current = profile.to_json();
    let valid = "\"workers\": 2, \"batch_window\": 6, \"ranks_per_node\": 16, \
                 \"replication_budget_bytes\": 917504";
    let malformed = "\"workers\": 2.5, \"batch_window\": 0, \"ranks_per_node\": \"four\", \
                     \"replication_budget_bytes\": -1";
    for retired in [valid, malformed] {
        let old = current.replacen(
            '{',
            &format!("{{\"layout\": \"zorder\", \"strassen_cutoff\": 256, {retired}, "),
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
