//! Property tests for the [`ipr::Engine`] session layer: a reused
//! engine — arenas warm, pools full of recycled storage — must behave
//! exactly like a fresh engine built per call, across heterogeneous
//! input sequences, for every cycle policy and thread count.

use ipr::core::{required_capacity, CyclePolicy};
use ipr::pipeline::{Engine, EngineConfig, EngineError};
use proptest::prelude::*;

/// Cycle policies the reuse property is checked under.
const POLICIES: [CyclePolicy; 3] = [
    CyclePolicy::ConstantTime,
    CyclePolicy::LocallyMinimum,
    CyclePolicy::Exhaustive { limit: 10 },
];

/// Worker counts the reuse property is checked under (0 = all cores).
const THREADS: [usize; 3] = [1, 2, 0];

/// A version derived from a reference by random edit operations, so the
/// pair is realistically delta-compressible.
fn edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let reference = proptest::collection::vec(any::<u8>(), 0..1024);
    let edits = proptest::collection::vec(
        (
            0u8..4,                       // op
            any::<prop::sample::Index>(), // position
            1usize..128,                  // length
            any::<u8>(),                  // value seed
        ),
        0..6,
    );
    (reference, edits).prop_map(|(reference, edits)| {
        let mut version = reference.clone();
        for (op, pos, len, val) in edits {
            if version.is_empty() {
                version.extend(std::iter::repeat_n(val, len));
                continue;
            }
            let at = pos.index(version.len());
            match op {
                0 => version[at] = val,
                1 => {
                    let block: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    version.splice(at..at, block);
                }
                2 => {
                    let end = (at + len).min(version.len());
                    version.drain(at..end);
                }
                _ => {
                    let end = (at + len).min(version.len());
                    let block: Vec<u8> = version[at..end].to_vec();
                    version.extend(block);
                }
            }
        }
        (reference, version)
    })
}

/// An engine config for one (policy, threads) combination.
fn config_for(policy: CyclePolicy, threads: usize) -> EngineConfig {
    let mut config = EngineConfig::with_threads(threads);
    config.conversion.policy = policy;
    config
}

/// One update on `engine`, compared against a fresh engine with the same
/// configuration; returns whether the update succeeded.
fn step_matches_fresh(
    engine: &mut Engine,
    config: EngineConfig,
    reference: &[u8],
    version: &[u8],
) -> Result<bool, TestCaseError> {
    let warm = engine.update(reference, version);
    let cold = Engine::with_config(config).update(reference, version);
    match (warm, cold) {
        (Ok(warm), Ok(cold)) => {
            prop_assert_eq!(
                warm.script.commands(),
                cold.script.commands(),
                "reused engine emitted different commands"
            );
            prop_assert_eq!(
                &warm.payload,
                &cold.payload,
                "reused engine emitted different wire bytes"
            );
            prop_assert_eq!(warm.version_len, cold.version_len);

            // The reused engine's applier must also rebuild the version.
            let mut buf = reference.to_vec();
            buf.resize((required_capacity(&warm.script) as usize).max(buf.len()), 0);
            engine
                .apply_in_place(&warm.script, &mut buf)
                .expect("converted script applies");
            prop_assert_eq!(
                &buf[..version.len()],
                version,
                "reused engine rebuilt a different file"
            );
            engine.recycle(warm);
            Ok(true)
        }
        // The exhaustive policy may refuse oversized components — but it
        // must refuse identically whether the engine is warm or cold.
        (Err(EngineError::Convert(w)), Err(EngineError::Convert(c))) => {
            prop_assert_eq!(w, c, "warm and cold engines failed differently");
            Ok(false)
        }
        (warm, cold) => {
            prop_assert!(
                false,
                "warm and cold engines disagreed: {:?} vs {:?}",
                warm.map(|d| d.payload.len()),
                cold.map(|d| d.payload.len())
            );
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One engine reused across a heterogeneous sequence of inputs is
    /// indistinguishable from a fresh engine per call, for every policy
    /// and thread count.
    #[test]
    fn reused_engine_matches_fresh_per_call(
        pairs in proptest::collection::vec(edited_pair(), 2..5),
    ) {
        for policy in POLICIES {
            for threads in THREADS {
                let config = config_for(policy, threads);
                let mut engine = Engine::with_config(config);
                for (reference, version) in &pairs {
                    step_matches_fresh(&mut engine, config, reference, version)?;
                }
            }
        }
    }

    /// `update_many` over a version chain equals one fresh engine per
    /// hop, and its deltas chain hop by hop.
    #[test]
    fn update_many_matches_fresh_per_hop(
        reference in proptest::collection::vec(any::<u8>(), 0..512),
        versions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..4),
    ) {
        let config = config_for(CyclePolicy::LocallyMinimum, 1);
        let mut engine = Engine::with_config(config);
        let version_refs: Vec<&[u8]> = versions.iter().map(Vec::as_slice).collect();
        let deltas = engine
            .update_many(&reference, version_refs)
            .expect("default policy never refuses");
        prop_assert_eq!(deltas.len(), versions.len());
        let mut prev: &[u8] = &reference;
        for (delta, version) in deltas.iter().zip(&versions) {
            let fresh = Engine::with_config(config)
                .update(prev, version)
                .expect("default policy never refuses");
            prop_assert_eq!(delta.script.commands(), fresh.script.commands());
            prop_assert_eq!(&delta.payload, &fresh.payload);
            prev = version;
        }
    }

    /// `apply_chain` on a warm engine rebuilds the final version of the
    /// chain its own `diff` stage produced.
    #[test]
    fn apply_chain_rebuilds_final_version(
        reference in proptest::collection::vec(any::<u8>(), 0..512),
        versions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..4),
    ) {
        let config = config_for(CyclePolicy::LocallyMinimum, 1);
        let mut engine = Engine::with_config(config);
        // Warm the engine up first so apply_chain sees reused arenas.
        for version in &versions {
            let delta = engine.update(&reference, version).expect("update succeeds");
            engine.recycle(delta);
        }
        let mut scripts = Vec::new();
        let mut prev: &[u8] = &reference;
        for version in &versions {
            scripts.push(engine.diff(prev, version));
            prev = version;
        }
        let mut buf = reference.clone();
        engine.apply_chain(&scripts, &mut buf).expect("chain applies");
        prop_assert_eq!(&buf, versions.last().unwrap());
    }
}

/// Deterministic pseudo-random bytes (xorshift64*).
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
        })
        .collect()
}

/// A pair whose version rotates the reference and splices in fresh
/// bytes: long copies, a few adds and real CRWI cycles.
fn rotated_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let reference = noise(len, seed);
    let cut = len / 3;
    let mut version = reference[cut..].to_vec();
    version.extend_from_slice(&noise(len / 64 + 5, seed ^ 0xabcd));
    version.extend_from_slice(&reference[..cut]);
    (reference, version)
}

/// An engine whose arenas and pool were sized by a 512 KiB pair emits
/// byte-identical deltas on small pairs to a fresh engine — the per-call
/// index and pool sizing depend on the current input, never on history —
/// including when large and small pairs alternate.
#[test]
fn engine_warmed_on_a_large_pair_matches_fresh_on_small_pairs() {
    let large = rotated_pair(512 * 1024, 7);
    let small: Vec<_> = [0, 40, 1024, 4096, 9000]
        .iter()
        .enumerate()
        .map(|(i, &len)| rotated_pair(len, 100 + i as u64))
        .collect();
    for threads in [1, 2] {
        let config = config_for(CyclePolicy::LocallyMinimum, threads);
        let mut engine = Engine::with_config(config);
        for round in 0..2 {
            let delta = engine.update(&large.0, &large.1).expect("update");
            engine.recycle(delta);
            for (reference, version) in &small {
                let warm = engine.update(reference, version).expect("update");
                let fresh = Engine::with_config(config)
                    .update(reference, version)
                    .expect("update");
                assert_eq!(
                    warm.script.commands(),
                    fresh.script.commands(),
                    "threads {threads}, round {round}, {} bytes",
                    version.len()
                );
                assert_eq!(warm.payload, fresh.payload);
                engine.recycle(warm);
            }
        }
    }
}
