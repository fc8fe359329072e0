//! Workload inputs, generated from the run's seed alone.
//!
//! The same `(workload, seed, scale)` always yields the same bytes; the
//! [`digest`] of those bytes goes into every result so two runs over
//! different data are never compared as a regression.

use ipr_workloads::chain::{ChainPattern, VersionChain};
use ipr_workloads::content::{generate, ContentKind};
use ipr_workloads::mutate::{mutate, MutationProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many small source/binary pairs (the paper's setting).
    Corpus,
    /// A few large low-entropy text pairs, far larger than the L2 cache.
    LargeText,
    /// Firmware images through chains of patch releases, with a store.
    ReleaseChain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Corpus,
        Workload::LargeText,
        Workload::ReleaseChain,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::LargeText => "large_text",
            Workload::ReleaseChain => "release_chain",
        }
    }

    /// Seconds one untraced pass over the full-scale inputs takes on one
    /// CPU of the 2-core Xeon (2 MiB L2) the benchmark was written on,
    /// between its quiet and its loaded hours; turns `--seconds` into a
    /// pass count.
    #[must_use]
    pub fn pass_s(self) -> f64 {
        match self {
            Workload::Corpus => 5.5,
            Workload::LargeText => 6.0,
            Workload::ReleaseChain => 9.0,
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the same shapes at test-suite sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Pairs in the corpus.
    pub corpus_pairs: usize,
    /// Smallest corpus reference.
    pub corpus_min: usize,
    /// Largest corpus reference.
    pub corpus_max: usize,
    /// Pairs in `large_text`.
    pub text_pairs: usize,
    /// Reference length in `large_text`.
    pub text_len: usize,
    /// Chains in `release_chain`; pass `n` runs chain `n % chains`.
    pub chains: usize,
    /// Releases per `release_chain` chain, after the initial image.
    pub chain_releases: usize,
    /// Initial image length in `release_chain`.
    pub chain_len: usize,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            corpus_pairs: 200,
            corpus_min: 4 << 10,
            corpus_max: 512 << 10,
            text_pairs: 3,
            text_len: 8 << 20,
            chains: 5,
            chain_releases: 24,
            chain_len: 1 << 20,
        }
    }

    /// Test-suite sizes: every code path, a fraction of a second.
    #[must_use]
    pub fn tiny() -> Scale {
        Scale {
            corpus_pairs: 12,
            corpus_min: 1 << 10,
            corpus_max: 16 << 10,
            text_pairs: 2,
            text_len: 64 << 10,
            chains: 2,
            chain_releases: 20,
            chain_len: 16 << 10,
        }
    }
}

/// One reference/version pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pair {
    /// The image the device holds.
    pub reference: Vec<u8>,
    /// The image the device must end up with.
    pub version: Vec<u8>,
}

/// A workload's generated inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// Independent pairs (`corpus`, `large_text`).
    Pairs(Vec<Pair>),
    /// Chains of consecutive releases of one image each, oldest release
    /// first (`release_chain`).
    Chains(Vec<Vec<Vec<u8>>>),
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
        match workload {
            Workload::Corpus => Inputs::Pairs(corpus(seed, scale)),
            Workload::LargeText => Inputs::Pairs(large_text(seed, scale)),
            Workload::ReleaseChain => Inputs::Chains(chains(seed, scale)),
        }
    }

    /// Distinct input sets the passes cycle through: one chain per pass
    /// for `release_chain`, all pairs in every pass otherwise.
    #[must_use]
    pub fn cycle(&self) -> usize {
        match self {
            Inputs::Pairs(_) => 1,
            Inputs::Chains(chains) => chains.len(),
        }
    }

    /// Every byte string of the inputs, in a fixed order.
    fn blobs(&self) -> Vec<&[u8]> {
        match self {
            Inputs::Pairs(pairs) => pairs
                .iter()
                .flat_map(|p| [p.reference.as_slice(), p.version.as_slice()])
                .collect(),
            Inputs::Chains(chains) => chains.iter().flatten().map(Vec::as_slice).collect(),
        }
    }
}

/// The paper's setting: log-uniform sizes, half source-like and half
/// binary-like, light/default/heavy edits in the ratio 3:2:1.
///
/// The sizes are the log-uniform quantiles rather than draws, dealt out
/// in blocks of six neighbouring sizes, one block per cycle of the edit
/// mix, in a seeded order within the block. The seed changes the bytes
/// and the order, never the size distribution nor which sizes each kind
/// of edit meets, so medians and byte-weighted ratios compare across
/// seeds.
fn corpus(seed: u64, scale: &Scale) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = scale.corpus_pairs;
    let (lo, hi) = (
        (scale.corpus_min as f64).ln(),
        (scale.corpus_max as f64).ln(),
    );
    let mut sizes: Vec<usize> = (0..n)
        .map(|k| (lo + (k as f64 + 0.5) / n as f64 * (hi - lo)).exp() as usize)
        .collect();
    for block in sizes.chunks_mut(6) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.random_range(0..=i));
        }
    }
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, len)| {
            // Alternate kinds, shifted every block so every edit class
            // meets both kinds.
            let kind = if (i + i / 6) % 2 == 0 {
                ContentKind::SourceLike
            } else {
                ContentKind::BinaryLike
            };
            let profile = match i % 6 {
                0..=2 => MutationProfile::light(),
                3 | 4 => MutationProfile::default(),
                _ => MutationProfile::heavy(),
            };
            let reference = generate(&mut rng, kind, len);
            let version = mutate(&mut rng, &reference, &profile);
            Pair { reference, version }
        })
        .collect()
}

/// Binary-like images through `ChainPattern::Patches` releases, one
/// chain per sub-seed of `seed`.
///
/// How costly a chain's deep reads are depends on the sizes of the
/// patches the seed drew; several chains per run average that out, so
/// two seeds measure the program, not their patches.
fn chains(seed: u64, scale: &Scale) -> Vec<Vec<Vec<u8>>> {
    (0..scale.chains as u64)
        .map(|k| {
            VersionChain::generate(
                seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ContentKind::BinaryLike,
                scale.chain_len,
                scale.chain_releases + 1,
                ChainPattern::Patches,
            )
            .releases()
            .to_vec()
        })
        .collect()
}

/// Small-vocabulary text with light, scattered edits.
fn large_text(seed: u64, scale: &Scale) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..scale.text_pairs)
        .map(|_| {
            let reference = generate(&mut rng, ContentKind::SourceLike, scale.text_len);
            let version = mutate(&mut rng, &reference, &MutationProfile::light());
            Pair { reference, version }
        })
        .collect()
}

/// 64-bit FNV-1a over 8-byte words, lengths included. The benchmark's
/// own hash, so a change to the program under test cannot change it.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Digest of a workload's inputs, as 16 hex digits.
#[must_use]
pub fn digest(inputs: &Inputs) -> String {
    let h = inputs.blobs().into_iter().fold(0u64, |acc, blob| {
        fnv64(&[acc.to_le_bytes(), fnv64(blob).to_le_bytes()].concat())
    });
    format!("{h:016x}")
}
