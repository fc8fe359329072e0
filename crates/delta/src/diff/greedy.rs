//! Greedy differencing: index every reference offset, take the longest
//! match at each version position.

use super::kernel;
use super::parallel::IndexedDiffer;
use super::rolling::RollingHash;
use super::scratch::{self, ChainNode, GreedyShard, IndexScratch, Seg, EMPTY};
use super::Differ;
use crate::script::DeltaScript;
use std::ops::Range;

/// Greedy byte-granularity differencing (after Reichenberger '91).
///
/// Builds a hash index of the `seed_len`-byte window at *every* reference
/// offset, then scans the version file byte by byte, extending the longest
/// verified match at each position. Compression is strong; time and memory
/// are proportional to the reference size with worst cases quadratic in
/// pathological self-similar inputs (bounded by `max_probes`).
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{Differ, GreedyDiffer};
/// use ipr_delta::apply;
///
/// let r = b"the quick brown fox jumps over the lazy dog".to_vec();
/// let v = b"the quick red fox jumps over the lazy dog".to_vec();
/// let script = GreedyDiffer::default().diff(&r, &v);
/// assert_eq!(apply(&script, &r).unwrap(), v);
/// ```
#[derive(Clone, Debug)]
pub struct GreedyDiffer {
    seed_len: usize,
    max_probes: usize,
}

impl Default for GreedyDiffer {
    /// 16-byte seeds, at most 64 probed candidates per position.
    fn default() -> Self {
        Self {
            seed_len: 16,
            max_probes: 64,
        }
    }
}

impl GreedyDiffer {
    /// Creates a differ with a custom seed (minimum match) length.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len == 0`.
    #[must_use]
    pub fn new(seed_len: usize) -> Self {
        assert!(seed_len > 0, "seed length must be positive");
        Self {
            seed_len,
            ..Self::default()
        }
    }

    /// Limits how many candidate offsets are verified per position.
    #[must_use]
    pub fn with_max_probes(mut self, max_probes: usize) -> Self {
        self.max_probes = max_probes.max(1);
        self
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }
}

/// Deterministic hash → shard assignment. Independent of how many offsets
/// exist, so a hash's complete chain always lives in exactly one shard —
/// the property that makes candidate order shard-count-invariant.
#[inline]
fn shard_of(hash: u64, shards: usize) -> usize {
    // Karp-Rabin hashes are well mixed in the low bits but not uniformly
    // across the word; fold and remix before the multiply-shift range map.
    let mixed = (hash ^ (hash >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    ((u128::from(mixed) * shards as u128) >> 64) as usize
}

/// Shared greedy reference index: every reference offset, chained per
/// seed hash across hash shards (see [`GreedyShard`]).
///
/// Chains are intrusive in one flat node array per shard — per-bucket
/// `Vec`s would mean one heap allocation per reference offset. Heads
/// live in a flat open-addressed table (`FlatHeads`): the former
/// `FxHashMap` re-hashed the already-mixed Karp-Rabin key and probed
/// SwissTable control bytes on every version position, two dependent
/// cache misses on the scan critical path; the flat table resolves one
/// probe to a single 16-byte slot load.
pub struct GreedyIndex<'s> {
    shards: &'s [GreedyShard],
}

impl GreedyIndex<'_> {
    /// Iterates candidate offsets for `hash`, most recent first.
    ///
    /// The shard pick and head-table probe happen once, up front — the
    /// returned iterator only walks the intrusive node chain.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let shard = &self.shards[shard_of(hash, self.shards.len())];
        let mut cursor = shard.heads.get(hash);
        std::iter::from_fn(move || {
            if cursor == EMPTY {
                return None;
            }
            let node = shard.nodes[cursor as usize];
            cursor = node.prev;
            Some(node.offset as usize)
        })
    }
}

impl IndexedDiffer for GreedyDiffer {
    type Index<'s> = GreedyIndex<'s>;

    fn seed_len(&self) -> usize {
        self.seed_len
    }

    fn build_index<'s>(
        &self,
        reference: &[u8],
        shards: usize,
        scratch: &'s mut IndexScratch,
    ) -> GreedyIndex<'s> {
        let shards = shards.max(1);
        if scratch.shards.len() < shards {
            scratch.shards.resize_with(shards, GreedyShard::default);
        }
        let active = &mut scratch.shards[..shards];
        for shard in active.iter_mut() {
            shard.clear();
        }
        if reference.len() >= self.seed_len {
            let last = reference.len() - self.seed_len;
            let seed_len = self.seed_len;
            // Pre-size each shard's head table for its expected share of
            // the offsets so the build never rehashes mid-scan.
            let expected = (last + 1).div_ceil(shards);
            // Each worker owns one hash shard and scans the whole
            // reference: re-rolling the hash is a few arithmetic ops per
            // byte, while the head-table inserts — the expensive part —
            // split cleanly across workers.
            let build_one = |owner: usize, shard: &mut GreedyShard| {
                shard.heads.reserve(expected);
                shard.nodes.reserve(expected);
                let mut h = RollingHash::new(&reference[..seed_len]);
                for i in 0..=last {
                    if i > 0 {
                        h.roll(reference[i - 1], reference[i + seed_len - 1]);
                    }
                    let hash = h.hash();
                    if shard_of(hash, shards) != owner {
                        continue;
                    }
                    let node = shard.nodes.len() as u32;
                    let prev = shard.heads.upsert(hash, node);
                    shard.nodes.push(ChainNode {
                        offset: i as u32,
                        prev,
                    });
                }
            };
            if shards == 1 {
                build_one(0, &mut active[0]);
            } else {
                let build_one = &build_one;
                std::thread::scope(|s| {
                    for (owner, shard) in active.iter_mut().enumerate() {
                        s.spawn(move || build_one(owner, shard));
                    }
                });
            }
        }
        ipr_trace::with(|r| {
            let slots = active.iter().map(|s| s.heads.active_slots() as u64).sum();
            r.gauge("diff.index_slots", slots);
        });
        GreedyIndex {
            shards: &scratch.shards[..shards],
        }
    }

    fn scan_chunk(
        &self,
        index: &GreedyIndex<'_>,
        reference: &[u8],
        version: &[u8],
        range: Range<usize>,
        segs: &mut Vec<Seg>,
    ) {
        let seed_len = self.seed_len;
        let last_window = version.len() - seed_len;
        let (mut v, end) = (range.start, range.end);
        if v >= end {
            return;
        }
        if v > last_window {
            scratch::push_lit(segs, (end - v) as u64);
            return;
        }
        let mut probes = 0u64;
        let mut extend_bytes = 0u64;
        let mut h = RollingHash::new(&version[v..v + seed_len]);
        let mut hash_pos = v; // position the rolling hash currently covers
        while v < end && v <= last_window {
            // Advance the rolling hash to position v: roll byte by byte
            // for short hops, re-seed in O(seed_len) after a long copy
            // (the catch-up would otherwise cost O(copy_len)).
            if hash_pos < v {
                if v - hash_pos >= seed_len {
                    h.reseed(&version[v..v + seed_len]);
                    hash_pos = v;
                } else {
                    while hash_pos < v {
                        h.roll(version[hash_pos], version[hash_pos + seed_len]);
                        hash_pos += 1;
                    }
                }
            }
            let mut best_from = 0usize;
            let mut best_len = 0usize;
            let v_room = version.len() - v;
            for c in index.candidates(h.hash()).take(self.max_probes) {
                probes += 1;
                if best_len > 0 {
                    // One-load prune: a candidate can only beat `best_len`
                    // if its match covers index `best_len` too, so bytes
                    // there must be equal. Rejects dominated candidates
                    // without touching their seed windows. (`v + best_len`
                    // is in bounds: probing stops once a match reaches the
                    // end of the version.)
                    if reference.len() - c <= best_len
                        || reference[c + best_len] != version[v + best_len]
                    {
                        continue;
                    }
                }
                if !kernel::windows_eq(&reference[c..c + seed_len], &version[v..v + seed_len]) {
                    continue; // hash collision
                }
                let len = seed_len
                    + kernel::common_prefix(&reference[c + seed_len..], &version[v + seed_len..]);
                extend_bytes += (len - seed_len) as u64;
                if len > best_len {
                    best_len = len;
                    best_from = c;
                    if best_len == v_room {
                        break; // nothing can beat a match to the end
                    }
                }
            }
            if best_len >= seed_len {
                // Truncate at the chunk boundary; stitching re-extends.
                let emit = best_len.min(end - v);
                scratch::push_copy(segs, best_from as u64, emit as u64);
                v += emit;
            } else {
                scratch::push_lit(segs, 1);
                v += 1;
            }
        }
        // Tail shorter than a seed: emit literally.
        if v < end {
            scratch::push_lit(segs, (end - v) as u64);
        }
        if probes > 0 {
            ipr_trace::with(|r| {
                r.add("diff.probes", probes);
                r.add("diff.extend_bytes", extend_bytes);
            });
        }
    }
}

impl Differ for GreedyDiffer {
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript {
        let _span = ipr_trace::span("diff");
        ipr_trace::with(|r| {
            r.add("diff.reference_bytes", reference.len() as u64);
            r.add("diff.version_bytes", version.len() as u64);
        });
        scratch::with_thread_scratch(|s| super::parallel::diff_serial(self, s, reference, version))
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;

    fn check(reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = GreedyDiffer::default().diff(reference, version);
        assert_eq!(apply(&script, reference).unwrap(), version);
        script
    }

    #[test]
    fn identical_files_one_copy() {
        let data = b"0123456789abcdef0123456789abcdef".repeat(8);
        let script = check(&data, &data);
        assert_eq!(script.copy_count(), 1);
        assert_eq!(script.add_count(), 0);
        assert_eq!(script.copied_bytes(), data.len() as u64);
    }

    #[test]
    fn point_edit_three_commands() {
        let reference: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let mut version = reference.clone();
        version[100] ^= 0xff;
        let script = check(&reference, &version);
        // copy, small add (1 byte), copy
        assert!(script.copy_count() >= 2, "{script:?}");
        assert!(script.added_bytes() <= 2);
    }

    #[test]
    fn insertion_detected() {
        let reference = b"A common prefix string here. And a common suffix string too!".to_vec();
        let mut version = reference.clone();
        version.splice(29..29, b"<<<INSERTED MATERIAL>>>".iter().copied());
        let script = check(&reference, &version);
        assert!(script.copied_bytes() > 40);
    }

    #[test]
    fn block_move_found() {
        let a: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..100u32).map(|i| ((i * 7 + 3) % 251) as u8).collect();
        let reference = [a.clone(), b.clone()].concat();
        let version = [b, a].concat();
        let script = check(&reference, &version);
        // Both halves should be found as copies, nearly nothing literal.
        assert!(script.added_bytes() < 20, "{}", script.added_bytes());
    }

    #[test]
    fn unrelated_files_mostly_adds() {
        let reference = vec![0u8; 500];
        let version: Vec<u8> = (0..500u32).map(|i| (i * 37 % 251) as u8).collect();
        let script = check(&reference, &version);
        assert!(script.added_bytes() > 400);
    }

    #[test]
    fn custom_seed_len() {
        let d = GreedyDiffer::new(4);
        assert_eq!(d.seed_len(), 4);
        let reference = b"abcdefgh".to_vec();
        let version = b"xxabcdefghxx".to_vec();
        let script = d.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
        assert!(script.copied_bytes() >= 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seed_rejected() {
        let _ = GreedyDiffer::new(0);
    }
}
