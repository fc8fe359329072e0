//! Reusable differencing scratch: the arena behind zero-allocation
//! steady-state diffing.
//!
//! Every differ needs per-call working storage — footprint tables for the
//! constant-space family, hash-sharded chains for the greedy family, and
//! per-chunk segment buffers for the parallel scan. Allocating those on
//! every `diff` call puts the allocator on the critical path of the
//! pipeline's dominant phase (differencing is ~97% of end-to-end time in
//! `results/BENCH_phase_breakdown.json`). A [`DiffScratch`] owns all of
//! it and is reused across calls: buffers are `clear()`ed, never freed,
//! so a warmed-up arena performs no table or buffer allocations at all.
//!
//! Callers can hold an explicit arena and pass it to
//! [`ParallelDiffer::diff_with`](super::ParallelDiffer::diff_with); the
//! plain [`Differ::diff`](super::Differ) entry points of every engine
//! route through a per-thread arena automatically.

use std::cell::RefCell;

/// Sentinel for an empty footprint-table slot or chain end.
pub(crate) const EMPTY: u32 = u32::MAX;

/// One entry of a greedy hash chain: a reference offset plus the index of
/// the previous node with the same seed hash (newest first).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChainNode {
    pub(crate) offset: u32,
    pub(crate) prev: u32,
}

/// One slot of the flat greedy head table: the full seed hash plus the
/// newest chain-node index for it, side by side so one probe is one
/// 16-byte load (a quarter of a cache line).
#[derive(Clone, Copy, Debug)]
struct FlatSlot {
    hash: u64,
    head: u32,
}

/// Smallest table a non-empty [`FlatHeads`] allocates.
const FLAT_MIN_SLOTS: usize = 64;

/// Occupancy numerator/denominator: grow past 7/8 full.
const FLAT_LOAD_NUM: usize = 7;
const FLAT_LOAD_DEN: usize = 8;

/// Maps a seed hash to its starting probe slot. The Karp-Rabin hashes
/// are polynomial remainders, well mixed low but structured high, and
/// the shard map (`shard_of` in `greedy.rs`) already consumes the high
/// bits of one remix — so the slot index comes from an independent
/// full-avalanche finalizer (splitmix64), keeping slot and shard choice
/// uncorrelated.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    let mut z = hash;
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z as usize) & mask
}

/// Open-addressed hash → chain-head table for the greedy index.
///
/// Replaces the former `FxHashMap<u64, u32>`: the map put a generic
/// hasher invocation plus SwissTable control-byte probing on both hot
/// paths (one insert per reference offset, one lookup per version
/// position). Here a probe is `splitmix64(hash) & mask` into one flat
/// power-of-two slot array with linear probing; the full 64-bit hash is
/// stored in the slot and compared exactly.
///
/// Storing the *full* hash (not a fragment tag) is load-bearing for
/// determinism: the parallel index build shards the hash space, so with
/// different shard counts different hash subsets share one table. A tag
/// table would merge distinct hashes' chains whenever their tags and
/// slots collide — which hashes collide would then depend on the shard
/// count, and the diff output with it. Exact keys keep chains identical
/// to the serial single-map index for any shard count — and for any
/// table size, which is what lets the table be sized per call.
///
/// Vacancy is signalled by `head == EMPTY`, never stored for a live
/// chain (a present key's head always points at a real node). Entries
/// are never deleted.
///
/// **Per-call reset cost is O(this call's input).** The allocation is
/// kept across calls (the arena's zero-allocation steady state), but
/// only its *active* prefix — `slots.len()`, sized by
/// [`FlatHeads::reserve`] from the current reference — is initialised
/// and probed. [`FlatHeads::clear`] truncates to zero slots in O(1), so
/// a 4 KiB diff after a 1 MiB one touches a 4 KiB-sized table, not the
/// high-water one.
#[derive(Debug, Default)]
pub(crate) struct FlatHeads {
    /// The active table; its capacity is the retained allocation.
    slots: Vec<FlatSlot>,
    mask: usize,
    len: usize,
}

/// A vacant slot.
const VACANT: FlatSlot = FlatSlot {
    hash: 0,
    head: EMPTY,
};

impl FlatHeads {
    /// Drops every entry in O(1); the allocation is retained.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.mask = 0;
        self.len = 0;
    }

    /// Sizes the active table so `entries` keys fit without a mid-build
    /// rehash. An empty table is sized to exactly this demand (within
    /// the retained allocation when it is large enough); a non-empty one
    /// only grows.
    pub(crate) fn reserve(&mut self, entries: usize) {
        let needed = (entries * FLAT_LOAD_DEN)
            .div_ceil(FLAT_LOAD_NUM)
            .max(1)
            .next_power_of_two()
            .max(FLAT_MIN_SLOTS);
        if self.len == 0 || needed > self.slots.len() {
            self.rehash(needed);
        }
    }

    /// Number of active slots (the table this call probes).
    pub(crate) fn active_slots(&self) -> usize {
        self.slots.len()
    }

    /// The chain head stored for `hash`, or [`EMPTY`].
    #[inline]
    pub(crate) fn get(&self, hash: u64) -> u32 {
        if self.slots.is_empty() {
            return EMPTY;
        }
        let mut i = slot_of(hash, self.mask);
        loop {
            let slot = self.slots[i];
            if slot.head == EMPTY {
                return EMPTY;
            }
            if slot.hash == hash {
                return slot.head;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Stores `head` as the newest chain head for `hash`, returning the
    /// previous head ([`EMPTY`] if the hash is new).
    #[inline]
    pub(crate) fn upsert(&mut self, hash: u64, head: u32) -> u32 {
        if (self.len + 1) * FLAT_LOAD_DEN > self.slots.len() * FLAT_LOAD_NUM {
            self.rehash((self.slots.len() * 2).max(FLAT_MIN_SLOTS));
        }
        let mut i = slot_of(hash, self.mask);
        loop {
            let slot = &mut self.slots[i];
            if slot.head == EMPTY {
                *slot = FlatSlot { hash, head };
                self.len += 1;
                return EMPTY;
            }
            if slot.hash == hash {
                return std::mem::replace(&mut slot.head, head);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Re-buckets every live entry into a table of `new_len` slots
    /// (a power of two). Keys in the old table are unique, so reinsertion
    /// probes for vacancies only. An empty table is resized in place
    /// instead: only the new active slots are initialised, and nothing
    /// is allocated when the retained capacity suffices.
    fn rehash(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        self.mask = new_len - 1;
        if self.len == 0 {
            self.slots.clear();
            self.slots.resize(new_len, VACANT);
            return;
        }
        debug_assert!(new_len > self.slots.len());
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_len]);
        for slot in old {
            if slot.head == EMPTY {
                continue;
            }
            let mut i = slot_of(slot.hash, self.mask);
            while self.slots[i].head != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// One hash shard of the greedy reference index.
///
/// A shard owns a deterministic subset of the seed-hash space: every
/// reference offset whose seed hash maps to the shard is chained here, in
/// offset order, regardless of how many shards exist. Chains are therefore
/// identical to the serial single-map index restricted to those hashes,
/// which is what makes the parallel build bit-compatible with the serial
/// one.
#[derive(Debug, Default)]
pub struct GreedyShard {
    /// Seed hash → index of the newest [`ChainNode`] for that hash.
    pub(crate) heads: FlatHeads,
    /// Backing storage for the intrusive chains.
    pub(crate) nodes: Vec<ChainNode>,
}

impl GreedyShard {
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.nodes.clear();
    }
}

/// Storage backing the shared reference index (all differ families).
#[derive(Debug, Default)]
pub struct IndexScratch {
    /// Footprint table: first reference offset per slot.
    pub(crate) firsts: Vec<u32>,
    /// Footprint table: most recent reference offset per slot (the
    /// correcting differ's second candidate; left empty otherwise).
    pub(crate) lasts: Vec<u32>,
    /// Hash-sharded greedy chains.
    pub(crate) shards: Vec<GreedyShard>,
}

/// One segment of a chunk scan, relative to a running version offset.
///
/// Chunk scans record *where version bytes come from*, not the bytes
/// themselves; literal payloads are sliced out of the version file only
/// when the stitcher builds the final script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seg {
    /// Copy `len` bytes from reference offset `from`.
    Copy {
        /// Reference offset the bytes come from.
        from: u64,
        /// Number of bytes copied.
        len: u64,
    },
    /// `len` literal bytes taken from the version file at the running
    /// offset.
    Literal {
        /// Number of literal bytes.
        len: u64,
    },
}

/// Appends a literal run, coalescing with a trailing literal segment.
pub(crate) fn push_lit(segs: &mut Vec<Seg>, len: u64) {
    if len == 0 {
        return;
    }
    if let Some(Seg::Literal { len: prev }) = segs.last_mut() {
        *prev += len;
        return;
    }
    segs.push(Seg::Literal { len });
}

/// Appends a copy, coalescing with a trailing contiguous copy segment.
pub(crate) fn push_copy(segs: &mut Vec<Seg>, from: u64, len: u64) {
    if len == 0 {
        return;
    }
    if let Some(Seg::Copy {
        from: prev_from,
        len: prev_len,
    }) = segs.last_mut()
    {
        if *prev_from + *prev_len == from {
            *prev_len += len;
            return;
        }
    }
    segs.push(Seg::Copy { from, len });
}

/// Reusable differencing arena; see the module docs.
///
/// A `DiffScratch` is plain storage — it carries no configuration, so one
/// arena serves any mix of differs and input sizes, growing to the
/// high-water mark and staying there.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// Reference-index storage.
    pub(crate) index: IndexScratch,
    /// Per-chunk segment buffers for the version scan.
    pub(crate) segs: Vec<Vec<Seg>>,
    /// Recycled script storage the produced script is built from.
    pub(crate) pool: crate::ScriptPool,
}

impl DiffScratch {
    /// Creates an empty arena. Storage is grown on first use and reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The script-storage pool scripts produced from this arena draw on.
    ///
    /// [Recycle](crate::ScriptPool::recycle) finished scripts here and
    /// subsequent diffs through this arena build their output out of the
    /// returned storage instead of allocating.
    #[must_use]
    pub fn pool_mut(&mut self) -> &mut crate::ScriptPool {
        &mut self.pool
    }

    /// The script-storage pool, read-only (spare counts and bounds).
    #[must_use]
    pub fn pool(&self) -> &crate::ScriptPool {
        &self.pool
    }
}

thread_local! {
    /// Per-thread arena behind the allocation-free `Differ::diff` entry
    /// points.
    static THREAD_SCRATCH: RefCell<DiffScratch> = RefCell::new(DiffScratch::new());
}

/// Runs `f` with this thread's shared arena (or a fresh one on re-entrant
/// use, which only happens if a differ is invoked from inside another
/// diff on the same thread).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut DiffScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DiffScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_segments_coalesce() {
        let mut segs = Vec::new();
        push_lit(&mut segs, 3);
        push_lit(&mut segs, 0);
        push_lit(&mut segs, 2);
        assert_eq!(segs, vec![Seg::Literal { len: 5 }]);
    }

    #[test]
    fn contiguous_copies_coalesce() {
        let mut segs = Vec::new();
        push_copy(&mut segs, 10, 4);
        push_copy(&mut segs, 14, 2);
        push_copy(&mut segs, 30, 1);
        assert_eq!(
            segs,
            vec![
                Seg::Copy { from: 10, len: 6 },
                Seg::Copy { from: 30, len: 1 }
            ]
        );
    }

    #[test]
    fn literal_breaks_copy_coalescing() {
        let mut segs = Vec::new();
        push_copy(&mut segs, 0, 4);
        push_lit(&mut segs, 1);
        push_copy(&mut segs, 4, 4);
        assert_eq!(segs.len(), 3);
    }

    #[test]
    fn flat_heads_upsert_chains_like_a_map() {
        let mut heads = FlatHeads::default();
        assert_eq!(heads.get(42), EMPTY);
        assert_eq!(heads.upsert(42, 0), EMPTY);
        assert_eq!(heads.upsert(42, 1), 0);
        assert_eq!(heads.upsert(42, 2), 1);
        assert_eq!(heads.get(42), 2);
        assert_eq!(heads.get(43), EMPTY);
        heads.clear();
        assert_eq!(heads.get(42), EMPTY);
    }

    #[test]
    fn flat_heads_survive_growth() {
        // Enough distinct keys to force several rehashes; check against a
        // reference map afterwards.
        let mut heads = FlatHeads::default();
        let mut model = std::collections::HashMap::new();
        let mut key = 0x9e37_79b9u64;
        for i in 0..10_000u32 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
            let hash = key >> 16 << 3; // clustered keys stress probing
            let prev = heads.upsert(hash, i);
            let model_prev = model.insert(hash, i).unwrap_or(EMPTY);
            assert_eq!(prev, model_prev, "key {hash:#x}");
        }
        for (&hash, &head) in &model {
            assert_eq!(heads.get(hash), head);
        }
    }

    #[test]
    fn flat_heads_reserve_prevents_rehash() {
        let mut heads = FlatHeads::default();
        heads.reserve(1000);
        let cap = heads.slots.len();
        for i in 0..1000u32 {
            heads.upsert(u64::from(i) * 0x1234_5677, i);
        }
        assert_eq!(heads.slots.len(), cap, "reserve must pre-size the table");
    }

    #[test]
    fn small_build_after_large_uses_a_small_table() {
        let keys = |n: u32, salt: u64| {
            (0..n).map(move |i| (u64::from(i) ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
        };
        let mut heads = FlatHeads::default();
        heads.reserve(1 << 20);
        for (i, hash) in keys(1 << 20, 0).enumerate() {
            heads.upsert(hash, i as u32);
        }
        let high_water = heads.slots.capacity();

        heads.clear();
        assert_eq!(heads.active_slots(), 0, "clear is a truncation");
        heads.reserve(4096);
        let mut fresh = FlatHeads::default();
        fresh.reserve(4096);
        assert_eq!(heads.active_slots(), fresh.active_slots());
        assert!(heads.active_slots() < 4 * 4096, "sized for 4 KiB");
        assert_eq!(heads.slots.capacity(), high_water, "allocation kept");

        // Repeated keys (every third one) exercise chain-head updates.
        let mut model = std::collections::HashMap::new();
        for (i, hash) in keys(4096, 0x5a5a).enumerate() {
            let hash = if i % 3 == 2 { hash ^ 1 } else { hash };
            let prev = heads.upsert(hash, i as u32);
            assert_eq!(prev, model.insert(hash, i as u32).unwrap_or(EMPTY));
        }
        assert_eq!(heads.active_slots(), fresh.active_slots(), "no rehash");
        for (&hash, &head) in &model {
            assert_eq!(heads.get(hash), head);
        }
        for hash in keys(1 << 20, 0).step_by(997) {
            assert_eq!(heads.get(hash), *model.get(&hash).unwrap_or(&EMPTY));
        }
    }

    #[test]
    fn thread_scratch_reuses_capacity() {
        with_thread_scratch(|s| {
            s.index.firsts.resize(1024, EMPTY);
            s.segs.push(Vec::with_capacity(64));
        });
        with_thread_scratch(|s| {
            assert!(s.index.firsts.capacity() >= 1024);
            assert!(!s.segs.is_empty());
        });
    }
}
