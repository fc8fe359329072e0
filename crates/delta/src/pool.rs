//! Recyclable script storage: the allocator bypass behind warm-engine
//! zero-allocation diffing and conversion.
//!
//! A [`DeltaScript`] owns two kinds of heap storage: the command vector and
//! one byte vector per add command. In a steady-state update pipeline those
//! allocations dominate what [`super::diff::DiffScratch`] alone cannot
//! eliminate — every produced script used to allocate its storage fresh and
//! free it on drop. A [`ScriptPool`] closes the loop: finished scripts are
//! [recycled](ScriptPool::recycle) back into the pool, and the next script
//! is built out of the returned (cleared, capacity-preserving) vectors.
//!
//! The pool is plain storage with no configuration; one pool serves any mix
//! of script shapes. **A session retains at most one call's spares:** a
//! *call* is everything drawn from the pool between two
//! [`recycle`](ScriptPool::recycle)s, and the pool keeps at most as many
//! spare vectors of each kind as the largest call has drawn, dropping the
//! smallest surplus. Vectors recycled from outside the pool (decoded or
//! composed scripts) therefore cannot accumulate; handouts are pops from
//! a capacity-ordered stash, and a recycle re-sorts at most one call's
//! spares plus what it returns — so per-call pool cost no longer grows
//! with the session's history.

use crate::command::Command;
use crate::script::DeltaScript;

/// A pool of recycled script storage; see the module docs.
#[derive(Debug, Default)]
pub struct ScriptPool {
    commands: Stash<Command>,
    bytes: Stash<u8>,
}

/// Spare vectors of one element type plus the demand that bounds them.
#[derive(Debug)]
struct Stash<T> {
    /// Cleared spares in ascending capacity order: the largest is handed
    /// out first (a pop), the smallest dropped first.
    spares: Vec<Vec<T>>,
    /// Vectors drawn since the last recycle — the current call's demand.
    drawn: usize,
    /// The most vectors one call has drawn: the retention bound.
    bound: usize,
}

impl<T> Default for Stash<T> {
    fn default() -> Self {
        Self {
            spares: Vec::new(),
            drawn: 0,
            bound: 0,
        }
    }
}

impl<T> Stash<T> {
    /// Counts `n` handouts against the current call.
    fn note_draws(&mut self, n: usize) {
        self.drawn += n;
        self.bound = self.bound.max(self.drawn);
    }

    /// Hands out the largest spare (empty if none). Largest-first matters:
    /// arbitrary (LIFO) handout lets a small vector land on a big script
    /// over and over, so steady state would keep reallocating instead of
    /// converging to zero.
    fn take(&mut self) -> Vec<T> {
        self.note_draws(1);
        self.spares.pop().unwrap_or_default()
    }

    /// Files one cleared vector at its capacity rank.
    fn give(&mut self, mut v: Vec<T>) {
        v.clear();
        let at = self
            .spares
            .partition_point(|s| s.capacity() <= v.capacity());
        self.spares.insert(at, v);
        self.trim();
    }

    /// Restores capacity order after cleared vectors were pushed onto
    /// the tail, then trims. Unstable: a stable sort allocates its merge
    /// buffer, and equal capacities are interchangeable.
    fn settle(&mut self) {
        self.spares.sort_unstable_by_key(Vec::capacity);
        self.trim();
    }

    /// Drops the smallest spares beyond the bound.
    fn trim(&mut self) {
        let surplus = self.spares.len().saturating_sub(self.bound);
        if surplus > 0 {
            self.spares.drain(..surplus);
        }
    }
}

impl ScriptPool {
    /// Creates an empty pool. Storage accrues through
    /// [`ScriptPool::recycle`] and the `give_*` methods.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared command vector out of the pool (empty if the pool
    /// has none spare); the largest spare is handed out first.
    #[must_use]
    pub fn take_commands(&mut self) -> Vec<Command> {
        self.commands.take()
    }

    /// Takes a cleared byte vector out of the pool (empty if the pool has
    /// none spare); largest spare first, as [`ScriptPool::take_commands`].
    #[must_use]
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.bytes.take()
    }

    /// Returns a byte vector to the pool; it is cleared, its capacity kept
    /// unless the pool is already at its bound.
    pub fn give_bytes(&mut self, bytes: Vec<u8>) {
        self.bytes.give(bytes);
    }

    /// Returns a command vector to the pool, harvesting the payload of
    /// every add command into the byte stash first.
    pub fn give_commands(&mut self, mut commands: Vec<Command>) {
        for cmd in commands.drain(..) {
            if let Command::Add(mut add) = cmd {
                add.data.clear();
                self.bytes.spares.push(add.data);
            }
        }
        self.bytes.settle();
        self.commands.give(commands);
    }

    /// Dismantles a finished script and returns all its storage to the
    /// pool. A recycle ends the current call: the next draws count
    /// towards a new one.
    pub fn recycle(&mut self, script: DeltaScript) {
        let (_, _, commands) = script.into_parts();
        self.give_commands(commands);
        self.commands.drawn = 0;
        self.bytes.drawn = 0;
        ipr_trace::with(|r| {
            r.gauge("pool.spare_bytes", self.bytes.spares.len() as u64);
            r.gauge("pool.spare_commands", self.commands.spares.len() as u64);
        });
    }

    /// Number of spare command vectors currently pooled.
    #[must_use]
    pub fn spare_commands(&self) -> usize {
        self.commands.spares.len()
    }

    /// Number of spare byte vectors currently pooled.
    #[must_use]
    pub fn spare_bytes(&self) -> usize {
        self.bytes.spares.len()
    }

    /// The most spare command vectors the pool retains: the largest
    /// number one call has drawn.
    #[must_use]
    pub fn commands_bound(&self) -> usize {
        self.commands.bound
    }

    /// The most spare byte vectors the pool retains: the largest number
    /// one call has drawn.
    #[must_use]
    pub fn bytes_bound(&self) -> usize {
        self.bytes.bound
    }

    /// Moves the whole byte stash out of the pool, largest spare last,
    /// for a builder to pop from without holding a borrow on the pool.
    pub(crate) fn take_bytes_stash(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.bytes.spares)
    }

    /// Restores a stash taken with [`ScriptPool::take_bytes_stash`] after
    /// `drawn` vectors were popped from it (vectors handed out fresh
    /// because it ran dry count too). A popped stash stays in capacity
    /// order, so this is a move unless spares arrived meanwhile.
    pub(crate) fn restore_bytes_stash(&mut self, mut stash: Vec<Vec<u8>>, drawn: usize) {
        self.bytes.note_draws(drawn);
        if self.bytes.spares.is_empty() {
            self.bytes.spares = stash;
            self.bytes.trim();
        } else {
            self.bytes.spares.append(&mut stash);
            self.bytes.settle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws a script's worth of storage from `pool` and fills it.
    fn script_from(pool: &mut ScriptPool, add_lens: &[usize]) -> DeltaScript {
        let mut commands = pool.take_commands();
        let mut to = 0u64;
        for &len in add_lens {
            let mut data = pool.take_bytes();
            data.resize(len, 7);
            commands.push(Command::add(to, data));
            to += len as u64;
        }
        DeltaScript::new(0, to, commands).unwrap()
    }

    #[test]
    fn recycle_round_trips_capacity() {
        let mut pool = ScriptPool::new();
        let script = script_from(&mut pool, &[4, 4]);
        pool.recycle(script);
        assert_eq!(pool.spare_commands(), 1);
        assert_eq!(pool.spare_bytes(), 2);
        let cmds = pool.take_commands();
        assert!(cmds.is_empty());
        assert!(cmds.capacity() >= 2);
        let bytes = pool.take_bytes();
        assert!(bytes.is_empty());
        assert!(bytes.capacity() >= 4);
    }

    #[test]
    fn empty_pool_hands_out_fresh_vectors() {
        let mut pool = ScriptPool::new();
        assert!(pool.take_commands().is_empty());
        assert!(pool.take_bytes().is_empty());
    }

    #[test]
    fn handout_is_largest_first() {
        let mut pool = ScriptPool::new();
        for _ in 0..3 {
            let _ = pool.take_bytes();
        }
        for cap in [8, 64, 16] {
            pool.give_bytes(Vec::with_capacity(cap));
        }
        let caps: Vec<usize> = (0..3).map(|_| pool.take_bytes().capacity()).collect();
        assert!(caps[0] >= 64 && caps[1] >= 16 && caps[2] >= 8, "{caps:?}");
        assert!(caps[0] >= caps[1] && caps[1] >= caps[2], "{caps:?}");
    }

    #[test]
    fn spares_are_bounded_by_one_calls_demand() {
        let mut pool = ScriptPool::new();
        // One call draws three byte vectors...
        let script = script_from(&mut pool, &[10, 20, 30]);
        pool.recycle(script);
        assert_eq!(pool.bytes_bound(), 3);
        // ...then foreign scripts with many adds are recycled: only the
        // three largest spares stay.
        for round in 0..5 {
            let mut to = 0u64;
            let adds = (0..40)
                .map(|i| {
                    let len = 1 + i + round;
                    to += len as u64;
                    Command::add(to - len as u64, vec![1; len])
                })
                .collect();
            pool.recycle(DeltaScript::new(0, to, adds).unwrap());
            assert_eq!(pool.spare_bytes(), 3);
            assert_eq!(pool.spare_commands(), 1);
        }
        let caps: Vec<usize> = (0..3).map(|_| pool.take_bytes().capacity()).collect();
        assert!(caps.iter().all(|&c| c >= 38), "kept the largest: {caps:?}");
    }

    #[test]
    fn harvested_payloads_merge_in_capacity_order() {
        let mut pool = ScriptPool::new();
        let script = script_from(&mut pool, &[5, 50, 500, 1, 25, 250, 2]);
        pool.recycle(script);
        let script = script_from(&mut pool, &[3, 30, 300]);
        pool.recycle(script);
        assert_eq!(pool.spare_bytes(), 7);
        let caps: Vec<usize> = (0..7).map(|_| pool.take_bytes().capacity()).collect();
        assert!(caps.windows(2).all(|w| w[0] >= w[1]), "{caps:?}");
        assert!(caps[0] >= 500, "{caps:?}");
    }

    #[test]
    fn bound_is_the_largest_call_not_the_latest() {
        let mut pool = ScriptPool::new();
        let big = script_from(&mut pool, &[1; 6]);
        pool.recycle(big);
        for _ in 0..3 {
            let small = script_from(&mut pool, &[1]);
            pool.recycle(small);
            assert_eq!(
                pool.spare_bytes(),
                6,
                "a small call keeps the big call's spares"
            );
        }
        assert_eq!(pool.bytes_bound(), 6);
        assert_eq!(pool.commands_bound(), 1);
    }

    #[test]
    fn stash_round_trip_counts_draws_and_keeps_order() {
        let mut pool = ScriptPool::new();
        for _ in 0..3 {
            let _ = pool.take_bytes();
        }
        for cap in [8, 32, 16] {
            pool.give_bytes(Vec::with_capacity(cap));
        }
        let mut stash = pool.take_bytes_stash();
        assert_eq!(pool.spare_bytes(), 0);
        let top = stash.pop().unwrap();
        assert!(top.capacity() >= 32);
        pool.restore_bytes_stash(stash, 1);
        assert_eq!(pool.spare_bytes(), 2);
        assert_eq!(pool.bytes_bound(), 4, "three takes plus one stash draw");
        assert!(pool.take_bytes().capacity() >= 16);
    }
}
