//! Parallel application scheduling.
//!
//! §4.1 of the paper restricts itself to applying commands *serially*,
//! "appropriate for limited capability network devices". The CRWI digraph
//! supports more: any two retained copies without a path between them can
//! run concurrently (their reads and writes cannot conflict), so a device
//! with DMA queues — or a host-side patcher with threads — can apply the
//! delta in *waves*. This module computes the longest-path layering of
//! the conflict DAG: the number of waves is the critical path of the
//! update, and `commands / waves` is the available parallelism.

use crate::crwi;
use crate::verify::first_violation;
use ipr_delta::{Command, Copy, DeltaScript};
use ipr_digraph::topo::{kahn_into, KahnScratch};
use ipr_digraph::{Digraph, NodeId};

/// A wave-parallel application plan for a converted (Equation 2) script.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelSchedule {
    /// Command indices per wave; all commands of a wave may be applied
    /// concurrently, waves strictly in order. The final wave holds the
    /// add commands (and any copies nothing depends on).
    waves: Vec<Vec<usize>>,
    /// Total commands scheduled.
    pub(crate) commands: usize,
}

impl ParallelSchedule {
    /// Builds the schedule for a converted, in-place-safe script.
    ///
    /// Returns `None` if the script violates Equation 2 (a serial-unsafe
    /// script cannot be parallelized either).
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_delta::{Command, DeltaScript};
    /// use ipr_core::ParallelSchedule;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Two independent copies + one add: two waves (copies together,
    /// // then the add).
    /// let script = DeltaScript::new(16, 16, vec![
    ///     Command::copy(8, 0, 4),
    ///     Command::copy(12, 4, 4),
    ///     Command::add(8, vec![0; 8]),
    /// ])?;
    /// let plan = ParallelSchedule::plan(&script).expect("safe script");
    /// assert_eq!(plan.wave_count(), 2);
    /// assert_eq!(plan.waves()[0].len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn plan(script: &DeltaScript) -> Option<Self> {
        let mut scratch = ScheduleScratch::new();
        scratch.plan(script)?;
        Some(std::mem::take(&mut scratch.plan))
    }

    /// The waves, each a list of command indices.
    #[must_use]
    pub fn waves(&self) -> &[Vec<usize>] {
        &self.waves
    }

    /// Number of waves — the critical path of the update.
    #[must_use]
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// A copy of this schedule with the commands of every wave reordered
    /// pseudo-randomly (deterministic in `seed`).
    ///
    /// Wave membership is what the disjointness proof relies on; the order
    /// *within* a wave must not matter. Tests use this to drive the
    /// parallel applier through adversarial intra-wave orderings.
    #[must_use]
    pub fn permuted_within_waves(&self, seed: u64) -> Self {
        // SplitMix64: small, seedable, good enough to shuffle with.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut waves = self.waves.clone();
        for wave in &mut waves {
            // Fisher–Yates.
            for i in (1..wave.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                wave.swap(i, j);
            }
        }
        Self {
            waves,
            commands: self.commands,
        }
    }

    /// Average commands per wave (1.0 = fully serial).
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        if self.waves.is_empty() {
            0.0
        } else {
            self.commands as f64 / self.waves.len() as f64
        }
    }
}

/// Reusable working storage for wave scheduling.
///
/// Owns the CRWI digraph buffers, Kahn toposort scratch, the level
/// vector, and the produced [`ParallelSchedule`] itself (wave vectors
/// included), so repeated planning through one scratch performs no heap
/// allocation once warm.
#[derive(Debug, Default)]
pub struct ScheduleScratch {
    copies: Vec<Copy>,
    graph: Digraph,
    graph_spare: Vec<Vec<NodeId>>,
    kahn: KahnScratch,
    order: Vec<NodeId>,
    level: Vec<usize>,
    wave_sizes: Vec<usize>,
    wave_order: Vec<usize>,
    wave_spare: Vec<Vec<usize>>,
    writes: Vec<(u64, u64, usize)>,
    plan: ParallelSchedule,
}

impl ScheduleScratch {
    /// Creates an empty scratch. Storage is grown on first use and reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch-based equivalent of [`ParallelSchedule::plan`]: identical
    /// schedule, built into this scratch's storage. The returned borrow is
    /// valid until the next plan; clone it to keep it longer.
    pub fn plan(&mut self, script: &DeltaScript) -> Option<&ParallelSchedule> {
        self.plan_impl(script, true)
    }

    /// Like [`ScheduleScratch::plan`] but skips the Equation 2 safety
    /// check — for callers that just converted the script and know it is
    /// in-place safe. Still returns `None` (never panics) if the conflict
    /// graph unexpectedly has a cycle.
    pub fn plan_trusted(&mut self, script: &DeltaScript) -> Option<&ParallelSchedule> {
        self.plan_impl(script, false)
    }

    fn plan_impl(&mut self, script: &DeltaScript, validate: bool) -> Option<&ParallelSchedule> {
        let _span = ipr_trace::span("schedule.plan");
        if validate && first_violation(script, &mut self.writes, |_| false).is_some() {
            return None;
        }
        let Self {
            copies,
            graph,
            graph_spare,
            kahn,
            order,
            level,
            wave_sizes,
            wave_order,
            wave_spare,
            writes: _,
            plan,
        } = self;
        if script.is_empty() {
            for mut w in plan.waves.drain(..) {
                w.clear();
                wave_spare.push(w);
            }
            plan.commands = 0;
            return Some(plan);
        }
        // Map the script's copies onto CRWI vertices: sort by write offset
        // (unique in a valid script, so the unstable sort is deterministic)
        // and recover each command's vertex by binary search.
        copies.clear();
        copies.extend(script.commands().iter().filter_map(|cmd| match cmd {
            Command::Copy(c) => Some(*c),
            Command::Add(_) => None,
        }));
        copies.sort_unstable_by_key(|c| c.to);
        graph.reset_with_spare(copies.len(), graph_spare);
        crwi::build_edges_into(copies, graph);
        // Longest-path layering over the DAG: wave(v) = 1 + max over
        // predecessors. Process in topological order.
        if kahn_into(graph, kahn, order).is_err() {
            assert!(!validate, "a safe script's conflict graph is acyclic");
            return None;
        }
        level.clear();
        level.resize(graph.node_count(), 0);
        for &u in order.iter() {
            for &v in graph.successors(u) {
                level[v as usize] = level[v as usize].max(level[u as usize] + 1);
            }
        }
        let copy_waves = level.iter().copied().max().map_or(0, |m| m + 1);

        // Adds never read the reference, but copies must read it before
        // any add clobbers it: adds share one dedicated final wave.
        let total_waves = copy_waves + usize::from(script.add_count() > 0);
        // Wave sizes are known before filling (the level histogram), so
        // recycled vectors can be assigned capacity-aware: the largest
        // spare vector goes to the largest wave. Once the spare pool's
        // capacities dominate a workload's wave sizes, planning allocates
        // nothing — arbitrary (LIFO) assignment never converges, because a
        // small vector landing on a big wave regrows every time.
        wave_sizes.clear();
        wave_sizes.resize(total_waves, 0);
        for &l in level.iter() {
            wave_sizes[l] += 1;
        }
        if script.add_count() > 0 {
            wave_sizes[total_waves - 1] += script.add_count();
        }
        let waves = &mut plan.waves;
        for mut w in waves.drain(..) {
            w.clear();
            wave_spare.push(w);
        }
        while wave_spare.len() < total_waves {
            wave_spare.push(Vec::new());
        }
        wave_spare.sort_unstable_by_key(Vec::capacity);
        wave_order.clear();
        wave_order.extend(0..total_waves);
        wave_order.sort_unstable_by_key(|&w| std::cmp::Reverse(wave_sizes[w]));
        waves.resize_with(total_waves, Vec::new);
        for &w in wave_order.iter() {
            waves[w] = wave_spare.pop().expect("pool topped up above");
        }
        for (i, cmd) in script.commands().iter().enumerate() {
            match cmd.read_interval() {
                Some(_) => {
                    let v = copies
                        .binary_search_by_key(&cmd.to(), |c| c.to)
                        .expect("every copy has a unique write offset");
                    waves[level[v]].push(i);
                }
                None => waves[total_waves - 1].push(i),
            }
        }
        // Stable compaction of non-empty waves, spilling emptied storage
        // into the spare list (the allocation-free `retain`).
        let mut kept = 0;
        for idx in 0..waves.len() {
            if !waves[idx].is_empty() {
                waves.swap(kept, idx);
                kept += 1;
            }
        }
        wave_spare.extend(waves.drain(kept..));
        plan.commands = script.len();
        if ipr_trace::enabled() {
            let parallelism_milli = (plan.parallelism() * 1000.0) as u64;
            ipr_trace::with(|r| {
                r.add("schedule.waves", plan.wave_count() as u64);
                r.gauge("schedule.parallelism_milli", parallelism_milli);
            });
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};
    use ipr_delta::Command;

    /// Applies a schedule wave by wave (commands within a wave in an
    /// adversarial order) and checks the result.
    fn apply_waves(script: &DeltaScript, plan: &ParallelSchedule, reference: &[u8]) -> Vec<u8> {
        let mut buf = reference.to_vec();
        buf.resize(crate::apply::required_capacity(script) as usize, 0);
        for wave in plan.waves() {
            // Simulate concurrency: snapshot reads first (all reads in a
            // wave see the pre-wave buffer), then perform writes.
            let mut writes: Vec<(usize, Vec<u8>)> = Vec::new();
            for &i in wave.iter().rev() {
                match &script.commands()[i] {
                    Command::Copy(c) => {
                        writes.push((
                            c.to as usize,
                            buf[c.read_interval().as_usize_range()].to_vec(),
                        ));
                    }
                    Command::Add(a) => writes.push((a.to as usize, a.data.clone())),
                }
            }
            for (to, data) in writes {
                buf[to..to + data.len()].copy_from_slice(&data);
            }
        }
        buf.truncate(script.target_len() as usize);
        buf
    }

    #[test]
    fn unsafe_script_not_schedulable() {
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap();
        assert!(ParallelSchedule::plan(&script).is_none());
    }

    #[test]
    fn independent_copies_share_a_wave() {
        let script = DeltaScript::new(
            32,
            16,
            vec![
                Command::copy(16, 0, 4),
                Command::copy(20, 4, 4),
                Command::copy(24, 8, 4),
                Command::copy(28, 12, 4),
            ],
        )
        .unwrap();
        let plan = ParallelSchedule::plan(&script).unwrap();
        assert_eq!(plan.wave_count(), 1);
        assert!((plan.parallelism() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn chains_serialize() {
        // A dependency chain: shift left. Command i reads what i+1 writes,
        // so each must precede the next: n waves.
        let cmds: Vec<Command> = (0..5u64)
            .map(|i| Command::copy(4 * (i + 1), 4 * i, 4))
            .collect();
        let script = DeltaScript::new(24, 20, cmds).unwrap();
        let plan = ParallelSchedule::plan(&script).unwrap();
        assert_eq!(plan.wave_count(), 5);
    }

    #[test]
    fn wave_application_matches_serial_on_corpus_pair() {
        let reference: Vec<u8> = (0..20_000u32).map(|i| (i * 17 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(4_321);
        version.extend_from_slice(&[7u8; 500]);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let plan = ParallelSchedule::plan(&out.script).expect("converted script is safe");
        assert_eq!(apply_waves(&out.script, &plan, &reference), version);
        // Every command scheduled exactly once.
        let mut seen = vec![false; out.script.len()];
        for wave in plan.waves() {
            for &i in wave {
                assert!(!seen[i], "command {i} scheduled twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn adds_go_last() {
        let script = DeltaScript::new(
            8,
            12,
            vec![Command::copy(0, 4, 8), Command::add(0, vec![1; 4])],
        )
        .unwrap();
        let plan = ParallelSchedule::plan(&script).unwrap();
        let last = plan.waves().last().unwrap();
        assert!(last.contains(&1));
    }

    #[test]
    fn permutation_preserves_wave_membership() {
        let reference: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 241) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(1_234);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let plan = ParallelSchedule::plan(&out.script).unwrap();
        let shuffled = plan.permuted_within_waves(0xfeed);
        assert_eq!(plan.wave_count(), shuffled.wave_count());
        for (a, b) in plan.waves().iter().zip(shuffled.waves()) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "same membership per wave");
        }
        // Same seed reproduces, different seed (on a large plan) differs.
        assert_eq!(shuffled, plan.permuted_within_waves(0xfeed));
        // The shuffled schedule still applies correctly.
        assert_eq!(apply_waves(&out.script, &shuffled, &reference), version);
    }

    #[test]
    fn scratch_reuse_matches_fresh_plans() {
        // One scratch reused across heterogeneous scripts (including empty
        // and unsafe ones) must reproduce the fresh-plan results exactly.
        let reference: Vec<u8> = (0..10_000u32).map(|i| (i * 13 % 239) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(777);
        let diffed = GreedyDiffer::default().diff(&reference, &version);
        let converted = convert_to_in_place(&diffed, &reference, &ConversionConfig::default())
            .unwrap()
            .script;
        let scripts = vec![
            converted,
            DeltaScript::new(4, 0, vec![]).unwrap(),
            DeltaScript::new(
                8,
                12,
                vec![Command::copy(0, 4, 8), Command::add(0, vec![1; 4])],
            )
            .unwrap(),
            // Unsafe: both paths must agree on None.
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap(),
        ];
        let mut scratch = ScheduleScratch::new();
        for script in &scripts {
            let fresh = ParallelSchedule::plan(script);
            let reused = scratch.plan(script).cloned();
            assert_eq!(reused, fresh);
            if crate::verify::is_in_place_safe(script) {
                let trusted = scratch.plan_trusted(script).cloned();
                assert_eq!(trusted, fresh);
            }
        }
    }

    #[test]
    fn scratch_safety_check_matches_verifier() {
        // The allocation-free Equation 2 check (on reused scratch) must
        // agree with a naive pairwise check on safe, unsafe and
        // add-clobbering scripts alike.
        let reference: Vec<u8> = (0..4_000u32).map(|i| (i * 7 % 233) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(321);
        let diffed = GreedyDiffer::default().diff(&reference, &version);
        let converted = convert_to_in_place(&diffed, &reference, &ConversionConfig::default())
            .unwrap()
            .script;
        let mut scripts = vec![
            diffed,
            converted,
            DeltaScript::new(4, 0, vec![]).unwrap(),
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap(),
            // An add clobbering a later read.
            DeltaScript::new(
                8,
                12,
                vec![Command::add(0, vec![1; 4]), Command::copy(0, 4, 8)],
            )
            .unwrap(),
            // A copy whose own read and write overlap: not a violation.
            DeltaScript::new(8, 6, vec![Command::copy(2, 0, 6)]).unwrap(),
        ];
        // Adversarial permutations of the converted script.
        let safe = scripts[1].clone();
        let order: Vec<usize> = (0..safe.len()).rev().collect();
        scripts.push(safe.permuted(&order));
        let mut writes = Vec::new();
        for script in &scripts {
            let cmds = script.commands();
            let naive = cmds.iter().enumerate().all(|(j, cmd)| {
                cmd.read_interval().is_none_or(|read| {
                    cmds[..j]
                        .iter()
                        .all(|w| !w.write_interval().intersects(read))
                })
            });
            assert_eq!(
                first_violation(script, &mut writes, |_| false).is_none(),
                naive,
                "verdicts diverge on {script:?}"
            );
        }
    }

    #[test]
    fn empty_script_plans_empty() {
        let script = DeltaScript::new(4, 0, vec![]).unwrap();
        let plan = ParallelSchedule::plan(&script).unwrap();
        assert_eq!(plan.wave_count(), 0);
        assert_eq!(plan.parallelism(), 0.0);
    }
}
