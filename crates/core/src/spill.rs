//! Spilled conversion: trade a *small* scratch buffer for compression.
//!
//! The paper targets devices with *no* scratch space, so every copy
//! command deleted from a cycle ships its bytes literally. Real devices
//! usually have a little RAM to spare — and any cycle-bound copy whose
//! data fits that budget can instead be *stashed*: its source bytes are
//! read into scratch before application starts, and written out at the
//! end, so the delta keeps the cheap copy encoding.
//!
//! With budget 0 this degenerates to the paper's algorithm; with budget
//! ≥ the total bytes on cycles, cycle loss vanishes entirely. The
//! `ablation` experiment sweeps the curve in between.

use crate::apply::{check_capacity, InPlaceApplyError};
use crate::convert::{ConversionConfig, ConvertError};
use crate::crwi::CrwiGraph;
use crate::exec::{execute, ops, BufferSink, Op};
use crate::toposort::sort_breaking_cycles;
use crate::verify::first_violation;
use ipr_delta::{Add, Command, DeltaScript};
use std::fmt;

/// Configuration for [`convert_with_spill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillConfig {
    /// Cycle policy and cost model (as for plain conversion).
    pub conversion: ConversionConfig,
    /// Scratch bytes available on the device for stashed copies.
    pub scratch_budget: u64,
}

/// A converted delta whose cycle-bound copies are stashed when they fit
/// the scratch budget.
#[derive(Clone, Debug)]
pub struct SpillOutcome {
    /// The converted script: conflict-free copies in topological order,
    /// then adds and stashed copies (interleaved, sorted by write
    /// offset).
    pub script: DeltaScript,
    /// Indices into `script.commands()` of the stashed copies; they must
    /// be pre-read into scratch before application (see
    /// [`apply_in_place_spilled`]).
    pub stashed: Vec<usize>,
    /// Scratch bytes the stashed copies require (≤ the budget).
    pub scratch_used: u64,
    /// Copies that did not fit the budget and were converted to adds.
    pub copies_converted: usize,
    /// Bytes shipped literally because they did not fit the budget.
    pub bytes_converted: u64,
    /// Delta growth in encoded bytes (only the converted copies count;
    /// stashed copies keep their copy encoding).
    pub conversion_cost: u64,
}

/// Error from [`apply_in_place_spilled`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillApplyError {
    /// Buffer smaller than `max(source_len, target_len)`.
    Apply(InPlaceApplyError),
    /// A stash index is out of range or not a copy command.
    BadStashIndex {
        /// The offending index.
        index: usize,
    },
    /// The stashed copies need more scratch than provided.
    ScratchExceeded {
        /// Bytes required.
        needed: u64,
        /// Budget provided.
        budget: u64,
    },
}

impl fmt::Display for SpillApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillApplyError::Apply(e) => e.fmt(f),
            SpillApplyError::BadStashIndex { index } => {
                write!(f, "stash index {index} is not a copy command of the script")
            }
            SpillApplyError::ScratchExceeded { needed, budget } => {
                write!(
                    f,
                    "stashed copies need {needed} scratch bytes, budget is {budget}"
                )
            }
        }
    }
}

impl std::error::Error for SpillApplyError {}

impl From<InPlaceApplyError> for SpillApplyError {
    fn from(e: InPlaceApplyError) -> Self {
        SpillApplyError::Apply(e)
    }
}

/// Converts `script` for in-place reconstruction with a scratch budget.
///
/// Runs the paper's algorithm (partition, CRWI digraph, cycle-breaking
/// topological sort), then re-encodes the deleted vertices: largest-first,
/// each deleted copy is *stashed* if it still fits the remaining budget,
/// otherwise converted to an add.
///
/// # Errors
///
/// Same failure cases as
/// [`convert_to_in_place`](crate::convert_to_in_place).
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::spill::{convert_with_spill, SpillConfig};
/// use ipr_core::ConversionConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A block swap (one 2-cycle): with 8 bytes of scratch, no literal
/// // data needs to ship at all.
/// let script = DeltaScript::new(16, 16, vec![
///     Command::copy(8, 0, 8),
///     Command::copy(0, 8, 8),
/// ])?;
/// let reference: Vec<u8> = (0..16).collect();
/// let out = convert_with_spill(&script, &reference, &SpillConfig {
///     conversion: ConversionConfig::default(),
///     scratch_budget: 8,
/// })?;
/// assert_eq!(out.stashed.len(), 1);
/// assert_eq!(out.copies_converted, 0);
/// # Ok(())
/// # }
/// ```
pub fn convert_with_spill(
    script: &DeltaScript,
    reference: &[u8],
    config: &SpillConfig,
) -> Result<SpillOutcome, ConvertError> {
    if reference.len() as u64 != script.source_len() {
        return Err(ConvertError::SourceLenMismatch {
            expected: script.source_len(),
            actual: reference.len() as u64,
        });
    }
    let _span = ipr_trace::span("spill.convert");
    let crwi = CrwiGraph::build(script.copies());
    let costs: Vec<u64> = crwi
        .copies()
        .iter()
        .map(|c| config.conversion.cost_format.conversion_cost(c))
        .collect();
    let sorted = sort_breaking_cycles(crwi.graph(), &costs, config.conversion.policy)?;

    // Largest-first greedy packing of deleted copies into the budget.
    let mut deleted: Vec<_> = sorted
        .removed
        .iter()
        .map(|&v| crwi.copies()[v as usize])
        .collect();
    deleted.sort_by_key(|c| std::cmp::Reverse(c.len));
    let mut remaining = config.scratch_budget;
    let mut stashed_copies = Vec::new();
    let mut converted = Vec::new();
    for c in deleted {
        if c.len <= remaining {
            remaining -= c.len;
            stashed_copies.push(c);
        } else {
            converted.push(c);
        }
    }

    // Emit: retained copies in topological order, then the tail (adds and
    // stashed copies) sorted by write offset.
    let mut commands: Vec<Command> = sorted
        .order
        .iter()
        .map(|&v| Command::Copy(crwi.copies()[v as usize]))
        .collect();
    // The tail's only copies are the stashed ones.
    let mut tail: Vec<Command> = script.adds().into_iter().map(Command::Add).collect();
    let mut bytes_converted = 0u64;
    let mut conversion_cost = 0u64;
    for c in &converted {
        bytes_converted += c.len;
        conversion_cost += config.conversion.cost_format.conversion_cost(c);
        let range = c.read_interval().as_usize_range();
        tail.push(Command::Add(Add::new(c.to, reference[range].to_vec())));
    }
    tail.extend(stashed_copies.iter().map(|&c| Command::Copy(c)));
    tail.sort_by_key(Command::to);
    let mut stashed = Vec::with_capacity(stashed_copies.len());
    for cmd in tail {
        if cmd.is_copy() {
            stashed.push(commands.len());
        }
        commands.push(cmd);
    }
    let script = DeltaScript::new(script.source_len(), script.target_len(), commands)
        .expect("spilled conversion preserves script validity");
    let outcome = SpillOutcome {
        scratch_used: config.scratch_budget - remaining,
        copies_converted: converted.len(),
        bytes_converted,
        conversion_cost,
        script,
        stashed,
    };
    if ipr_trace::enabled() {
        ipr_trace::with(|r| {
            r.add("spill.stashed_copies", outcome.stashed.len() as u64);
            r.add("spill.stash_bytes", outcome.scratch_used);
            r.add("spill.copies_converted", outcome.copies_converted as u64);
            r.add("spill.bytes_converted", outcome.bytes_converted);
        });
    }
    Ok(outcome)
}

/// Applies a spilled script to `buf` in place, using at most
/// `scratch_budget` bytes of extra memory for the stashed copies.
///
/// The stashed copies' source regions are read into scratch *before* any
/// command runs (they are the reads the topological order could not
/// protect); all commands then apply serially, stashed ones writing from
/// scratch (see [`Stash`]).
///
/// # Errors
///
/// See [`SpillApplyError`].
pub fn apply_in_place_spilled(
    script: &DeltaScript,
    stashed: &[usize],
    buf: &mut [u8],
    scratch_budget: u64,
) -> Result<(), SpillApplyError> {
    check_capacity(script, buf.len())?;
    let stash = Stash::take(script, stashed, buf, scratch_budget)?;
    let Ok(()) = execute(
        "apply.spilled",
        stash.ops(script),
        &mut BufferSink::new(buf, u64::MAX),
    );
    Ok(())
}

/// The spill command source: the stashed copies' source bytes, read
/// before any command writes, replayed as writes in place of those copies.
#[derive(Clone, Debug, Default)]
pub struct Stash(Vec<(usize, Vec<u8>)>);

impl Stash {
    /// Reads the `stashed` copies' source bytes out of `buf`, which holds
    /// the reference.
    ///
    /// # Errors
    ///
    /// [`SpillApplyError::BadStashIndex`] for an index naming no copy,
    /// [`SpillApplyError::ScratchExceeded`] once the stash passes
    /// `scratch_budget`.
    pub fn take(
        script: &DeltaScript,
        stashed: &[usize],
        buf: &[u8],
        scratch_budget: u64,
    ) -> Result<Self, SpillApplyError> {
        let mut stash = Self::default();
        for &index in stashed {
            let Some(Command::Copy(c)) = script.commands().get(index) else {
                return Err(SpillApplyError::BadStashIndex { index });
            };
            let needed = stash.scratch_bytes() + c.len;
            if needed > scratch_budget {
                return Err(SpillApplyError::ScratchExceeded {
                    needed,
                    budget: scratch_budget,
                });
            }
            let bytes = buf[c.read_interval().as_usize_range()].to_vec();
            stash.0.push((index, bytes));
        }
        stash.0.sort_by_key(|(index, _)| *index);
        Ok(stash)
    }

    /// Scratch bytes the stash holds.
    #[must_use]
    pub fn scratch_bytes(&self) -> u64 {
        self.0.iter().map(|(_, bytes)| bytes.len() as u64).sum()
    }

    /// `script`'s commands, stashed copies replaced by writes of their
    /// stashed bytes.
    pub fn ops<'a>(&'a self, script: &'a DeltaScript) -> impl Iterator<Item = (usize, Op<'a>)> {
        ops(script.commands(), 0).map(|(i, op)| {
            match self.0.binary_search_by_key(&i, |(index, _)| *index) {
                Ok(slot) => (i, Op::Add(script.commands()[i].to(), &self.0[slot].1)),
                Err(_) => (i, op),
            }
        })
    }
}

/// Checks the spilled variant of Equation 2: stashed copies read at time
/// zero (before any write); every other copy must not read bytes written
/// by earlier non-stashed commands *or any stashed command's write that
/// precedes it*.
#[must_use]
pub fn is_spill_safe(script: &DeltaScript, stashed: &[usize]) -> bool {
    let mut sorted = stashed.to_vec();
    sorted.sort_unstable();
    let is_copy = |i: usize| script.commands().get(i).is_some_and(Command::is_copy);
    sorted.iter().all(|&i| is_copy(i))
        && first_violation(script, &mut Vec::new(), |i| {
            sorted.binary_search(&i).is_ok()
        })
        .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_to_in_place;
    use crate::convert::ConversionConfig;
    use ipr_delta::diff::{Differ, GreedyDiffer};

    fn swap_script() -> (DeltaScript, Vec<u8>) {
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        ((script), (0u8..16).collect())
    }

    fn spill(script: &DeltaScript, reference: &[u8], budget: u64) -> SpillOutcome {
        convert_with_spill(
            script,
            reference,
            &SpillConfig {
                conversion: ConversionConfig::default(),
                scratch_budget: budget,
            },
        )
        .unwrap()
    }

    fn check_apply(out: &SpillOutcome, reference: &[u8], expected: &[u8], budget: u64) {
        assert!(is_spill_safe(&out.script, &out.stashed));
        let mut buf = reference.to_vec();
        buf.resize(crate::apply::required_capacity(&out.script) as usize, 0);
        apply_in_place_spilled(&out.script, &out.stashed, &mut buf, budget).unwrap();
        assert_eq!(&buf[..expected.len()], expected);
    }

    #[test]
    fn zero_budget_equals_paper_algorithm() {
        let (script, reference) = swap_script();
        let out = spill(&script, &reference, 0);
        let plain = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        assert!(out.stashed.is_empty());
        assert_eq!(out.copies_converted, plain.report.copies_converted);
        assert_eq!(out.script, plain.script);
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        check_apply(&out, &reference, &expected, 0);
    }

    #[test]
    fn sufficient_budget_eliminates_all_literal_loss() {
        let (script, reference) = swap_script();
        let out = spill(&script, &reference, 8);
        assert_eq!(out.stashed.len(), 1);
        assert_eq!(out.copies_converted, 0);
        assert_eq!(out.conversion_cost, 0);
        assert_eq!(out.scratch_used, 8);
        // The script still has 2 copy commands and no adds.
        assert_eq!(out.script.copy_count(), 2);
        assert_eq!(out.script.add_count(), 0);
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        check_apply(&out, &reference, &expected, 8);
    }

    #[test]
    fn plain_checker_rejects_spilled_script_but_spill_checker_accepts() {
        let (script, reference) = swap_script();
        let out = spill(&script, &reference, 8);
        assert!(!crate::verify::is_in_place_safe(&out.script));
        assert!(is_spill_safe(&out.script, &out.stashed));
    }

    #[test]
    fn partial_budget_spills_largest_first() {
        // Two independent swaps of different sizes: budget fits only the
        // larger one.
        let script = DeltaScript::new(
            64,
            64,
            vec![
                Command::copy(16, 0, 16),
                Command::copy(0, 16, 16),
                Command::copy(40, 32, 8),
                Command::copy(32, 40, 8),
                Command::add(48, vec![9; 16]),
            ],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..64).collect();
        let out = spill(&script, &reference, 20);
        assert_eq!(out.stashed.len(), 1, "only the 16-byte copy fits");
        assert_eq!(out.scratch_used, 16);
        assert_eq!(out.copies_converted, 1);
        assert_eq!(out.bytes_converted, 8);
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        check_apply(&out, &reference, &expected, 20);
    }

    #[test]
    fn spill_curve_on_realistic_pair() {
        let reference: Vec<u8> = (0..32_768u32).map(|i| (i * 29 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(7_000);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let mut previous_cost = u64::MAX;
        for budget in [0u64, 64, 1024, 64 * 1024] {
            let out = spill(&script, &reference, budget);
            assert!(
                out.conversion_cost <= previous_cost,
                "budget {budget}: cost went up"
            );
            previous_cost = out.conversion_cost;
            check_apply(&out, &reference, &version, budget);
        }
        // A big enough budget eliminates the loss entirely.
        assert_eq!(previous_cost, 0);
    }

    #[test]
    fn apply_rejects_bad_stash_metadata() {
        let (script, reference) = swap_script();
        let out = spill(&script, &reference, 8);
        let mut buf = reference.clone();
        assert!(matches!(
            apply_in_place_spilled(&out.script, &[99], &mut buf, 8),
            Err(SpillApplyError::BadStashIndex { index: 99 })
        ));
        assert!(matches!(
            apply_in_place_spilled(&out.script, &out.stashed, &mut buf, 4),
            Err(SpillApplyError::ScratchExceeded {
                needed: 8,
                budget: 4
            })
        ));
    }

    #[test]
    fn checker_rejects_non_copy_stash() {
        let script = DeltaScript::new(4, 4, vec![Command::add(0, vec![1; 4])]).unwrap();
        assert!(!is_spill_safe(&script, &[0]));
        assert!(!is_spill_safe(&script, &[5]));
    }
}
