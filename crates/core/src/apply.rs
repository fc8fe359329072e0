//! In-place application: rebuild the version file in the buffer that holds
//! the reference file, with no scratch space.
//!
//! Copy commands whose read and write intervals overlap are performed
//! directionally (§4.1): left-to-right when `from >= to`, right-to-left
//! when `from < to`, so no byte is read after the command itself has
//! overwritten it. The paper notes the rule applies to "moving a
//! read/write buffer of any size"; [`apply_in_place_buffered`] implements
//! exactly that, modelling a device that stages copies through a small
//! RAM buffer while the file lives in storage. Both run on the shared
//! executor ([`crate::exec`]) with a [`BufferSink`].

use crate::exec::{execute, ops, BufferSink};
use ipr_delta::DeltaScript;
use std::fmt;

/// Error returned by the in-place appliers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InPlaceApplyError {
    /// The buffer must hold `max(source_len, target_len)` bytes.
    BufferTooSmall {
        /// Required capacity.
        needed: u64,
        /// Supplied capacity.
        actual: u64,
    },
}

impl fmt::Display for InPlaceApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InPlaceApplyError::BufferTooSmall { needed, actual } => {
                write!(f, "in-place buffer holds {actual} bytes, need {needed}")
            }
        }
    }
}

impl std::error::Error for InPlaceApplyError {}

/// Applies `script` to `buf` in place, serially, in command order.
///
/// `buf` must contain the reference file in its first `source_len` bytes
/// and be at least `max(source_len, target_len)` bytes long; afterwards
/// its first `target_len` bytes hold the version file.
///
/// **This function trusts the command order.** Applying a script that
/// violates Equation 2 (see
/// [`check_in_place_safe`](crate::check_in_place_safe)) silently produces
/// corrupt output — that is precisely the failure mode the paper's
/// conversion algorithm exists to prevent. Scripts produced by
/// [`convert_to_in_place`](crate::convert_to_in_place) are always safe.
///
/// # Errors
///
/// Returns [`InPlaceApplyError::BufferTooSmall`] if `buf` cannot hold both
/// file versions.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::apply_in_place;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = DeltaScript::new(4, 4, vec![
///     Command::copy(2, 0, 2),
///     Command::add(2, b"!!".to_vec()),
/// ])?;
/// let mut buf = b"abcd".to_vec();
/// apply_in_place(&script, &mut buf)?;
/// assert_eq!(&buf, b"cd!!");
/// # Ok(())
/// # }
/// ```
pub fn apply_in_place(script: &DeltaScript, buf: &mut [u8]) -> Result<(), InPlaceApplyError> {
    apply_in_place_buffered(script, buf, usize::MAX)
}

/// Like [`apply_in_place`], but moves every copy in pieces of at most
/// `chunk_size` bytes, left-to-right when `from >= to` and right-to-left
/// otherwise — the paper's directional rule at arbitrary buffer
/// granularity, as a storage-constrained device staging copies through a
/// small RAM buffer would implement it.
///
/// Produces byte-identical results to [`apply_in_place`] for every
/// `chunk_size >= 1` (invariant I8 of DESIGN.md).
///
/// # Errors
///
/// Returns [`InPlaceApplyError::BufferTooSmall`] if `buf` cannot hold both
/// file versions.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn apply_in_place_buffered(
    script: &DeltaScript,
    buf: &mut [u8],
    chunk_size: usize,
) -> Result<(), InPlaceApplyError> {
    check_capacity(script, buf.len())?;
    let mut sink = BufferSink::new(buf, chunk_size as u64);
    let Ok(()) = execute("apply.serial", ops(script.commands(), 0), &mut sink);
    Ok(())
}

/// The buffer capacity in bytes that in-place application of `script`
/// requires: `max(source_len, target_len)`.
#[must_use]
pub fn required_capacity(script: &DeltaScript) -> u64 {
    script.source_len().max(script.target_len())
}

/// The capacity check every buffer applier makes before its first write.
pub(crate) fn check_capacity(script: &DeltaScript, len: usize) -> Result<(), InPlaceApplyError> {
    let needed = required_capacity(script);
    if (len as u64) < needed {
        return Err(InPlaceApplyError::BufferTooSmall {
            needed,
            actual: len as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_delta::{apply, Command};

    #[test]
    fn overlapping_forward_copy_left_to_right() {
        // A self-overlapping copy moving data left (from > to).
        let solo = DeltaScript::new(16, 12, vec![Command::copy(4, 0, 12)]).unwrap();
        let reference: Vec<u8> = (0u8..16).collect();
        let mut buf = reference.clone();
        apply_in_place(&solo, &mut buf).unwrap();
        assert_eq!(&buf[..12], &reference[4..16]);
    }

    #[test]
    fn overlapping_backward_copy_right_to_left() {
        // from < to: shift right by 4 within the buffer.
        let solo = DeltaScript::new(
            12,
            16,
            vec![Command::copy(0, 4, 12), Command::add(0, vec![0xAA; 4])],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..12).collect();
        let mut buf = reference.clone();
        buf.resize(16, 0);
        apply_in_place(&solo, &mut buf).unwrap();
        assert_eq!(&buf[4..16], &reference[..]);
        assert_eq!(&buf[..4], &[0xAA; 4]);
    }

    #[test]
    fn buffered_matches_unbuffered_at_all_granularities() {
        let solo = DeltaScript::new(
            64,
            64,
            vec![
                Command::copy(8, 0, 40),   // forward self-overlap
                Command::copy(40, 48, 16), // backward overlap (from < to)
                Command::add(40, vec![7; 8]),
            ],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..64).collect();
        let mut expected = reference.clone();
        apply_in_place(&solo, &mut expected).unwrap();
        for chunk in [1usize, 2, 3, 5, 7, 16, 64, 1024] {
            let mut buf = reference.clone();
            apply_in_place_buffered(&solo, &mut buf, chunk).unwrap();
            assert_eq!(buf, expected, "chunk {chunk}");
        }
    }

    #[test]
    fn safe_script_matches_scratch_apply() {
        // A safe order rebuilt in place equals the scratch-space rebuild.
        let reference: Vec<u8> = (0u8..16).collect();
        let safe = DeltaScript::new(
            16,
            16,
            vec![
                Command::copy(12, 0, 4),
                Command::add(4, vec![9; 8]),
                Command::copy(12, 12, 4),
            ],
        )
        .unwrap();
        assert!(crate::verify::is_in_place_safe(&safe));
        let expected = apply(&safe, &reference).unwrap();
        let mut buf = reference.clone();
        apply_in_place(&safe, &mut buf).unwrap();
        assert_eq!(&buf[..16], &expected[..]);
    }

    #[test]
    fn unsafe_script_corrupts_demonstrably() {
        // The motivating failure: apply an unconverted delta in place and
        // watch it corrupt.
        let unsafe_script =
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap();
        let reference: Vec<u8> = (0u8..16).collect();
        let expected = apply(&unsafe_script, &reference).unwrap();
        let mut buf = reference.clone();
        apply_in_place(&unsafe_script, &mut buf).unwrap();
        assert_ne!(&buf[..16], &expected[..], "in-place naive apply corrupts");
    }

    #[test]
    fn buffer_too_small_rejected() {
        let script = DeltaScript::new(8, 8, vec![Command::copy(0, 0, 8)]).unwrap();
        let mut buf = vec![0u8; 4];
        let err = apply_in_place(&script, &mut buf).unwrap_err();
        assert_eq!(
            err,
            InPlaceApplyError::BufferTooSmall {
                needed: 8,
                actual: 4
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn required_capacity_is_max_of_lengths() {
        let grow = DeltaScript::new(4, 10, vec![Command::add(0, vec![1; 10])]).unwrap();
        assert_eq!(required_capacity(&grow), 10);
        let shrink = DeltaScript::new(10, 4, vec![Command::copy(0, 0, 4)]).unwrap();
        assert_eq!(required_capacity(&shrink), 10);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        let script = DeltaScript::new(1, 1, vec![Command::copy(0, 0, 1)]).unwrap();
        let mut buf = vec![0u8; 1];
        let _ = apply_in_place_buffered(&script, &mut buf, 0);
    }
}
