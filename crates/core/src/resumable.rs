//! Power-fail-safe, resumable in-place application.
//!
//! In-place reconstruction destroys the reference file as it runs, so an
//! interrupted update cannot simply restart from the beginning: the data
//! the early commands read is already gone. This module extends the
//! paper's applier with a small *journal* — the natural companion of
//! in-place patching in real update engines — so an application can be
//! suspended (or killed) at any point and resumed.
//!
//! Correctness argument:
//!
//! * Commands are applied serially in the converted (Equation 2) order,
//!   so a command's source bytes are intact until the command itself
//!   runs; the journal only needs intra-command progress.
//! * Within a copy, chunks are processed directionally (§4.1), so the
//!   not-yet-copied source suffix is never touched by completed chunks.
//! * A chunk interrupted *mid-write* cannot be safely re-executed when
//!   the copy self-overlaps closer than one chunk (its source may be
//!   half-overwritten), so every chunk is staged in the journal as a
//!   redo record before it touches the buffer: replaying the redo record
//!   is always safe and idempotent.
//!
//! The journal is plain data; a device would persist it (and the buffer
//! region it describes) to stable storage between steps. The simulation
//! in `ipr-device` drives exactly that protocol with crash injection.

use crate::apply::{check_capacity, InPlaceApplyError};
use crate::exec::{execute, ops, Op, Pieces, Sink};
use ipr_delta::DeltaScript;
use std::fmt;

/// Durable progress record for a resumable in-place application.
///
/// All fields are plain values so the journal can be serialized to a few
/// bytes of stable storage. A fresh journal starts at the first command.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// Index of the command currently being applied.
    command: usize,
    /// Bytes of the current command already applied (measured from the
    /// copy direction's starting edge).
    done: u64,
    /// Staged chunk that must be (re)written before anything else: the
    /// write offset and the exact bytes. Present iff a chunk was staged
    /// but its completion was not yet recorded.
    redo: Option<(u64, Vec<u8>)>,
    /// Wire bytes of the delta stream durably consumed when this
    /// journal was last recorded. Zero for a purely local apply; a
    /// streaming install records it so that power loss during a
    /// partially-downloaded delta resumes the transfer from here
    /// instead of byte 0.
    stream_offset: u64,
}

impl Journal {
    /// A journal positioned at the start of the script.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the command currently being applied.
    #[must_use]
    pub fn command_index(&self) -> usize {
        self.command
    }

    /// Bytes of the current command already applied.
    #[must_use]
    pub fn bytes_done_in_command(&self) -> u64 {
        self.done
    }

    /// Whether a staged chunk is pending replay.
    #[must_use]
    pub fn has_pending_chunk(&self) -> bool {
        self.redo.is_some()
    }

    /// The staged chunk pending replay, as `(write offset, data)`, if any.
    ///
    /// Fault-injection harnesses use this to simulate torn writes: any
    /// prefix of the chunk may have reached the buffer when power failed,
    /// and replay must overwrite the whole region regardless.
    #[must_use]
    pub fn pending_chunk(&self) -> Option<(u64, &[u8])> {
        self.redo.as_ref().map(|(to, data)| (*to, data.as_slice()))
    }

    /// Wire bytes of the delta stream durably consumed at this journal.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.stream_offset
    }

    /// Records streaming-install progress: `commands` commands fully
    /// applied to the buffer and `stream_offset` wire bytes durably
    /// consumed. Streaming installs apply whole commands per checkpoint,
    /// so intra-command state (`done`/`redo`) is cleared.
    pub fn record_stream_progress(&mut self, commands: usize, stream_offset: u64) {
        self.command = commands;
        self.done = 0;
        self.redo = None;
        self.stream_offset = stream_offset;
    }

    /// Serializes the journal for stable storage (fixed-width
    /// little-endian fields, CRC-32 sealed).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&(self.command as u64).to_le_bytes());
        out.extend_from_slice(&self.done.to_le_bytes());
        out.extend_from_slice(&self.stream_offset.to_le_bytes());
        match &self.redo {
            None => out.push(0),
            Some((to, data)) => {
                out.push(1);
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&(data.len() as u64).to_le_bytes());
                out.extend_from_slice(data);
            }
        }
        let crc = ipr_delta::checksum::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a journal written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`JournalDecodeError`] if the bytes are truncated, carry the
    /// wrong magic, or fail the CRC (torn journal write).
    pub fn decode(bytes: &[u8]) -> Result<Self, JournalDecodeError> {
        if bytes.len() < JOURNAL_MAGIC.len() + 4 {
            return Err(JournalDecodeError::Truncated);
        }
        if bytes[..4] != JOURNAL_MAGIC {
            return Err(JournalDecodeError::BadMagic);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let actual = ipr_delta::checksum::crc32(body);
        if expected != actual {
            return Err(JournalDecodeError::Checksum { expected, actual });
        }
        let mut at = 4usize;
        let read_u64 = |at: &mut usize| -> Result<u64, JournalDecodeError> {
            let end = at.checked_add(8).ok_or(JournalDecodeError::Truncated)?;
            let raw = body.get(*at..end).ok_or(JournalDecodeError::Truncated)?;
            *at = end;
            Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
        };
        let command = read_u64(&mut at)? as usize;
        let done = read_u64(&mut at)?;
        let stream_offset = read_u64(&mut at)?;
        let flag = *body.get(at).ok_or(JournalDecodeError::Truncated)?;
        at += 1;
        let redo = if flag == 0 {
            None
        } else {
            let to = read_u64(&mut at)?;
            let len = read_u64(&mut at)? as usize;
            let end = at.checked_add(len).ok_or(JournalDecodeError::Truncated)?;
            let data = body.get(at..end).ok_or(JournalDecodeError::Truncated)?;
            at = end;
            Some((to, data.to_vec()))
        };
        if at != body.len() {
            return Err(JournalDecodeError::Truncated);
        }
        Ok(Self {
            command,
            done,
            redo,
            stream_offset,
        })
    }
}

/// Magic prefix of a serialized [`Journal`].
const JOURNAL_MAGIC: [u8; 4] = *b"IPJ1";

/// Error deserializing a [`Journal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalDecodeError {
    /// The bytes end before the journal record does.
    Truncated,
    /// The bytes do not start with the journal magic.
    BadMagic,
    /// The CRC-32 seal does not match (torn or corrupted write).
    Checksum {
        /// CRC recorded in the journal.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
}

impl fmt::Display for JournalDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalDecodeError::Truncated => write!(f, "journal record truncated"),
            JournalDecodeError::BadMagic => write!(f, "not a journal record"),
            JournalDecodeError::Checksum { expected, actual } => {
                write!(
                    f,
                    "journal CRC mismatch: {expected:#010x} != {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for JournalDecodeError {}

/// Outcome of [`resume_in_place`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// The whole script has been applied; the buffer holds the version.
    Complete,
    /// The byte budget ran out; call again with the same journal.
    Suspended,
}

/// Error from resumable application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// Buffer too small (same condition as the plain applier).
    Apply(InPlaceApplyError),
    /// The journal does not match the script (command index out of
    /// range or intra-command offset past the command length).
    JournalMismatch {
        /// Command index recorded in the journal.
        command: usize,
        /// Number of commands in the script.
        commands: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Apply(e) => e.fmt(f),
            ResumeError::JournalMismatch { command, commands } => {
                write!(f, "journal points at command {command} of {commands}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<InPlaceApplyError> for ResumeError {
    fn from(e: InPlaceApplyError) -> Self {
        ResumeError::Apply(e)
    }
}

/// Applies `script` to `buf` in place, resuming from `journal`, staging
/// every chunk so the process may be interrupted *between any two
/// mutations* of `buf`/`journal` and later resumed with the same
/// arguments.
///
/// At most `max_bytes` payload bytes are applied before returning
/// [`Progress::Suspended`] (a budget of `u64::MAX` runs to completion);
/// budgets are a simulation stand-in for "the device lost power here".
///
/// `chunk_size` bounds the RAM the device needs beyond the buffer itself.
///
/// # Errors
///
/// [`ResumeError::Apply`] if the buffer is too small;
/// [`ResumeError::JournalMismatch`] if the journal was produced by a
/// different script.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::resumable::{resume_in_place, Journal, Progress};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = DeltaScript::new(4, 4, vec![
///     Command::copy(2, 0, 2),
///     Command::add(2, b"!!".to_vec()),
/// ])?;
/// let mut buf = b"abcd".to_vec();
/// let mut journal = Journal::new();
/// // Apply one byte at a time, "losing power" after each byte.
/// while resume_in_place(&script, &mut buf, &mut journal, 1, 1)? == Progress::Suspended {}
/// assert_eq!(&buf, b"cd!!");
/// # Ok(())
/// # }
/// ```
pub fn resume_in_place(
    script: &DeltaScript,
    buf: &mut [u8],
    journal: &mut Journal,
    chunk_size: usize,
    max_bytes: u64,
) -> Result<Progress, ResumeError> {
    resume_in_place_observed(script, buf, journal, chunk_size, max_bytes, &mut |_| {})
}

/// Like [`resume_in_place`], invoking `persist` at every durable point —
/// immediately after each journal update that a real device would flush
/// to stable storage (chunk staged; chunk completed).
///
/// Between two `persist` calls the buffer sees at most one chunk write,
/// and the staged redo record fully describes it, so a crash anywhere in
/// that window (including a torn, partially written chunk) is recovered
/// by replaying the redo record on resume. The fault-injection tests in
/// `ipr-device` snapshot state at every `persist` call and restart from
/// each of them.
///
/// # Errors
///
/// Same as [`resume_in_place`].
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn resume_in_place_observed(
    script: &DeltaScript,
    buf: &mut [u8],
    journal: &mut Journal,
    chunk_size: usize,
    max_bytes: u64,
    persist: &mut dyn FnMut(&Journal),
) -> Result<Progress, ResumeError> {
    assert!(chunk_size > 0, "chunk size must be positive");
    check_capacity(script, buf.len())?;
    let commands = script.commands();
    if journal.command > commands.len() {
        return Err(ResumeError::JournalMismatch {
            command: journal.command,
            commands: commands.len(),
        });
    }
    let _span = ipr_trace::span("apply.resumable");
    let first = journal.command;
    let mut sink = Journaled {
        buf,
        journal,
        chunk: chunk_size as u64,
        budget: max_bytes,
        persist,
    };
    // Recovery: a staged chunk may or may not have reached the buffer
    // (possibly torn). Replaying it is always safe — the record carries
    // the full data — and completing it is a single journal update.
    if sink.journal.redo.is_some() {
        ipr_trace::add("resumable.replays", 1);
        sink.budget = sink.budget.saturating_sub(sink.write_staged());
    }
    match execute("apply.resumable", ops(&commands[first..], first), &mut sink) {
        Ok(()) => Ok(Progress::Complete),
        Err(Halt::Suspended) => Ok(Progress::Suspended),
        Err(Halt::Mismatch) => Err(ResumeError::JournalMismatch {
            command: sink.journal.command,
            commands: commands.len(),
        }),
    }
}

/// Why the journaled sink stopped: the byte budget ran out, or the
/// journal's progress lies past the end of its command.
enum Halt {
    Suspended,
    Mismatch,
}

/// The journaled sink: each piece of a command is staged in the journal
/// as a redo record (durable point A), written, and recorded complete
/// (durable point B).
struct Journaled<'b, 'j, 'p> {
    buf: &'b mut [u8],
    journal: &'j mut Journal,
    chunk: u64,
    budget: u64,
    persist: &'p mut dyn FnMut(&Journal),
}

impl Journaled<'_, '_, '_> {
    /// Moves the journal's current command from the journal's progress,
    /// then advances the journal to the next command.
    fn command(&mut self, op: Op<'_>) -> Result<(), Halt> {
        if self.journal.done > op.len() {
            return Err(Halt::Mismatch);
        }
        let mut pieces = Pieces::new(op, self.journal.done);
        while let Some((offset, n)) = pieces.next_piece(self.chunk.min(self.budget)) {
            let (at, n) = (offset as usize, n as usize);
            let staged = match op {
                Op::Copy(c) => {
                    let from = c.from as usize + at;
                    (c.to + offset, self.buf[from..from + n].to_vec())
                }
                Op::Add(to, data) => (to + offset, data[at..at + n].to_vec()),
            };
            // Durable point A: the chunk is staged, the buffer untouched.
            self.journal.redo = Some(staged);
            (self.persist)(self.journal);
            ipr_trace::with(|r| {
                r.add("resumable.chunks", 1);
                r.add("resumable.chunk_bytes", n as u64);
            });
            self.budget -= self.write_staged();
        }
        if self.journal.done < op.len() {
            return Err(Halt::Suspended);
        }
        self.journal.command += 1;
        self.journal.done = 0;
        Ok(())
    }

    /// Writes the staged chunk and records it complete (durable point B);
    /// returns its length. A crash during the write (fully, partially or
    /// not at all) is recovered by replaying the staged record.
    fn write_staged(&mut self) -> u64 {
        let (to, data) = self.journal.redo.take().expect("a staged chunk");
        self.buf[to as usize..to as usize + data.len()].copy_from_slice(&data);
        self.journal.done += data.len() as u64;
        (self.persist)(self.journal);
        data.len() as u64
    }
}

impl Sink for Journaled<'_, '_, '_> {
    type Error = Halt;

    fn copy(&mut self, _: usize, copy: &ipr_delta::Copy) -> Result<(), Halt> {
        self.command(Op::Copy(copy))
    }

    fn add(&mut self, _: usize, to: u64, data: &[u8]) -> Result<(), Halt> {
        self.command(Op::Add(to, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_in_place, required_capacity};
    use crate::convert::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};
    use ipr_delta::Command;

    fn converted_pair() -> (DeltaScript, Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..4096u32).map(|i| (i * 29 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(777);
        version.extend_from_slice(&[9u8; 100]);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        (out.script, reference, version)
    }

    #[test]
    fn single_shot_matches_plain_applier() {
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut expected = reference.clone();
        expected.resize(cap, 0);
        apply_in_place(&script, &mut expected).unwrap();

        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal::new();
        let p = resume_in_place(&script, &mut buf, &mut journal, 4096, u64::MAX).unwrap();
        assert_eq!(p, Progress::Complete);
        assert_eq!(buf, expected);
        assert_eq!(&buf[..version.len()], &version[..]);
    }

    #[test]
    fn byte_budgets_resume_to_same_result() {
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        for budget in [1u64, 7, 100, 4097] {
            let mut buf = reference.clone();
            buf.resize(cap, 0);
            let mut journal = Journal::new();
            let mut rounds = 0;
            loop {
                match resume_in_place(&script, &mut buf, &mut journal, 64, budget).unwrap() {
                    Progress::Complete => break,
                    Progress::Suspended => rounds += 1,
                }
                assert!(rounds < 1_000_000, "no progress with budget {budget}");
            }
            assert_eq!(&buf[..version.len()], &version[..], "budget {budget}");
        }
    }

    #[test]
    fn crash_replay_of_staged_chunk_is_idempotent() {
        // Simulate the torn state: chunk staged in the journal and written
        // to the buffer, but `done` not advanced (the redo record kept).
        // Replaying must produce the same final bytes.
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal::new();
        // Advance a little.
        let _ = resume_in_place(&script, &mut buf, &mut journal, 64, 1000).unwrap();
        // Forge the torn state: stage the next chunk manually, "write" it,
        // but leave the redo record in place (as if we crashed between the
        // buffer write and the completion record).
        let cmd = &script.commands()[journal.command];
        let n = (cmd.len() - journal.done).min(64);
        if n > 0 {
            if let Command::Copy(c) = cmd {
                if c.from >= c.to {
                    let src = (c.from + journal.done) as usize;
                    let data = buf[src..src + n as usize].to_vec();
                    let to = c.to + journal.done;
                    buf[to as usize..(to + n) as usize].copy_from_slice(&data);
                    journal.redo = Some((to, data));
                }
            }
        }
        // Resume through the torn state to completion.
        let p = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap();
        assert_eq!(p, Progress::Complete);
        assert_eq!(&buf[..version.len()], &version[..]);
    }

    #[test]
    fn self_overlapping_copy_resumes_at_one_byte_chunks() {
        // from < to with distance 1: the hardest overlap. Chunked
        // right-to-left with per-chunk staging must still be exact.
        let script = DeltaScript::new(
            8,
            9,
            vec![Command::copy(0, 1, 8), Command::add(0, vec![0xAA])],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..8).collect();
        let mut expected = reference.clone();
        expected.resize(9, 0);
        apply_in_place(&script, &mut expected).unwrap();

        for budget in [1u64, 2, 3] {
            let mut buf = reference.clone();
            buf.resize(9, 0);
            let mut journal = Journal::new();
            while resume_in_place(&script, &mut buf, &mut journal, 1, budget).unwrap()
                == Progress::Suspended
            {}
            assert_eq!(buf, expected, "budget {budget}");
        }
    }

    #[test]
    fn journal_mismatch_detected() {
        let (script, reference, _) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal {
            command: script.len() + 5,
            ..Journal::default()
        };
        let err = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap_err();
        assert!(matches!(err, ResumeError::JournalMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn buffer_too_small_reported() {
        let (script, _, _) = converted_pair();
        let mut buf = vec![0u8; 3];
        let mut journal = Journal::new();
        let err = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap_err();
        assert!(matches!(err, ResumeError::Apply(_)));
    }

    #[test]
    fn journal_accessors() {
        let j = Journal::new();
        assert_eq!(j.command_index(), 0);
        assert_eq!(j.bytes_done_in_command(), 0);
        assert!(!j.has_pending_chunk());
        assert_eq!(j.stream_offset(), 0);
    }

    #[test]
    fn journal_round_trips_through_serialization() {
        // Plain, streaming, and torn-write (redo staged) journals all
        // survive encode/decode byte-exactly.
        let mut plain = Journal::new();
        plain.command = 7;
        plain.done = 123;
        let mut streaming = Journal::new();
        streaming.record_stream_progress(42, 9_876_543);
        let torn = Journal {
            command: 3,
            done: 64,
            redo: Some((1024, vec![0xAB; 33])),
            stream_offset: 555,
        };
        for j in [plain, streaming, torn] {
            assert_eq!(Journal::decode(&j.encode()), Ok(j));
        }
    }

    #[test]
    fn journal_decode_rejects_corruption() {
        let mut j = Journal::new();
        j.record_stream_progress(9, 1000);
        let bytes = j.encode();
        // Cutting the tail lands in the CRC seal: detected as a
        // checksum failure (the seal covers the length implicitly).
        assert!(matches!(
            Journal::decode(&bytes[..bytes.len() - 1]),
            Err(JournalDecodeError::Checksum { .. })
        ));
        assert_eq!(Journal::decode(b"xx"), Err(JournalDecodeError::Truncated));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Journal::decode(&wrong_magic),
            Err(JournalDecodeError::BadMagic)
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            Journal::decode(&flipped),
            Err(JournalDecodeError::Checksum { .. })
        ));
        assert!(!Journal::decode(&flipped)
            .unwrap_err()
            .to_string()
            .is_empty());
    }

    #[test]
    fn record_stream_progress_clears_intra_command_state() {
        let mut j = Journal {
            command: 2,
            done: 10,
            redo: Some((5, vec![1, 2, 3])),
            stream_offset: 0,
        };
        j.record_stream_progress(4, 200);
        assert_eq!(j.command_index(), 4);
        assert_eq!(j.bytes_done_in_command(), 0);
        assert!(!j.has_pending_chunk());
        assert_eq!(j.stream_offset(), 200);
    }
}
