//! The in-place executor: the paper's one device-side procedure (§4.1) —
//! apply the commands in order, moving each self-overlapping copy in the
//! safe direction — written once. [`execute`] drives a command source
//! (any iterator of `(index, `[`Op`]`)`) into a [`Sink`]; sinks cut
//! copies with [`Pieces`]. [`BufferSink`] is the plain buffer.

use ipr_delta::{Command, Copy};
use std::convert::Infallible;

/// The interval types a checking sink keeps its written set in.
pub use ipr_digraph::{Interval, IntervalSet};

/// One command as a sink sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<'a> {
    /// Copy `len` bytes from `from` to `to` (the ranges may overlap).
    Copy(&'a Copy),
    /// Write literal bytes at an offset: an add's data, or a stashed
    /// copy's bytes replayed from scratch.
    Add(u64, &'a [u8]),
}

impl<'a> Op<'a> {
    /// Bytes the command writes.
    pub(crate) fn len(&self) -> u64 {
        match self {
            Op::Copy(c) => c.len,
            Op::Add(_, data) => data.len() as u64,
        }
    }
}

impl<'a> From<&'a Command> for Op<'a> {
    fn from(cmd: &'a Command) -> Self {
        match cmd {
            Command::Copy(c) => Op::Copy(c),
            Command::Add(a) => Op::Add(a.to, &a.data),
        }
    }
}

/// Where an executor's commands land. An error is a sink-specific fault
/// (or a request to stop early); the executor stops at the first.
pub trait Sink {
    /// Why the sink refused a command.
    type Error;

    /// Performs copy number `index` of the application.
    fn copy(&mut self, index: usize, copy: &Copy) -> Result<(), Self::Error>;

    /// Writes `data` at offset `to` for command number `index`.
    fn add(&mut self, index: usize, to: u64, data: &[u8]) -> Result<(), Self::Error>;

    /// Completes the application after the last command.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// A slice of commands as a command source, indexed from `first`.
pub fn ops(commands: &[Command], first: usize) -> impl Iterator<Item = (usize, Op<'_>)> {
    (first..).zip(commands.iter().map(Op::from))
}

/// Hands one command to `sink`, returning what the sink returns.
pub fn step<S: Sink + ?Sized>(sink: &mut S, index: usize, op: Op<'_>) -> Result<(), S::Error> {
    match op {
        Op::Copy(c) => sink.copy(index, c),
        Op::Add(to, data) => sink.add(index, to, data),
    }
}

/// The executor: applies `ops` to `sink` in order under one `span`, then
/// finishes the sink.
///
/// With a recorder installed it adds the commands the sink accepted and
/// their bytes to `apply.commands` / `apply.bytes_moved`, so a resumed
/// application sums to the script's totals across calls; with none, the
/// loop counts nothing.
///
/// # Errors
///
/// The first error the sink returns; later commands are not applied.
pub fn execute<'a, S: Sink + ?Sized>(
    span: &'static str,
    ops: impl IntoIterator<Item = (usize, Op<'a>)>,
    sink: &mut S,
) -> Result<(), S::Error> {
    let _span = ipr_trace::span(span);
    let applied = if ipr_trace::enabled() {
        let (mut commands, mut bytes) = (0u64, 0u64);
        let applied = ops.into_iter().try_for_each(|(i, op)| {
            step(sink, i, op)?;
            commands += 1;
            bytes += op.len();
            Ok(())
        });
        ipr_trace::with(|r| {
            r.add("apply.commands", commands);
            r.add("apply.bytes_moved", bytes);
        });
        applied
    } else {
        ops.into_iter().try_for_each(|(i, op)| step(sink, i, op))
    };
    applied.and_then(|()| sink.finish())
}

/// The §4.1 copy step: cuts a command into pieces, in the order that
/// never reads a byte the command itself already overwrote — left to
/// right when `from >= to` (and for adds), right to left when
/// `from < to`. A piece is `(offset within the command, length)`, the
/// same offset for the read and the write; progress is counted from the
/// starting edge, so a journal can record it and resume from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pieces {
    to: u64,
    len: u64,
    done: u64,
    backward: bool,
}

impl Pieces {
    /// The pieces of `op` after its first `done` bytes (`<= len`) moved.
    #[must_use]
    pub fn new(op: Op<'_>, done: u64) -> Self {
        let (to, backward) = match op {
            Op::Copy(c) => (c.to, c.from < c.to),
            Op::Add(to, _) => (to, false),
        };
        Self {
            to,
            len: op.len(),
            done,
            backward,
        }
    }

    /// The next piece of at most `max >= 1` bytes; `None` once done.
    pub fn next_piece(&mut self, max: u64) -> Option<(u64, u64)> {
        let left = self.len - self.done;
        let n = left.min(max);
        if n == 0 {
            return None;
        }
        let offset = if self.backward { left - n } else { self.done };
        self.done += n;
        Some((offset, n))
    }

    /// The next piece whose write range stays inside one aligned
    /// `block`-byte block.
    pub fn next_in_block(&mut self, block: u64) -> Option<(u64, u64)> {
        let room = if self.backward {
            let end = self.to + self.len - self.done;
            end - end.saturating_sub(1) / block * block
        } else {
            block - (self.to + self.done) % block
        };
        self.next_piece(room)
    }
}

/// The plain sink: a buffer holding the reference in its first
/// `source_len` bytes, rebuilt in place. Copies move in [`Pieces`] of at
/// most `chunk` bytes — "a read/write buffer of any size" — each with
/// memmove semantics, so every chunk size gives the same bytes. The
/// caller checks the capacity first.
#[derive(Debug)]
pub struct BufferSink<'b> {
    buf: &'b mut [u8],
    chunk: u64,
}

impl<'b> BufferSink<'b> {
    /// A sink moving copies in pieces of at most `chunk` bytes
    /// (`u64::MAX`: whole copies). Panics if `chunk == 0`.
    pub fn new(buf: &'b mut [u8], chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Self { buf, chunk }
    }
}

impl Sink for BufferSink<'_> {
    type Error = Infallible;

    fn copy(&mut self, _: usize, c: &Copy) -> Result<(), Infallible> {
        let at = |offset: u64| usize::try_from(offset).expect("offset fits usize");
        let mut pieces = Pieces::new(Op::Copy(c), 0);
        while let Some((offset, n)) = pieces.next_piece(self.chunk) {
            let from = at(c.from + offset);
            self.buf.copy_within(from..from + at(n), at(c.to + offset));
        }
        Ok(())
    }

    fn add(&mut self, _: usize, to: u64, data: &[u8]) -> Result<(), Infallible> {
        let to = usize::try_from(to).expect("offset fits usize");
        self.buf[to..to + data.len()].copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pieces(op: Op<'_>, done: u64, max: u64) -> Vec<(u64, u64)> {
        let mut p = Pieces::new(op, done);
        std::iter::from_fn(|| p.next_piece(max)).collect()
    }

    #[test]
    fn copies_step_in_the_safe_direction() {
        let left = Copy {
            from: 4,
            to: 0,
            len: 10,
        };
        assert_eq!(pieces(Op::Copy(&left), 0, 4), [(0, 4), (4, 4), (8, 2)]);
        let right = Copy {
            from: 0,
            to: 4,
            len: 10,
        };
        assert_eq!(pieces(Op::Copy(&right), 0, 4), [(6, 4), (2, 4), (0, 2)]);
        assert_eq!(pieces(Op::Copy(&right), 4, 4), [(2, 4), (0, 2)]);
        assert_eq!(pieces(Op::Add(3, &[0; 5]), 2, 2), [(2, 2), (4, 1)]);
        assert_eq!(pieces(Op::Copy(&left), 10, 4), []);
    }

    #[test]
    fn block_pieces_never_straddle_a_block() {
        let right = Copy {
            from: 0,
            to: 5,
            len: 20,
        };
        let mut p = Pieces::new(Op::Copy(&right), 0);
        let got: Vec<_> = std::iter::from_fn(|| p.next_in_block(8)).collect();
        // Writes [5, 25): blocks [5,8) [8,16) [16,24) [24,25), last first.
        assert_eq!(got, [(19, 1), (11, 8), (3, 8), (0, 3)]);
        let mut p = Pieces::new(Op::Add(5, &[0; 20]), 0);
        let got: Vec<_> = std::iter::from_fn(|| p.next_in_block(8)).collect();
        assert_eq!(got, [(0, 3), (3, 8), (11, 8), (19, 1)]);
    }

    #[test]
    fn executor_counts_only_accepted_commands() {
        struct Refuse(usize);
        impl Refuse {
            fn at(&self, index: usize) -> Result<(), usize> {
                if index == self.0 {
                    Err(index)
                } else {
                    Ok(())
                }
            }
        }
        impl Sink for Refuse {
            type Error = usize;
            fn copy(&mut self, index: usize, _: &Copy) -> Result<(), usize> {
                self.at(index)
            }
            fn add(&mut self, index: usize, _: u64, _: &[u8]) -> Result<(), usize> {
                self.at(index)
            }
        }
        let commands = [
            Command::copy(0, 0, 4),
            Command::add(4, vec![1; 3]),
            Command::copy(0, 7, 2),
        ];
        let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
        {
            let _guard = ipr_trace::install(stats.clone());
            assert_eq!(
                execute("test.exec", ops(&commands, 0), &mut Refuse(2)),
                Err(2)
            );
        }
        let report = stats.report();
        assert_eq!(report.counter("apply.commands"), Some(2));
        assert_eq!(report.counter("apply.bytes_moved"), Some(7));
    }
}
