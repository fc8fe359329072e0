//! Wave-parallel in-place application.
//!
//! [`ParallelSchedule`](crate::ParallelSchedule) layers the CRWI conflict
//! DAG: within one wave no command reads what another command of the same
//! wave writes (a conflict edge would have forced them onto different
//! levels), and the script invariant makes all write intervals pairwise
//! disjoint. Those two facts together let a wave run on several threads
//! with **no locks and no `unsafe`**: the buffer is carved into disjoint
//! `&mut` write slices (one per command) plus immutable gap slices via a
//! chain of `split_at_mut`, and every read either
//!
//! * lies entirely inside one gap (it intersects no write of the wave, and
//!   gaps are the maximal runs between sorted disjoint writes — a
//!   contiguous interval cannot hop a gap without crossing the write
//!   between), or
//! * intersects a write of the wave — by the layering argument that write
//!   can only be the command's *own* (a self-overlapping copy), and the
//!   read is staged through a heap snapshot taken before the wave starts.
//!
//! Two read strategies are offered ([`ReadMode`]):
//!
//! * **`ZeroCopy`** (default) snapshots only reads that do intersect the
//!   wave's write set — the rare self-overlapping copies. Everything else
//!   reads the buffer directly.
//! * **`Snapshot`** copies every read to the heap first. It moves every
//!   byte twice but makes each command's source trivially independent of
//!   the buffer, which is the simpler argument and a useful baseline; the
//!   benchmarks quantify the gap.
//!
//! Waves whose total payload is below
//! [`ParallelConfig::serial_wave_bytes`] are applied inline on the calling
//! thread: spawning threads to move a few kilobytes costs more than the
//! move. Typical converted deltas front-load nearly all bytes into wave 0
//! (see `CrwiStats`), so this hybrid keeps the scheduling overhead off the
//! long tail of tiny trailing waves.

use crate::apply::{check_capacity, InPlaceApplyError};
use crate::exec::{step, BufferSink, Op};
use crate::schedule::ParallelSchedule;
use ipr_delta::{Command, DeltaScript};
use std::fmt;

/// Error returned by the parallel applier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelApplyError {
    /// The buffer must hold `max(source_len, target_len)` bytes.
    BufferTooSmall {
        /// Required capacity.
        needed: u64,
        /// Supplied capacity.
        actual: u64,
    },
    /// The script violates Equation 2; no wave schedule exists. Convert it
    /// with [`convert_to_in_place`](crate::convert_to_in_place) first.
    UnsafeScript,
    /// The supplied schedule does not cover the script's commands exactly
    /// once each (it was built for a different script).
    ScheduleMismatch {
        /// Commands in the script.
        script_commands: usize,
        /// Commands covered by the schedule.
        schedule_commands: usize,
    },
}

impl fmt::Display for ParallelApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelApplyError::BufferTooSmall { needed, actual } => {
                write!(f, "in-place buffer holds {actual} bytes, need {needed}")
            }
            ParallelApplyError::UnsafeScript => {
                write!(
                    f,
                    "script violates Equation 2; convert before applying in place"
                )
            }
            ParallelApplyError::ScheduleMismatch {
                script_commands,
                schedule_commands,
            } => write!(
                f,
                "schedule covers {schedule_commands} commands, script has {script_commands}"
            ),
        }
    }
}

impl std::error::Error for ParallelApplyError {}

/// How a wave's copy commands source their bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Snapshot every read to the heap before the wave writes. Each byte
    /// moves twice; correctness is immediate.
    Snapshot,
    /// Read the buffer directly; snapshot only reads that intersect the
    /// wave's own write set (self-overlapping copies). Most bytes move
    /// once.
    #[default]
    ZeroCopy,
}

/// Tuning knobs for [`apply_in_place_parallel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count; `0` means [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Read strategy; see [`ReadMode`].
    pub read_mode: ReadMode,
    /// Waves moving fewer payload bytes than this run inline on the
    /// calling thread instead of fanning out.
    pub serial_wave_bytes: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            read_mode: ReadMode::default(),
            serial_wave_bytes: 64 * 1024,
        }
    }
}

impl ParallelConfig {
    /// A config pinned to `threads` workers, other knobs at defaults.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The worker count actually used: `threads`, or the host's available
    /// parallelism when `threads == 0` (minimum 1).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

/// What the parallel applier did, for instrumentation and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelApplyReport {
    /// Waves executed.
    pub waves: usize,
    /// Waves that fanned out to worker threads (the rest ran inline).
    pub parallel_waves: usize,
    /// Bytes staged through heap snapshots across all waves.
    pub snapshot_bytes: u64,
    /// Effective worker count.
    pub threads: usize,
}

/// Applies `script` to `buf` in place using wave-parallel execution.
///
/// Semantically identical to [`apply_in_place`](crate::apply_in_place) for
/// every in-place-safe script: `buf` must contain the reference file in
/// its first `source_len` bytes and hold `max(source_len, target_len)`
/// bytes; afterwards its first `target_len` bytes are the version file.
/// Unlike the serial applier, an unsafe script is *rejected* here (the
/// wave planner detects it) instead of silently corrupting.
///
/// # Errors
///
/// [`ParallelApplyError::BufferTooSmall`] if `buf` cannot hold both file
/// versions; [`ParallelApplyError::UnsafeScript`] if the script violates
/// Equation 2.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{Differ, GreedyDiffer};
/// use ipr_core::{apply_in_place_parallel, convert_to_in_place, ConversionConfig, ParallelConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reference: Vec<u8> = (0..=255).cycle().take(8192).collect();
/// let mut version = reference.clone();
/// version.rotate_left(1024);
///
/// let script = GreedyDiffer::default().diff(&reference, &version);
/// let outcome = convert_to_in_place(&script, &reference, &ConversionConfig::default())?;
///
/// let mut buf = reference.clone();
/// apply_in_place_parallel(&outcome.script, &mut buf, &ParallelConfig::with_threads(4))?;
/// assert_eq!(buf, version);
/// # Ok(())
/// # }
/// ```
pub fn apply_in_place_parallel(
    script: &DeltaScript,
    buf: &mut [u8],
    config: &ParallelConfig,
) -> Result<ParallelApplyReport, ParallelApplyError> {
    let plan = ParallelSchedule::plan(script).ok_or(ParallelApplyError::UnsafeScript)?;
    apply_schedule_parallel(script, &plan, buf, config)
}

/// Like [`apply_in_place_parallel`] with a precomputed schedule, so a plan
/// can be reused across many applications of the same delta (or permuted
/// by tests to prove intra-wave order independence).
///
/// # Errors
///
/// [`ParallelApplyError::BufferTooSmall`] as above, and
/// [`ParallelApplyError::ScheduleMismatch`] if `plan` does not schedule
/// exactly the commands of `script` once each.
pub fn apply_schedule_parallel(
    script: &DeltaScript,
    plan: &ParallelSchedule,
    buf: &mut [u8],
    config: &ParallelConfig,
) -> Result<ParallelApplyReport, ParallelApplyError> {
    check_capacity(script, buf.len()).map_err(
        |InPlaceApplyError::BufferTooSmall { needed, actual }| ParallelApplyError::BufferTooSmall {
            needed,
            actual,
        },
    )?;
    // Every schedule is an exact cover of its own script's commands (the
    // planner builds it so, and permuting within waves keeps it so), so a
    // plan covers `script` exactly when it has as many commands.
    if plan.commands != script.len() {
        return Err(ParallelApplyError::ScheduleMismatch {
            script_commands: script.len(),
            schedule_commands: plan.commands,
        });
    }

    let _span = ipr_trace::span("apply.parallel");
    let threads = config.effective_threads().max(1);
    let mut report = ParallelApplyReport {
        waves: plan.wave_count(),
        parallel_waves: 0,
        snapshot_bytes: 0,
        threads,
    };
    let traced = ipr_trace::enabled();
    for wave in plan.waves() {
        let wave_start = traced.then(std::time::Instant::now);
        apply_wave(script, wave, buf, threads, config, &mut report);
        if let Some(start) = wave_start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ipr_trace::observe("apply.wave_ns", nanos);
        }
    }
    if traced {
        let bytes: u64 = script.commands().iter().map(Command::len).sum();
        ipr_trace::with(|r| {
            r.add("apply.commands", script.len() as u64);
            r.add("apply.bytes_moved", bytes);
            r.add("apply.waves", report.waves as u64);
            r.add("apply.parallel_waves", report.parallel_waves as u64);
            r.add("apply.snapshot_bytes", report.snapshot_bytes);
            r.gauge("apply.threads", report.threads as u64);
        });
    }
    Ok(report)
}

/// One command's work, resolved before the wave's buffer is carved.
enum PendingSrc {
    /// Copy whose read intersects no wave write: read the buffer directly
    /// through the gap partition. Fields are the absolute read range.
    Shared(usize, usize),
    /// Read staged through the wave's snapshot queue (one entry per
    /// staged read, consumed in wave order).
    Snapshot,
    /// Add command: bytes come from the script.
    AddData,
}

/// One command's work after carving: a disjoint destination plus bytes to
/// fill it with. Safe to execute concurrently with any other job of the
/// same wave.
struct Job<'w> {
    dst: &'w mut [u8],
    src: JobSrc<'w>,
}

enum JobSrc<'w> {
    Borrowed(&'w [u8]),
    Owned(Vec<u8>),
}

impl Job<'_> {
    fn run(self) {
        ipr_trace::with(|r| {
            r.add("apply.jobs", 1);
            r.add("apply.job_bytes", self.dst.len() as u64);
        });
        match self.src {
            JobSrc::Borrowed(s) => self.dst.copy_from_slice(s),
            JobSrc::Owned(v) => self.dst.copy_from_slice(&v),
        }
    }
}

/// Applies one wave, fanning out to threads when it pays.
fn apply_wave(
    script: &DeltaScript,
    wave: &[usize],
    buf: &mut [u8],
    threads: usize,
    config: &ParallelConfig,
    report: &mut ParallelApplyReport,
) {
    let cmds = script.commands();
    let wave_bytes: u64 = wave.iter().map(|&i| cmds[i].len()).sum();
    if threads == 1 || wave.len() == 1 || wave_bytes < config.serial_wave_bytes as u64 {
        apply_wave_serial(cmds, wave, buf);
        return;
    }
    report.parallel_waves += 1;

    // Sort the wave's commands by write offset; writes are pairwise
    // disjoint (DeltaScript invariant), so this is also end order.
    let mut order: Vec<usize> = wave.to_vec();
    order.sort_unstable_by_key(|&i| cmds[i].to());
    let writes: Vec<(usize, usize)> = order
        .iter()
        .map(|&i| {
            let r = cmds[i].write_interval().as_usize_range();
            (r.start, r.end - r.start)
        })
        .collect();

    // Phase 1 (buffer still shared): decide each command's source and take
    // the snapshots. In ZeroCopy mode only reads intersecting the wave's
    // write set — necessarily the command's own write, per the layering
    // argument — are staged; Snapshot mode stages every copy read.
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let pending: Vec<PendingSrc> = order
        .iter()
        .map(|&i| match cmds[i].read_interval() {
            None => PendingSrc::AddData,
            Some(r) => {
                let rr = r.as_usize_range();
                let (rs, rl) = (rr.start, rr.end - rr.start);
                let must_snapshot = match config.read_mode {
                    ReadMode::Snapshot => true,
                    ReadMode::ZeroCopy => intersects_any(&writes, rs, rl),
                };
                if must_snapshot {
                    report.snapshot_bytes += rl as u64;
                    snapshots.push(buf[rs..rs + rl].to_vec());
                    PendingSrc::Snapshot
                } else {
                    PendingSrc::Shared(rs, rl)
                }
            }
        })
        .collect();

    // Phase 2: carve the buffer into per-command `&mut` write slices and
    // immutable gaps, resolve shared reads into gap subslices.
    let (dsts, gaps) = partition_writes(buf, &writes);
    let mut snapshots = snapshots.into_iter();
    let jobs: Vec<Job<'_>> = dsts
        .into_iter()
        .zip(pending)
        .zip(&order)
        .map(|((dst, src), &i)| {
            let src = match src {
                PendingSrc::AddData => match &cmds[i] {
                    Command::Add(a) => JobSrc::Borrowed(&a.data[..]),
                    Command::Copy(_) => unreachable!("adds have no read interval"),
                },
                PendingSrc::Snapshot => {
                    JobSrc::Owned(snapshots.next().expect("one snapshot per staged read"))
                }
                PendingSrc::Shared(rs, rl) => JobSrc::Borrowed(resolve_in_gaps(&gaps, rs, rl)),
            };
            Job { dst, src }
        })
        .collect();

    // Phase 3: balance jobs across workers (greedy LPT by payload size)
    // and execute. The calling thread takes one bucket itself. Workers
    // re-install the caller's recorder so their counters aggregate into
    // the same report (recorders are installed per thread).
    let recorder = ipr_trace::installed();
    let buckets = balance(jobs, threads);
    std::thread::scope(|s| {
        let mut rest = buckets.into_iter();
        let own = rest.next();
        for bucket in rest {
            let recorder = recorder.clone();
            s.spawn(move || {
                let _guard = recorder.map(ipr_trace::install);
                for job in bucket {
                    job.run();
                }
            });
        }
        if let Some(bucket) = own {
            for job in bucket {
                job.run();
            }
        }
    });
}

/// Applies a wave on the calling thread, in the order given. Correct in
/// *any* intra-wave order: no command of a wave reads another same-wave
/// command's write, and a self-overlapping copy takes the §4.1 step.
fn apply_wave_serial(cmds: &[Command], wave: &[usize], buf: &mut [u8]) {
    let mut sink = BufferSink::new(buf, u64::MAX);
    for &i in wave {
        let Ok(()) = step(&mut sink, i, Op::from(&cmds[i]));
    }
}

/// Does `[rs, rs + rl)` intersect any of the sorted disjoint `writes`?
fn intersects_any(writes: &[(usize, usize)], rs: usize, rl: usize) -> bool {
    // Disjoint + sorted by start means also sorted by end: binary search
    // for the first write ending after the read starts.
    let idx = writes.partition_point(|&(s, l)| s + l <= rs);
    idx < writes.len() && writes[idx].0 < rs + rl
}

/// An immutable run of the buffer between two wave writes: its absolute
/// start offset and its bytes.
type Gap<'w> = (usize, &'w [u8]);

/// Carves `buf` into one `&mut` slice per write plus the immutable gaps
/// between them, by chaining `split_at_mut`. `writes` must be sorted and
/// pairwise disjoint.
fn partition_writes<'w>(
    buf: &'w mut [u8],
    writes: &[(usize, usize)],
) -> (Vec<&'w mut [u8]>, Vec<Gap<'w>>) {
    let mut dsts = Vec::with_capacity(writes.len());
    let mut gaps = Vec::with_capacity(writes.len() + 1);
    let mut rest: &'w mut [u8] = buf;
    let mut pos = 0usize;
    for &(start, len) in writes {
        let (gap, tail) = rest.split_at_mut(start - pos);
        if !gap.is_empty() {
            let gap: &'w [u8] = gap;
            gaps.push((pos, gap));
        }
        let (dst, tail) = tail.split_at_mut(len);
        dsts.push(dst);
        rest = tail;
        pos = start + len;
    }
    if !rest.is_empty() {
        let tail: &'w [u8] = rest;
        gaps.push((pos, tail));
    }
    (dsts, gaps)
}

/// Locates `[rs, rs + rl)` inside the gap partition. A read that
/// intersects no write of the wave lies entirely within one gap: gaps are
/// the maximal runs between sorted disjoint writes, and a contiguous
/// interval cannot span two gaps without crossing the write between them.
fn resolve_in_gaps<'w>(gaps: &[Gap<'w>], rs: usize, rl: usize) -> &'w [u8] {
    let idx = gaps
        .partition_point(|&(gs, _)| gs <= rs)
        .checked_sub(1)
        .expect("read starts inside some gap");
    let (gs, bytes) = gaps[idx];
    &bytes[rs - gs..rs - gs + rl]
}

/// Distributes jobs over at most `threads` buckets, greedily assigning
/// the largest payloads first to the least-loaded bucket (LPT).
fn balance(mut jobs: Vec<Job<'_>>, threads: usize) -> Vec<Vec<Job<'_>>> {
    let n = threads.min(jobs.len()).max(1);
    jobs.sort_by_key(|j| std::cmp::Reverse(j.dst.len()));
    let mut buckets: Vec<Vec<Job<'_>>> = (0..n).map(|_| Vec::new()).collect();
    let mut loads = vec![0usize; n];
    for job in jobs {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .map(|(i, _)| i)
            .expect("at least one bucket");
        loads[lightest] += job.dst.len();
        buckets[lightest].push(job);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_in_place, required_capacity};
    use crate::convert::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};

    /// A config that forces the parallel machinery even for tiny waves on
    /// a single-core host.
    fn eager(threads: usize, read_mode: ReadMode) -> ParallelConfig {
        ParallelConfig {
            threads,
            read_mode,
            serial_wave_bytes: 0,
        }
    }

    fn corpus_pair(n: u32, rot: usize) -> (Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(rot);
        version.extend_from_slice(&[42u8; 777]);
        (reference, version)
    }

    fn converted(reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = GreedyDiffer::default().diff(reference, version);
        convert_to_in_place(&script, reference, &ConversionConfig::default())
            .unwrap()
            .script
    }

    fn run(script: &DeltaScript, reference: &[u8], config: &ParallelConfig) -> Vec<u8> {
        let mut buf = reference.to_vec();
        buf.resize(usize::try_from(required_capacity(script)).unwrap(), 0);
        apply_in_place_parallel(script, &mut buf, config).unwrap();
        buf.truncate(usize::try_from(script.target_len()).unwrap());
        buf
    }

    #[test]
    fn matches_serial_across_threads_and_modes() {
        let (reference, version) = corpus_pair(60_000, 13_337);
        let script = converted(&reference, &version);
        let mut serial = reference.clone();
        serial.resize(usize::try_from(required_capacity(&script)).unwrap(), 0);
        apply_in_place(&script, &mut serial).unwrap();
        serial.truncate(version.len());
        assert_eq!(serial, version, "serial applier is the oracle");
        for threads in [1, 2, 3, 4, 8] {
            for mode in [ReadMode::Snapshot, ReadMode::ZeroCopy] {
                assert_eq!(
                    run(&script, &reference, &eager(threads, mode)),
                    version,
                    "threads={threads} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn default_config_matches_too() {
        let (reference, version) = corpus_pair(20_000, 7_001);
        let script = converted(&reference, &version);
        assert_eq!(
            run(&script, &reference, &ParallelConfig::default()),
            version
        );
    }

    #[test]
    fn all_adds_script() {
        let version = vec![9u8; 4096];
        let script =
            DeltaScript::new(16, 4096, vec![ipr_delta::Command::add(0, version.clone())]).unwrap();
        let reference = vec![1u8; 16];
        assert_eq!(
            run(&script, &reference, &eager(4, ReadMode::ZeroCopy)),
            version
        );
    }

    #[test]
    fn self_overlapping_copy_snapshots_in_zero_copy_mode() {
        // One big self-overlapping copy plus a disjoint one, forced
        // through the parallel path. (An add fills the remaining target
        // bytes; it lands in its own final wave.)
        let script = DeltaScript::new(
            64,
            64,
            vec![
                ipr_delta::Command::copy(4, 0, 32), // read [4,36) write [0,32): self-overlap
                ipr_delta::Command::copy(40, 56, 8), // read [40,48) write [56,64): disjoint
                ipr_delta::Command::add(32, vec![5; 24]),
            ],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..64).collect();
        let mut expected = reference.clone();
        apply_in_place(&script, &mut expected).unwrap();

        let mut buf = reference.clone();
        let report =
            apply_in_place_parallel(&script, &mut buf, &eager(2, ReadMode::ZeroCopy)).unwrap();
        assert_eq!(buf, expected);
        assert_eq!(report.snapshot_bytes, 32, "only the self-overlap staged");

        let mut buf = reference.clone();
        let report =
            apply_in_place_parallel(&script, &mut buf, &eager(2, ReadMode::Snapshot)).unwrap();
        assert_eq!(buf, expected);
        assert_eq!(report.snapshot_bytes, 40, "snapshot mode stages every read");
    }

    #[test]
    fn permuted_schedules_apply_identically() {
        let (reference, version) = corpus_pair(30_000, 4_242);
        let script = converted(&reference, &version);
        let plan = ParallelSchedule::plan(&script).unwrap();
        for seed in 0..4u64 {
            let shuffled = plan.permuted_within_waves(seed);
            let mut buf = reference.clone();
            buf.resize(usize::try_from(required_capacity(&script)).unwrap(), 0);
            apply_schedule_parallel(&script, &shuffled, &mut buf, &eager(3, ReadMode::ZeroCopy))
                .unwrap();
            buf.truncate(version.len());
            assert_eq!(buf, version, "seed {seed}");
        }
    }

    #[test]
    fn unsafe_script_rejected() {
        let script = DeltaScript::new(
            16,
            16,
            vec![
                ipr_delta::Command::copy(0, 8, 8),
                ipr_delta::Command::copy(8, 0, 8),
            ],
        )
        .unwrap();
        let mut buf = vec![0u8; 16];
        assert_eq!(
            apply_in_place_parallel(&script, &mut buf, &ParallelConfig::default()),
            Err(ParallelApplyError::UnsafeScript)
        );
    }

    #[test]
    fn buffer_too_small_rejected() {
        let script = DeltaScript::new(8, 8, vec![ipr_delta::Command::copy(0, 0, 8)]).unwrap();
        let mut buf = vec![0u8; 4];
        let err = apply_in_place_parallel(&script, &mut buf, &ParallelConfig::default());
        assert_eq!(
            err,
            Err(ParallelApplyError::BufferTooSmall {
                needed: 8,
                actual: 4
            })
        );
        assert!(!err.unwrap_err().to_string().is_empty());
    }

    #[test]
    fn foreign_schedule_rejected() {
        let (reference, version) = corpus_pair(10_000, 999);
        let script = converted(&reference, &version);
        let other = DeltaScript::new(8, 8, vec![ipr_delta::Command::copy(0, 0, 8)]).unwrap();
        let other_plan = ParallelSchedule::plan(&other).unwrap();
        let mut buf = reference.clone();
        buf.resize(usize::try_from(required_capacity(&script)).unwrap(), 0);
        match apply_schedule_parallel(&script, &other_plan, &mut buf, &ParallelConfig::default()) {
            Err(ParallelApplyError::ScheduleMismatch { .. }) => {}
            other => panic!("expected ScheduleMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_script_is_a_no_op() {
        let script = DeltaScript::new(4, 0, vec![]).unwrap();
        let mut buf = vec![1u8, 2, 3, 4];
        let report =
            apply_in_place_parallel(&script, &mut buf, &ParallelConfig::default()).unwrap();
        assert_eq!(report.waves, 0);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn report_counts_parallel_waves() {
        let (reference, version) = corpus_pair(50_000, 11_111);
        let script = converted(&reference, &version);
        let mut buf = reference.clone();
        buf.resize(usize::try_from(required_capacity(&script)).unwrap(), 0);
        let report =
            apply_in_place_parallel(&script, &mut buf, &eager(4, ReadMode::ZeroCopy)).unwrap();
        assert!(report.waves >= 1);
        assert!(report.parallel_waves <= report.waves);
        assert_eq!(report.threads, 4);
        // With the threshold at 0, every multi-command wave fans out.
        let plan = ParallelSchedule::plan(&script).unwrap();
        let multi = plan.waves().iter().filter(|w| w.len() > 1).count();
        assert_eq!(report.parallel_waves, multi);
    }

    #[test]
    fn serial_threshold_keeps_small_waves_inline() {
        let (reference, version) = corpus_pair(5_000, 1_000);
        let script = converted(&reference, &version);
        let mut buf = reference.clone();
        buf.resize(usize::try_from(required_capacity(&script)).unwrap(), 0);
        let config = ParallelConfig {
            threads: 4,
            read_mode: ReadMode::ZeroCopy,
            serial_wave_bytes: usize::MAX,
        };
        let report = apply_in_place_parallel(&script, &mut buf, &config).unwrap();
        assert_eq!(report.parallel_waves, 0);
        assert_eq!(report.snapshot_bytes, 0);
        buf.truncate(version.len());
        assert_eq!(buf, version);
    }

    #[test]
    fn partition_tiles_exactly() {
        let mut buf: Vec<u8> = (0u8..32).collect();
        let writes = [(4usize, 4usize), (12, 8), (28, 4)];
        let (dsts, gaps) = partition_writes(&mut buf, &writes);
        assert_eq!(dsts.iter().map(|d| d.len()).collect::<Vec<_>>(), [4, 8, 4]);
        assert_eq!(
            gaps.iter().map(|&(s, g)| (s, g.len())).collect::<Vec<_>>(),
            [(0, 4), (8, 4), (20, 8)]
        );
        // Shared reads resolve to the right bytes.
        assert_eq!(resolve_in_gaps(&gaps, 21, 3), &[21, 22, 23]);
        assert_eq!(resolve_in_gaps(&gaps, 0, 4), &[0, 1, 2, 3]);
    }

    #[test]
    fn intersection_probe() {
        let writes = [(4usize, 4usize), (12, 8)];
        assert!(intersects_any(&writes, 0, 5));
        assert!(intersects_any(&writes, 7, 1));
        assert!(intersects_any(&writes, 10, 3));
        assert!(intersects_any(&writes, 19, 10));
        assert!(!intersects_any(&writes, 0, 4));
        assert!(!intersects_any(&writes, 8, 4));
        assert!(!intersects_any(&writes, 20, 100));
    }

    #[test]
    fn effective_threads_floor() {
        assert!(ParallelConfig::default().effective_threads() >= 1);
        assert_eq!(ParallelConfig::with_threads(6).effective_threads(), 6);
    }
}
