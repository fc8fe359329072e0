//! A simulated storage-constrained network device.
//!
//! The paper's motivation: PDAs, set-top boxes and sensors that cannot
//! hold two file versions at once. [`Device`] models exactly that — a
//! fixed-capacity storage region and *no* scratch buffer — and adds what
//! real update engines add on top: a run-time write-before-read fault
//! detector, so applying a delta that violates Equation 2 fails loudly
//! instead of silently corrupting the image.

use ipr_core::exec::{self, execute, ops, BufferSink, Interval, IntervalSet, Op, Sink};
use ipr_core::resumable::{resume_in_place, Journal, Progress};
use ipr_core::spill::{SpillApplyError, Stash};
use ipr_delta::{Command, Copy, DeltaScript};
use std::fmt;

/// Error returned by device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The image or update does not fit in device storage.
    CapacityExceeded {
        /// Bytes required.
        needed: u64,
        /// Device storage size.
        capacity: u64,
    },
    /// A copy command tried to read a region an earlier command already
    /// overwrote — the delta is not in-place reconstructible in this
    /// order.
    WriteBeforeRead {
        /// Index of the faulting command in application order.
        command: usize,
        /// First already-written offset the command tried to read.
        offset: u64,
    },
    /// No image has been flashed yet.
    NotFlashed,
    /// A resumable update's journal does not match its script.
    Resume(ipr_core::resumable::ResumeError),
    /// A streamed command is malformed: it reads or writes outside the
    /// declared dimensions, or overlaps an earlier command's write.
    InvalidCommand {
        /// Index (application order) of the offending command.
        command: usize,
    },
    /// A streamed update ended before covering the declared target.
    IncompleteUpdate {
        /// Bytes covered by the applied commands.
        covered: u64,
        /// Declared target length.
        target_len: u64,
    },
    /// A spilled update's stash metadata is unusable: an index that
    /// names no copy command, or stashed copies needing more scratch than
    /// the budget.
    Spill(SpillApplyError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::CapacityExceeded { needed, capacity } => {
                write!(f, "update needs {needed} bytes, device has {capacity}")
            }
            DeviceError::WriteBeforeRead { command, offset } => {
                write!(
                    f,
                    "command {command} reads offset {offset} after it was overwritten"
                )
            }
            DeviceError::NotFlashed => write!(f, "no image installed on the device"),
            DeviceError::Resume(e) => write!(f, "resumable update failed: {e}"),
            DeviceError::InvalidCommand { command } => {
                write!(f, "streamed command {command} is malformed")
            }
            DeviceError::IncompleteUpdate {
                covered,
                target_len,
            } => {
                write!(f, "update covered {covered} of {target_len} target bytes")
            }
            DeviceError::Spill(e) => write!(f, "spilled update rejected: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Resume(e) => Some(e),
            DeviceError::Spill(e) => Some(e),
            _ => None,
        }
    }
}

/// Statistics from one in-place update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Commands applied.
    pub commands: usize,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes read from storage (copy sources).
    pub bytes_read: u64,
    /// Scratch bytes allocated beyond device storage — always 0; kept in
    /// the report to make the paper's headline property auditable.
    pub scratch_bytes: u64,
}

/// A fixed-capacity device holding one firmware image.
///
/// # Example
///
/// ```
/// use ipr_device::Device;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Device::new(1024);
/// dev.flash(b"firmware v1")?;
/// assert_eq!(dev.image(), b"firmware v1");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    storage: Vec<u8>,
    image_len: usize,
    flashed: bool,
}

impl Device {
    /// Creates a device with `capacity` bytes of storage.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            storage: vec![0xff; capacity], // erased flash reads 0xff
            image_len: 0,
            flashed: false,
        }
    }

    /// Storage capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.storage.len() as u64
    }

    /// Installs a full image, replacing any previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CapacityExceeded`] if the image does not fit.
    pub fn flash(&mut self, image: &[u8]) -> Result<(), DeviceError> {
        if image.len() > self.storage.len() {
            return Err(DeviceError::CapacityExceeded {
                needed: image.len() as u64,
                capacity: self.capacity(),
            });
        }
        self.storage[..image.len()].copy_from_slice(image);
        self.image_len = image.len();
        self.flashed = true;
        Ok(())
    }

    /// The currently installed image.
    ///
    /// Empty if nothing has been flashed.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.storage[..self.image_len]
    }

    /// The raw flash contents, full capacity. During an interrupted
    /// update this is the durable hybrid of old and new image that a
    /// resume checkpoint describes — persist it alongside the
    /// checkpoint to survive a power cycle of the simulator itself.
    #[must_use]
    pub fn storage(&self) -> &[u8] {
        &self.storage
    }

    /// Applies a delta update in place, *with* run-time write-before-read
    /// fault detection.
    ///
    /// The script's commands run through one [`UpdateSession`]
    /// ([`Device::begin_update`], then [`UpdateSession::apply_command`]
    /// for each command, then [`UpdateSession::commit`]): before each
    /// copy, its read interval is checked against the set of
    /// already-written bytes. A script produced by
    /// [`convert_to_in_place`](ipr_core::convert_to_in_place) always
    /// passes; an unconverted delta will typically fault here instead of
    /// corrupting the image (the update is abandoned mid-way in that case,
    /// exactly the hazard the paper's algorithm exists to avoid).
    ///
    /// # Errors
    ///
    /// * [`DeviceError::NotFlashed`] — no image installed.
    /// * [`DeviceError::CapacityExceeded`] — the script needs more than
    ///   the device's storage (`max(source_len, target_len)` bytes) or its
    ///   source length does not match the installed image.
    /// * [`DeviceError::WriteBeforeRead`] — runtime Equation 2 violation.
    pub fn apply_update(&mut self, script: &DeltaScript) -> Result<UpdateStats, DeviceError> {
        let mut session = self.begin_update(script.source_len(), script.target_len())?;
        execute("apply.checked", ops(script.commands(), 0), &mut session)?;
        session.commit()
    }

    /// Applies a delta update in place *without* write-before-read
    /// checking, as a naive device would: [`ipr_core::apply_in_place`] on
    /// the device storage. Unsafe scripts silently corrupt the image; used
    /// to demonstrate the failure mode.
    ///
    /// # Errors
    ///
    /// Same as [`Device::apply_update`] except no
    /// [`DeviceError::WriteBeforeRead`] is ever raised.
    pub fn apply_update_unchecked(
        &mut self,
        script: &DeltaScript,
    ) -> Result<UpdateStats, DeviceError> {
        let needed = self.admit(script.source_len(), script.target_len(), true)?;
        ipr_core::apply_in_place(script, &mut self.storage[..needed])
            .expect("admitted: storage holds both versions");
        self.image_len = script.target_len() as usize;
        Ok(UpdateStats {
            commands: script.len(),
            bytes_written: script.target_len(),
            bytes_read: script.copied_bytes(),
            scratch_bytes: 0,
        })
    }

    /// Applies a delta update incrementally with a durable [`Journal`],
    /// surviving power loss at any point: call repeatedly (persisting the
    /// journal between calls) until it returns [`Progress::Complete`].
    /// `max_bytes` bounds the work per call — the simulation's stand-in
    /// for "the device lost power after this much progress".
    ///
    /// The script is verified against Equation 2 up front, so an unsafe
    /// delta is rejected before the image is touched.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::NotFlashed`] / [`DeviceError::CapacityExceeded`] —
    ///   as for [`Device::apply_update`]. The source length is only
    ///   checked on a fresh journal: mid-update the image is already a
    ///   hybrid of old and new.
    /// * [`DeviceError::WriteBeforeRead`] — the delta violates Equation 2.
    /// * [`DeviceError::Resume`] — journal/script mismatch.
    pub fn apply_update_resumable(
        &mut self,
        script: &DeltaScript,
        journal: &mut Journal,
        max_bytes: u64,
    ) -> Result<Progress, DeviceError> {
        let fresh = journal.command_index() == 0
            && journal.bytes_done_in_command() == 0
            && !journal.has_pending_chunk();
        let needed = self.admit(script.source_len(), script.target_len(), fresh)?;
        if fresh {
            if let Err(v) = ipr_core::check_in_place_safe(script) {
                return Err(DeviceError::WriteBeforeRead {
                    command: v.reader,
                    offset: v.read.start(),
                });
            }
        }
        let progress = resume_in_place(
            script,
            &mut self.storage[..needed],
            journal,
            4096,
            max_bytes,
        )
        .map_err(DeviceError::Resume)?;
        if progress == Progress::Complete {
            self.image_len = script.target_len() as usize;
        }
        Ok(progress)
    }

    /// Applies a *spilled* update: a script converted with
    /// [`convert_with_spill`](ipr_core::spill::convert_with_spill), whose
    /// stashed copies are read into a bounded scratch buffer first
    /// ([`Stash`]) and then replayed as writes through the same checked
    /// session as [`Device::apply_update`]. The report's `scratch_bytes`
    /// records the actual scratch used — the middle ground between the
    /// paper's zero-scratch reconstruction and holding a whole second
    /// image.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::NotFlashed`] / [`DeviceError::CapacityExceeded`] —
    ///   as for [`Device::apply_update`].
    /// * [`DeviceError::Spill`] — a stash index that names no copy, or a
    ///   stash larger than `scratch_budget`; the image is untouched.
    /// * [`DeviceError::WriteBeforeRead`] — an unstashed copy reads bytes
    ///   an earlier command wrote (the script is unsafe under stash
    ///   semantics); the update is abandoned at that command.
    pub fn apply_update_spilled(
        &mut self,
        script: &DeltaScript,
        stashed: &[usize],
        scratch_budget: u64,
    ) -> Result<UpdateStats, DeviceError> {
        let needed = self.admit(script.source_len(), script.target_len(), true)?;
        let stash = Stash::take(script, stashed, &self.storage[..needed], scratch_budget)
            .map_err(DeviceError::Spill)?;
        let mut session = self.begin_update(script.source_len(), script.target_len())?;
        execute("apply.spilled", stash.ops(script), &mut session)?;
        let mut stats = session.commit()?;
        stats.bytes_read += stash.scratch_bytes();
        stats.scratch_bytes = stash.scratch_bytes();
        Ok(stats)
    }

    /// Begins a command-at-a-time update of declared dimensions, for
    /// streaming installation: commands are applied as they arrive off
    /// the wire, each checked against the write-before-read fault
    /// detector, with memory bounded by one command plus the written
    /// set (one interval per run of written bytes).
    ///
    /// The update takes effect (the device's image length changes) only
    /// when [`UpdateSession::commit`] is called; dropping the session
    /// mid-way models an interrupted transfer (storage may hold a partial
    /// image, as on real hardware).
    ///
    /// # Errors
    ///
    /// [`DeviceError::NotFlashed`] or [`DeviceError::CapacityExceeded`]
    /// (dimensions out of range or source length not matching the
    /// installed image).
    pub fn begin_update(
        &mut self,
        source_len: u64,
        target_len: u64,
    ) -> Result<UpdateSession<'_>, DeviceError> {
        self.admit(source_len, target_len, true)?;
        Ok(UpdateSession {
            device: self,
            written: IntervalSet::new(),
            target_len,
            stats: UpdateStats::default(),
        })
    }

    /// Rebuilds an [`UpdateSession`] from checkpointed progress after a
    /// power cut mid-streaming-install. The caller (the streaming
    /// install layer) has already validated the checkpoint; storage is
    /// expected to hold the partially reconstructed hybrid image, so
    /// the image length is restored from the declared source length
    /// rather than checked against it.
    pub(crate) fn resume_session(
        &mut self,
        source_len: u64,
        target_len: u64,
        written: &[(u64, u64)],
        stats: UpdateStats,
    ) -> Result<UpdateSession<'_>, DeviceError> {
        self.admit(source_len, target_len, false)?;
        self.image_len = source_len as usize;
        Ok(UpdateSession {
            device: self,
            written: written.iter().map(|&(s, e)| Interval::new(s, e)).collect(),
            target_len,
            stats,
        })
    }

    /// The precondition every update path checks before touching
    /// storage: an image is installed, `max(source_len, target_len)`
    /// fits the device and — when `source_is_image` — the update's
    /// source is the installed image. Returns the bytes of storage the
    /// update uses.
    fn admit(
        &self,
        source_len: u64,
        target_len: u64,
        source_is_image: bool,
    ) -> Result<usize, DeviceError> {
        if !self.flashed {
            return Err(DeviceError::NotFlashed);
        }
        let needed = source_len.max(target_len);
        if needed > self.capacity() || (source_is_image && source_len != self.image_len as u64) {
            return Err(DeviceError::CapacityExceeded {
                needed,
                capacity: self.capacity(),
            });
        }
        Ok(needed as usize)
    }
}

/// An in-flight update (see [`Device::begin_update`]): the checked sink.
///
/// Every command must write inside the declared target, read inside the
/// installed image, read nothing an earlier command wrote (Equation 2,
/// checked at run time) and write nothing an earlier command wrote;
/// accepted commands move through the plain buffer sink over device
/// storage. The written bytes are kept as an [`IntervalSet`], so the
/// session's memory grows with the runs of written bytes, not with the
/// image.
#[derive(Debug)]
pub struct UpdateSession<'a> {
    device: &'a mut Device,
    written: IntervalSet,
    target_len: u64,
    stats: UpdateStats,
}

impl UpdateSession<'_> {
    /// Applies one command, enforcing the write-before-read check and
    /// that writes land inside the declared target.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::WriteBeforeRead`] — the command reads an
    ///   already-written region (the delta is unsafe or mis-ordered).
    /// * [`DeviceError::InvalidCommand`] — the command reads or writes
    ///   outside the declared dimensions, or overlaps an earlier write
    ///   (write intervals must be disjoint).
    pub fn apply_command(&mut self, cmd: &Command) -> Result<(), DeviceError> {
        exec::step(self, self.stats.commands, Op::from(cmd))
    }

    /// The write interval `[to, to + len)` if it lies inside the target.
    fn target_write(&self, command: usize, to: u64, len: u64) -> Result<Interval, DeviceError> {
        match to.checked_add(len) {
            Some(end) if end <= self.target_len => Ok(Interval::new(to, end)),
            _ => Err(DeviceError::InvalidCommand { command }),
        }
    }

    /// Records `write` as written, rejecting an overlap with an earlier
    /// command's write.
    fn claim(&mut self, command: usize, write: Interval) -> Result<(), DeviceError> {
        if self.written.intersects(write) {
            return Err(DeviceError::InvalidCommand { command });
        }
        self.written.insert(write);
        self.stats.bytes_written += write.len();
        self.stats.commands += 1;
        Ok(())
    }

    /// Commands applied so far.
    #[must_use]
    pub fn commands_applied(&self) -> usize {
        self.stats.commands
    }

    /// Target bytes covered by the applied commands so far.
    pub(crate) fn covered(&self) -> u64 {
        self.written.covered_bytes()
    }

    /// Running statistics (the commit-time report in progress).
    pub(crate) fn stats_so_far(&self) -> UpdateStats {
        self.stats
    }

    /// The written set as coalesced `[start, end)` intervals — the
    /// serializable form of the session's write-before-read state.
    pub(crate) fn written_intervals(&self) -> Vec<(u64, u64)> {
        self.written
            .iter()
            .map(|iv| (iv.start(), iv.end()))
            .collect()
    }

    /// Finalizes the update; fails unless the commands exactly covered
    /// the declared target.
    ///
    /// # Errors
    ///
    /// [`DeviceError::IncompleteUpdate`] when the applied commands do not
    /// cover the declared target exactly.
    pub fn commit(mut self) -> Result<UpdateStats, DeviceError> {
        self.finish()?;
        self.device.image_len = self.target_len as usize;
        Ok(self.stats)
    }
}

impl Sink for UpdateSession<'_> {
    type Error = DeviceError;

    fn copy(&mut self, index: usize, c: &Copy) -> Result<(), DeviceError> {
        let write = self.target_write(index, c.to, c.len)?;
        match c.from.checked_add(c.len) {
            Some(end) if end <= self.device.image_len as u64 => {}
            _ => return Err(DeviceError::InvalidCommand { command: index }),
        }
        let read = c.read_interval();
        if self.written.intersects(read) {
            let first = self.written.iter().find_map(|w| w.intersection(read));
            return Err(DeviceError::WriteBeforeRead {
                command: index,
                offset: first.expect("intersects").start(),
            });
        }
        self.claim(index, write)?;
        self.stats.bytes_read += c.len;
        let Ok(()) = BufferSink::new(&mut self.device.storage, u64::MAX).copy(index, c);
        Ok(())
    }

    fn add(&mut self, index: usize, to: u64, data: &[u8]) -> Result<(), DeviceError> {
        let write = self.target_write(index, to, data.len() as u64)?;
        self.claim(index, write)?;
        let Ok(()) = BufferSink::new(&mut self.device.storage, u64::MAX).add(index, to, data);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DeviceError> {
        let covered = self.covered();
        if covered != self.target_len {
            return Err(DeviceError::IncompleteUpdate {
                covered,
                target_len: self.target_len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_core::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};

    fn firmware_pair() -> (Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(1024); // block move: cycles ahead
        version[4096] ^= 0xff;
        (reference, version)
    }

    #[test]
    fn flash_and_read_back() {
        let mut dev = Device::new(64);
        dev.flash(b"hello").unwrap();
        assert_eq!(dev.image(), b"hello");
        assert_eq!(dev.capacity(), 64);
    }

    #[test]
    fn flash_rejects_oversize() {
        let mut dev = Device::new(4);
        let err = dev.flash(b"too big").unwrap_err();
        assert_eq!(
            err,
            DeviceError::CapacityExceeded {
                needed: 7,
                capacity: 4
            }
        );
    }

    #[test]
    fn update_requires_flash() {
        let mut dev = Device::new(16);
        let script = DeltaScript::new(0, 0, vec![]).unwrap();
        assert_eq!(dev.apply_update(&script), Err(DeviceError::NotFlashed));
    }

    #[test]
    fn converted_update_applies_cleanly() {
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        let stats = dev.apply_update(&out.script).unwrap();
        assert_eq!(dev.image(), &version[..]);
        assert_eq!(stats.scratch_bytes, 0);
        assert!(stats.bytes_written >= version.len() as u64);
    }

    #[test]
    fn unsafe_update_faults_when_checked() {
        // A block swap applied without conversion must raise a WR fault.
        let reference: Vec<u8> = (0u8..16).collect();
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        let err = dev.apply_update(&script).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::WriteBeforeRead { command: 1, .. }
        ));
    }

    #[test]
    fn unsafe_update_corrupts_when_unchecked() {
        let reference: Vec<u8> = (0u8..16).collect();
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        dev.apply_update_unchecked(&script).unwrap();
        assert_ne!(dev.image(), &expected[..], "naive device corrupts silently");
    }

    #[test]
    fn capacity_checked_against_max_of_lengths() {
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut dev = Device::new(reference.len() - 1);
        assert!(dev.flash(&reference).is_err());
        // Flash a truncated image: the update then fails the source check.
        dev.flash(&reference[..reference.len() - 1]).unwrap();
        assert!(matches!(
            dev.apply_update(&out.script),
            Err(DeviceError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn growing_update_fits_by_capacity() {
        let reference = vec![1u8; 100];
        let version = vec![2u8; 150];
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut small = Device::new(100);
        small.flash(&reference).unwrap();
        assert!(matches!(
            small.apply_update(&out.script),
            Err(DeviceError::CapacityExceeded { needed: 150, .. })
        ));
        let mut big = Device::new(150);
        big.flash(&reference).unwrap();
        big.apply_update(&out.script).unwrap();
        assert_eq!(big.image(), &version[..]);
    }

    #[test]
    fn resumable_update_survives_power_loss_loop() {
        use ipr_core::resumable::{Journal, Progress};
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        // Power fails every 501 bytes; the persisted journal survives.
        let mut persisted = Journal::new();
        let mut reboots = 0;
        loop {
            let mut journal = persisted.clone(); // "load from stable storage"
            match dev
                .apply_update_resumable(&out.script, &mut journal, 501)
                .unwrap()
            {
                Progress::Complete => break,
                Progress::Suspended => {
                    persisted = journal; // "flush to stable storage"
                    reboots += 1;
                }
            }
            assert!(reboots < 100_000);
        }
        assert!(
            reboots > 3,
            "the update must actually have been interrupted"
        );
        assert_eq!(dev.image(), &version[..]);
    }

    #[test]
    fn resumable_update_rejects_unsafe_script_upfront() {
        use ipr_core::resumable::Journal;
        let reference: Vec<u8> = (0u8..16).collect();
        let unsafe_script =
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        let mut journal = Journal::new();
        let err = dev
            .apply_update_resumable(&unsafe_script, &mut journal, u64::MAX)
            .unwrap_err();
        assert!(matches!(err, DeviceError::WriteBeforeRead { .. }));
        assert_eq!(
            dev.image(),
            &reference[..],
            "image untouched after rejection"
        );
    }

    #[test]
    fn resumable_single_shot_equals_plain_update() {
        use ipr_core::resumable::{Journal, Progress};
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        let mut journal = Journal::new();
        assert_eq!(
            dev.apply_update_resumable(&out.script, &mut journal, u64::MAX)
                .unwrap(),
            Progress::Complete
        );
        assert_eq!(dev.image(), &version[..]);
    }

    #[test]
    fn spilled_update_uses_scratch_and_saves_literals() {
        use ipr_core::spill::{convert_with_spill, SpillConfig};
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_with_spill(
            &script,
            &reference,
            &SpillConfig {
                conversion: ConversionConfig::default(),
                scratch_budget: 4096,
            },
        )
        .unwrap();
        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        let stats = dev
            .apply_update_spilled(&out.script, &out.stashed, 4096)
            .unwrap();
        assert_eq!(dev.image(), &version[..]);
        assert_eq!(stats.scratch_bytes, out.scratch_used);
        // The rotation creates cycles, so with budget some copy should
        // actually have been stashed.
        assert!(stats.scratch_bytes > 0);
    }

    #[test]
    fn spilled_update_rejects_bad_stash() {
        use ipr_core::spill::{convert_with_spill, SpillConfig};
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_with_spill(
            &script,
            &reference,
            &SpillConfig {
                conversion: ConversionConfig::default(),
                scratch_budget: 4096,
            },
        )
        .unwrap();
        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        // Claiming no stash renders the script unsafe: the first copy
        // that reads a stashed copy's overwritten source faults.
        assert!(!out.stashed.is_empty());
        let err = dev
            .apply_update_spilled(&out.script, &[], 4096)
            .unwrap_err();
        assert!(matches!(err, DeviceError::WriteBeforeRead { .. }), "{err}");
        // Bad stash metadata is typed and leaves the image untouched.
        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        assert_eq!(
            dev.apply_update_spilled(&out.script, &[usize::MAX], 4096),
            Err(DeviceError::Spill(SpillApplyError::BadStashIndex {
                index: usize::MAX
            }))
        );
        assert!(matches!(
            dev.apply_update_spilled(&out.script, &out.stashed, 1),
            Err(DeviceError::Spill(SpillApplyError::ScratchExceeded {
                budget: 1,
                ..
            }))
        ));
        assert_eq!(dev.image(), &reference[..]);
    }

    #[test]
    fn self_overlapping_copy_allowed() {
        // A command may read bytes it itself overwrites (§4.1); only
        // *prior* writes fault.
        let script = DeltaScript::new(16, 12, vec![Command::copy(4, 0, 12)]).unwrap();
        let reference: Vec<u8> = (0u8..16).collect();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        dev.apply_update(&script).unwrap();
        assert_eq!(dev.image(), &reference[4..16]);
    }
}
