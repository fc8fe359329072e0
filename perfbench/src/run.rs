//! The benchmark loop: one client thread driving the update path in a
//! closed loop, pass after pass over a workload's inputs.
//!
//! An untraced pass calls the public one-shot entry points
//! (`Engine::update` / `Engine::stream_update`) and feeds the end-to-end
//! metrics. A traced pass does the same work by calling the stage
//! methods one by one and timing each from outside.

use crate::alloc;
use crate::inputs::{fnv64, Inputs, Pair, Scale, Workload};
use crate::stats::{mean, median, mib, percentile, secs};
use ipr_core::{apply_schedule_parallel, required_capacity};
use ipr_delta::codec;
use ipr_device::{stream_install, Channel, Device, LossyChannel, StreamProgress};
use ipr_pipeline::{DeltaStream, Engine, InPlaceDelta};
use ipr_store::{ObjectKind, Oid, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Serving chunk of a streamed delta, in bytes.
pub const CHUNK: usize = 1024;
/// Frame size of the simulated link.
pub const MTU: usize = 576;
/// Frame loss rate of the simulated dialup link.
pub const LOSS: f64 = 0.01;
/// Chain-depth cap of every store the benchmark opens.
pub const DEPTH_CAP: u32 = 8;
/// `release_chain` compacts its store after every this many puts.
pub const COMPACT_EVERY: usize = 16;
/// `release_chain` reads the releases this far behind each new one.
pub const GET_BACK: [usize; 4] = [1, 3, 7, 15];
/// Devices every update is installed on, each with an engine session
/// of its own and each over its own lossy link.
pub const DEVICES: usize = 4;
/// Server engine sessions a pass deals its updates out to.
///
/// A warm engine keeps its speed for its whole life, set in part by
/// where its arenas landed: sessions on the same inputs differed by up
/// to half with two workers, by a few percent with one. Several
/// sessions per pass, each dealt a different share of the operations
/// in every pass, make that many draws per run, so a run's medians do
/// not hang on one lucky or unlucky session.
pub const SERVERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which inputs and which loop.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measuring budget; fixes the number of passes (see [`passes`]).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupt one output before it is checked (tests the checking).
    pub inject_mismatch: bool,
    /// Scratch directory for stores; created and removed by the run.
    pub work_dir: PathBuf,
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations started (updates, installs, puts, gets, compactions).
    pub attempted: u64,
    /// Operations that returned an error or produced wrong bytes.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs.
    pub input_digest: String,
    /// Passes over the inputs (untraced + traced for a traced run).
    pub passes: usize,
    /// Sample counts behind the percentiles, by name.
    pub samples: Vec<(&'static str, usize)>,
    /// Worker count the engine's default config resolves to.
    pub engine_threads: usize,
    /// `ipr-stats/1` dump of one traced operation, when traced.
    pub span_dump: Option<String>,
}

impl Outcome {
    /// True when every operation succeeded with the right bytes.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Everything one pass records; an untraced pass fills the end-to-end
/// fields, a traced pass the per-layer ones, both the store fields.
#[derive(Default)]
struct Samples {
    update_ns: Vec<u64>,
    update_bytes: u64,
    install_ns: Vec<u64>,
    install_bytes: u64,
    wire_bytes: u64,
    version_bytes: u64,
    ttfb_ns: Vec<u64>,
    put_ns: Vec<u64>,
    get_ns: Vec<u64>,
    live_bytes: u64,
    user_bytes: u64,
    // Per-layer only.
    diff_ns: Vec<u64>,
    convert_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    schedule_ns: u64,
    apply_ns: u64,
    applied_bytes: u64,
    copied_bytes: u64,
    edges: u64,
    cycles_broken: u64,
    bytes_converted: u64,
    conversion_cost: u64,
    allocs: u64,
    prepare_ns: Vec<u64>,
    stream_install_ns: Vec<u64>,
    commands: u64,
    commands_pre_eof: u64,
    high_water_max: u64,
    retransmissions: u64,
    sim_ns: u64,
    get_depths: Vec<u32>,
    max_depth: u32,
    compact_ns: u64,
    delta_objects: u64,
    live_objects: u64,
}

/// Engines, scratch and the failure tally of one run.
struct Bench {
    servers: Vec<Engine>,
    devices: Vec<Engine>,
    /// Server session of the operation under way.
    worker: usize,
    buf: Vec<u8>,
    dir: PathBuf,
    stores: u64,
    seed: u64,
    attempted: u64,
    failed: u64,
    inject: bool,
    /// Number of the pass under way.
    pass_no: u64,
    /// Wire digests of the last untraced pass, by operation index.
    wire: Vec<u64>,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("duration fits u64 nanoseconds")
}

impl Bench {
    fn new(cfg: &Config) -> Result<Bench, String> {
        std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string())?;
        Ok(Bench {
            servers: Vec::new(),
            devices: Vec::new(),
            worker: 0,
            buf: Vec::new(),
            dir: cfg.work_dir.clone(),
            stores: 0,
            seed: cfg.seed,
            attempted: 0,
            failed: 0,
            inject: cfg.inject_mismatch,
            pass_no: 0,
            wire: Vec::new(),
        })
    }

    /// The server session of the operation under way.
    fn server(&mut self) -> &mut Engine {
        &mut self.servers[self.worker]
    }

    /// Deals operation `op` to a server session, a different one in
    /// every pass.
    fn deal(&mut self, op: usize) {
        self.worker = (op + self.pass_no as usize) % self.servers.len();
    }

    /// The chain the pass under way runs, of `chains`.
    fn chain(&self, chains: usize) -> usize {
        (self.pass_no % chains as u64) as usize
    }

    /// Counts one operation; an error fails it.
    fn step<T>(&mut self, what: &str, r: Result<T, impl Display>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Checks the output of the operation just counted; wrong bytes fail it.
    fn expect_same(&mut self, what: &str, got: &[u8], want: &[u8]) {
        let same = if std::mem::take(&mut self.inject) {
            let mut bad = got.to_vec();
            match bad.first_mut() {
                Some(b) => *b ^= 0x5a,
                None => bad.push(0),
            }
            bad == want
        } else {
            got == want
        };
        if !same {
            self.failed += 1;
            eprintln!("perfbench: {what} produced wrong bytes");
        }
    }

    /// The lossy link to `device` for operation `op`, its seed fixed by
    /// the run seed, the pass, the operation and the device.
    fn link(&self, op: usize, device: usize) -> LossyChannel {
        let at = (self.pass_no << 32) ^ ((op as u64) << 8) ^ device as u64;
        let seed = self.seed ^ (at + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        LossyChannel::new(Channel::dialup(), LOSS, seed)
    }

    fn fresh_store(&mut self) -> Option<(Store, PathBuf)> {
        self.stores += 1;
        let dir = self.dir.join(format!("store-{}", self.stores));
        let _ = std::fs::remove_dir_all(&dir);
        let store = self.step("store init", Store::init(&dir, DEPTH_CAP))?;
        Some((store, dir))
    }

    /// One pass: fresh server and device engine sessions (see
    /// [`SERVERS`]), each warmed on the largest input, then every
    /// operation of the workload. Pairs run in an order seeded by the
    /// pass number; samples are put back in pair order.
    fn pass(&mut self, inputs: &Inputs, traced: bool, pass_no: u64, s: &mut Samples) {
        self.servers = (0..SERVERS).map(|_| Engine::new()).collect();
        self.devices = (0..DEVICES).map(|_| Engine::new()).collect();
        self.pass_no = pass_no;
        for worker in 0..SERVERS.max(DEVICES) {
            self.worker = worker % SERVERS;
            self.warm(inputs, worker % DEVICES);
        }
        match inputs {
            Inputs::Pairs(pairs) => {
                let order = shuffled(
                    pairs.len(),
                    self.seed ^ pass_no.wrapping_mul(0x2545_f491_4f6c_dd1d),
                );
                for &op in &order {
                    self.pair_op(&pairs[op], op, traced, s);
                }
                for v in [
                    &mut s.update_ns,
                    &mut s.install_ns,
                    &mut s.put_ns,
                    &mut s.get_ns,
                ] {
                    unshuffle(v, &order);
                }
            }
            Inputs::Chains(chains) => {
                let releases = &chains[self.chain(chains.len())];
                if let Some((mut store, dir)) = self.fresh_store() {
                    self.chain_pass(&mut store, releases, traced, s);
                    drop(store);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }

    /// One untimed update on the current server session and in-place
    /// install on `device` of the workload's largest pair (the first hop
    /// of the pass's chain), to grow the engines' arenas.
    fn warm(&mut self, inputs: &Inputs, device: usize) {
        let (reference, version) = match inputs {
            Inputs::Pairs(pairs) => {
                let p = pairs
                    .iter()
                    .max_by_key(|p| p.version.len())
                    .expect("a workload has pairs");
                (p.reference.as_slice(), p.version.as_slice())
            }
            Inputs::Chains(chains) => {
                let releases = &chains[self.chain(chains.len())];
                (releases[0].as_slice(), releases[1].as_slice())
            }
        };
        let mut s = Samples::default();
        if let Some(delta) = self.update(reference, version, &mut s) {
            self.install(reference, version, &delta.payload, device, false, &mut s);
            self.server().recycle(delta);
        }
    }

    /// `corpus` / `large_text`: update, in-place install, streamed
    /// install, and the pair's history in a store of its own.
    fn pair_op(&mut self, pair: &Pair, op: usize, traced: bool, s: &mut Samples) {
        let (reference, version) = (pair.reference.as_slice(), pair.version.as_slice());
        self.deal(op);
        let delta = if traced {
            self.staged_update(reference, version, op, s)
        } else {
            self.update(reference, version, s)
        };
        if let Some(mut delta) = delta {
            if !traced {
                self.note_wire(op, &delta.payload);
            }
            if traced {
                let device = self.worker % DEVICES;
                self.install(reference, version, &delta.payload, device, true, s);
            } else {
                let times: Vec<u64> = (0..DEVICES)
                    .filter_map(|d| self.install(reference, version, &delta.payload, d, false, s))
                    .collect();
                s.install_ns.push(median_ns(&times));
                s.install_bytes += version.len() as u64;
            }
            let t = Instant::now();
            let stream = DeltaStream::from_wire(std::mem::take(&mut delta.payload), CHUNK);
            if traced {
                if let Some(last) = s.prepare_ns.last_mut() {
                    *last += ns(t);
                }
            }
            for device in 0..DEVICES {
                self.stream(reference, version, &stream, op, device, s);
            }
            delta.payload = stream.into_payload();
            self.server().recycle(delta);
        }
        self.store_pair(pair, s);
    }

    /// The one-call server path, timed as one update.
    fn update(
        &mut self,
        reference: &[u8],
        version: &[u8],
        s: &mut Samples,
    ) -> Option<InPlaceDelta> {
        let t = Instant::now();
        let r = self.server().update(reference, version);
        let took = ns(t);
        let delta = self.step("update", r)?;
        s.update_ns.push(took);
        s.update_bytes += version.len() as u64;
        s.wire_bytes += delta.payload.len() as u64;
        s.version_bytes += version.len() as u64;
        Some(delta)
    }

    /// Remembers the untraced wire bytes of operation `op`.
    fn note_wire(&mut self, op: usize, payload: &[u8]) {
        if self.wire.len() <= op {
            self.wire.resize(op + 1, 0);
        }
        self.wire[op] = fnv64(payload);
    }

    /// The server path stage by stage (diff → convert → encode), each
    /// timed; the wire bytes must equal the untraced update's.
    fn staged_update(
        &mut self,
        reference: &[u8],
        version: &[u8],
        op: usize,
        s: &mut Samples,
    ) -> Option<InPlaceDelta> {
        let allocs = alloc::calls();
        let t0 = Instant::now();
        let script = self.server().diff(reference, version);
        let diff_ns = ns(t0);
        s.copied_bytes += script.copied_bytes();
        let t = Instant::now();
        let r = self.server().convert(script, reference);
        let convert_ns = ns(t);
        let outcome = self.step("convert", r)?;
        let t = Instant::now();
        let r = self.server().encode(&outcome.script, version);
        let encode_ns = ns(t);
        let payload = self.step("encode", r)?;
        s.allocs += alloc::calls() - allocs;
        s.prepare_ns.push(ns(t0));
        s.diff_ns.push(diff_ns);
        s.convert_ns += convert_ns;
        s.encode_ns += encode_ns;
        let report = outcome.report;
        s.edges += report.edges as u64;
        s.cycles_broken += report.cycles_broken as u64;
        s.bytes_converted += report.bytes_converted;
        s.conversion_cost += report.conversion_cost;
        s.wire_bytes += payload.len() as u64;
        s.version_bytes += version.len() as u64;
        if self.wire.get(op) != Some(&fnv64(&payload)) {
            self.failed += 1;
            eprintln!("perfbench: staged update {op} differs from Engine::update on the wire");
        }
        Some(InPlaceDelta {
            script: outcome.script,
            payload,
            report,
            version_len: version.len() as u64,
        })
    }

    /// Device side without streaming, on the engine of `device`: decode,
    /// then apply in place over a copy of the reference, then compare.
    /// Untraced, one timed call to `Engine::apply_in_place`; traced,
    /// decode / plan / apply apart. Returns the wall time, decode to
    /// compare.
    fn install(
        &mut self,
        reference: &[u8],
        version: &[u8],
        payload: &[u8],
        device: usize,
        traced: bool,
        s: &mut Samples,
    ) -> Option<u64> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.extend_from_slice(reference);
        let t = Instant::now();
        let decoded = codec::decode(payload);
        let decode_ns = ns(t);
        let Some(decoded) = self.step("decode", decoded) else {
            self.buf = buf;
            return None;
        };
        let script = decoded.script;
        let need = usize::try_from(required_capacity(&script)).expect("fits usize");
        buf.resize(need, 0);
        let (schedule_ns, applied) = if traced {
            let engine = &mut self.devices[device];
            let parallel = engine.config().parallel();
            let t = Instant::now();
            let plan = engine.plan(&script);
            let schedule_ns = ns(t);
            let t = Instant::now();
            let applied = match plan {
                Some(plan) => apply_schedule_parallel(&script, plan, &mut buf, &parallel),
                None => Err(ipr_core::ParallelApplyError::UnsafeScript),
            };
            s.apply_ns += ns(t);
            (schedule_ns, applied)
        } else {
            (0, self.devices[device].apply_in_place(&script, &mut buf))
        };
        buf.truncate(usize::try_from(script.target_len()).expect("fits usize"));
        if self.step("apply in place", applied).is_some() {
            self.expect_same("apply in place", &buf, version);
        }
        let took = ns(t);
        if traced {
            s.decode_ns += decode_ns;
            s.schedule_ns += schedule_ns;
            s.applied_bytes += version.len() as u64;
        }
        self.buf = buf;
        Some(took)
    }

    /// Streams `stream` onto a fresh device holding `reference` over its
    /// lossy dialup link, then checks the image. Returns the wall time.
    fn stream(
        &mut self,
        reference: &[u8],
        version: &[u8],
        stream: &DeltaStream,
        op: usize,
        device_no: usize,
        s: &mut Samples,
    ) -> Option<u64> {
        let mut device = Device::new(reference.len().max(version.len()));
        self.step("flash", device.flash(reference))?;
        let link = self.link(op, device_no);
        let t = Instant::now();
        let r = stream_install(&mut device, stream, link, MTU, None, None);
        let took = ns(t);
        let report = match self.step("stream install", r)? {
            StreamProgress::Complete(report) => report,
            StreamProgress::Killed { .. } => {
                self.failed += 1;
                return None;
            }
        };
        self.expect_same("stream install", device.image(), version);
        let ttfb = report
            .time_to_first_byte
            .map_or(report.transfer_time, |d| d);
        s.ttfb_ns
            .push(u64::try_from(ttfb.as_nanos()).expect("simulated time fits u64"));
        s.stream_install_ns.push(took);
        s.commands += report.commands_applied;
        s.commands_pre_eof += report.commands_pre_eof;
        s.high_water_max = s.high_water_max.max(report.buffered_high_water);
        s.retransmissions += report.retransmissions;
        s.sim_ns += u64::try_from(report.transfer_time.as_nanos()).expect("fits u64");
        Some(took)
    }

    /// A pair's history in a store of its own: the reference is imported
    /// as the store's set-up, then the version is put (a delta over the
    /// reference) and read back.
    fn store_pair(&mut self, pair: &Pair, s: &mut Samples) {
        let Some((mut store, dir)) = self.fresh_store() else {
            return;
        };
        if let Some(base) = self.step("put", store.put(&pair.reference, None)) {
            let t = Instant::now();
            let r = store.put(&pair.version, Some(base.oid));
            let took = ns(t);
            if let Some(put) = self.step("put", r) {
                s.put_ns.push(took);
                s.max_depth = s.max_depth.max(store.manifest().max_depth());
                self.get(&mut store, put.oid, &pair.version, s);
                self.compact(&mut store, s);
                self.account(
                    &store,
                    (pair.reference.len() + pair.version.len()) as u64,
                    s,
                );
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn get(&mut self, store: &mut Store, oid: Oid, want: &[u8], s: &mut Samples) {
        s.get_depths.push(store.manifest().depth(oid).unwrap_or(0));
        let t = Instant::now();
        let r = store.get(oid);
        let took = ns(t);
        if let Some(got) = self.step("get", r) {
            s.get_ns.push(took);
            self.expect_same("get", &got, want);
        }
    }

    fn compact(&mut self, store: &mut Store, s: &mut Samples) {
        let t = Instant::now();
        let r = store.compact();
        s.compact_ns += ns(t);
        self.step("compact", r);
    }

    /// Live object bytes and kinds once a store's history is complete.
    fn account(&self, store: &Store, user_bytes: u64, s: &mut Samples) {
        let manifest = store.manifest();
        for oid in manifest.referenced_objects() {
            if let Some(object) = manifest.objects.get(&oid) {
                s.live_bytes += object.len;
                s.live_objects += 1;
                s.delta_objects += u64::from(object.kind == ObjectKind::Delta);
            }
        }
        s.user_bytes += user_bytes;
    }

    /// `release_chain`: per release, one put, reads of earlier releases,
    /// a streamed install of the new release over the old one, and a
    /// compaction every [`COMPACT_EVERY`] puts.
    fn chain_pass(
        &mut self,
        store: &mut Store,
        releases: &[Vec<u8>],
        traced: bool,
        s: &mut Samples,
    ) {
        let Some(first) = self.step("put", store.put(&releases[0], None)) else {
            return;
        };
        let mut oids = vec![first.oid];
        for r in 1..releases.len() {
            let (old, new) = (releases[r - 1].as_slice(), releases[r].as_slice());
            let t = Instant::now();
            let put = store.put(new, None);
            let took = ns(t);
            let Some(put) = self.step("put", put) else {
                return;
            };
            s.put_ns.push(took);
            oids.push(put.oid);
            s.max_depth = s.max_depth.max(store.manifest().max_depth());
            for back in GET_BACK {
                let v = r.saturating_sub(back);
                self.get(store, oids[v], &releases[v], s);
            }
            let op = r - 1;
            self.deal(op);
            if traced {
                if let Some(mut delta) = self.staged_update(old, new, op, s) {
                    let device = self.worker % DEVICES;
                    self.install(old, new, &delta.payload, device, true, s);
                    let t = Instant::now();
                    let stream = DeltaStream::from_wire(std::mem::take(&mut delta.payload), CHUNK);
                    if let Some(last) = s.prepare_ns.last_mut() {
                        *last += ns(t);
                    }
                    for device in 0..DEVICES {
                        self.stream(old, new, &stream, op, device, s);
                    }
                    delta.payload = stream.into_payload();
                    self.server().recycle(delta);
                }
            } else {
                let t = Instant::now();
                let r = self.server().stream_update(old, new, CHUNK);
                let took = ns(t);
                if let Some(stream) = self.step("stream update", r) {
                    s.update_ns.push(took);
                    s.update_bytes += new.len() as u64;
                    s.wire_bytes += stream.wire_len();
                    s.version_bytes += new.len() as u64;
                    self.note_wire(op, stream.payload());
                    let times: Vec<u64> = (0..DEVICES)
                        .filter_map(|device| self.stream(old, new, &stream, op, device, s))
                        .collect();
                    s.install_ns.push(median_ns(&times));
                    s.install_bytes += new.len() as u64;
                }
            }
            if r % COMPACT_EVERY == 0 {
                self.compact(store, s);
            }
        }
        let user_bytes = releases.iter().map(|r| r.len() as u64).sum();
        self.account(store, user_bytes, s);
    }
}

/// `0..n` in an order seeded by `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Puts samples taken in `order` back in operation order. Left as is
/// when a failed operation left a sample out (the run fails anyway).
fn unshuffle(samples: &mut Vec<u64>, order: &[usize]) {
    if samples.len() == order.len() {
        let mut sorted = vec![0; order.len()];
        for (&op, &v) in order.iter().zip(samples.iter()) {
            sorted[op] = v;
        }
        *samples = sorted;
    }
}

/// Passes a run makes: `--seconds` over [`Workload::pass_s`], at least
/// one. A traced run alternates untraced and traced passes, so it makes
/// half as many of each.
///
/// The count depends on `--seconds` alone, so every run does the same
/// work and covers each `release_chain` chain as often. Only a host so
/// loaded that a run overruns `--seconds` by [`OVERRUN`] makes fewer.
#[must_use]
pub fn passes(cfg: &Config) -> usize {
    let per_pass = cfg.workload.pass_s() * if cfg.trace { 2.0 } else { 1.0 };
    ((cfg.seconds / per_pass).round() as usize).max(1)
}

/// Share of `--seconds` after which a run starts no further pass.
pub const OVERRUN: f64 = 1.1;

/// Generates the inputs and builds the engines and the work directory.
fn setup(cfg: &Config) -> Result<(Inputs, Bench), String> {
    let inputs = Inputs::generate(cfg.workload, cfg.seed, &cfg.scale);
    let bench = Bench::new(cfg)?;
    Ok((inputs, bench))
}

/// Runs the benchmark once.
///
/// # Errors
///
/// When the work directory cannot be created.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let ready = setup(cfg)?;
        setups.push(t.elapsed().as_secs_f64());
        state = Some(ready);
    }
    let (inputs, mut bench) = state.expect("at least one set-up");
    let input_digest = crate::inputs::digest(&inputs);

    let mut untraced_passes = Vec::new();
    let mut layers = Vec::new();
    let mut overheads = Vec::new();
    let mut peak_rss_mib = 0.0;
    let start = Instant::now();
    for pass_no in 0..passes(cfg) as u64 {
        if pass_no > 0 && start.elapsed().as_secs_f64() > cfg.seconds * OVERRUN {
            break;
        }
        let t = Instant::now();
        let mut untraced = Samples::default();
        bench.pass(&inputs, false, pass_no, &mut untraced);
        let untraced_s = t.elapsed().as_secs_f64();
        if untraced_passes.is_empty() {
            peak_rss_mib = crate::host::peak_rss_mib();
        }
        untraced_passes.push(untraced);
        if cfg.trace {
            let t = Instant::now();
            let mut traced = Samples::default();
            bench.pass(&inputs, true, pass_no, &mut traced);
            overheads.push(t.elapsed().as_secs_f64() / untraced_s - 1.0);
            layers.push(traced);
        }
    }
    let passes = untraced_passes.len() + layers.len();

    let engine_threads = match bench.servers[0].config().threads {
        0 => crate::host::available_parallelism(),
        n => n,
    };
    let (metrics, samples, span_dump) = if cfg.trace {
        let span_dump = span_dump(&mut bench, &inputs);
        let (metrics, samples) = layer_metrics(&layers, &overheads);
        (metrics, samples, Some(span_dump))
    } else {
        let cycle = untraced_passes.len().min(inputs.cycle());
        let (metrics, samples) = e2e_metrics(
            &untraced_passes,
            &untraced_passes[..cycle],
            median(&setups),
            peak_rss_mib,
        );
        (metrics, samples, None)
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    Ok(Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
        input_digest,
        passes,
        samples,
        engine_threads,
        span_dump,
    })
}

/// The program's own `ipr-stats/1` spans for one warm-up (server
/// update plus device install), for diagnosis next to the results.
fn span_dump(bench: &mut Bench, inputs: &Inputs) -> String {
    let recorder = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
    {
        let _guard = ipr_trace::install(recorder.clone());
        bench.warm(inputs, 0);
    }
    recorder.report().to_json()
}

fn median_ns(ns: &[u64]) -> u64 {
    percentile(ns, 0.5) as u64
}

fn ms(ns: &[u64], p: f64) -> f64 {
    percentile(ns, p) / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

type Named = (Vec<Metric>, Vec<(&'static str, usize)>);

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Each operation's median time over the passes, in operation order.
///
/// Every pass runs the same operations, so the median of operation `i`
/// across passes discards a pass that a noisy neighbour slowed, and
/// percentiles over operations then describe the inputs, not the noise.
fn per_op_median(passes: &[Samples], field: fn(&Samples) -> &Vec<u64>) -> Vec<u64> {
    let ops = passes.iter().map(|p| field(p).len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| field(p)[i] as f64).collect();
            median(&times) as u64
        })
        .collect()
}

/// End-to-end metrics of the untraced passes. Times are per-operation
/// medians over `passes`. The size ratios come from `cycle`, the first
/// pass over each distinct input set (each chain of `release_chain`),
/// so they do not hang on how many passes a run made.
fn e2e_metrics(passes: &[Samples], cycle: &[Samples], setup_s: f64, peak_rss_mib: f64) -> Named {
    let total = |field: fn(&Samples) -> u64| cycle.iter().map(field).sum::<u64>();
    let per_pass =
        |field: fn(&Samples) -> u64| mib(passes.iter().map(field).sum()) / passes.len() as f64;
    let update = per_op_median(passes, |s| &s.update_ns);
    let install = per_op_median(passes, |s| &s.install_ns);
    let put = per_op_median(passes, |s| &s.put_ns);
    let get = per_op_median(passes, |s| &s.get_ns);
    let ttfb: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.ttfb_ns.iter().copied())
        .collect();
    let metrics = vec![
        m(
            "update_mib_s",
            per_pass(|s| s.update_bytes) / secs(update.iter().sum()),
            "MiB/s",
        ),
        m("update_ms_p50", ms(&update, 0.5), "ms"),
        m("update_ms_p90", ms(&update, 0.9), "ms"),
        m(
            "install_mib_s",
            per_pass(|s| s.install_bytes) / secs(install.iter().sum()),
            "MiB/s",
        ),
        m(
            "delta_ratio",
            ratio(total(|s| s.wire_bytes), total(|s| s.version_bytes)),
            "ratio",
        ),
        m("stream_ttfb_ms", mean(&ttfb) / 1e6, "ms"),
        m("store_put_ms_p50", ms(&put, 0.5), "ms"),
        m("store_put_ms_p90", ms(&put, 0.9), "ms"),
        m("store_get_ms_p50", ms(&get, 0.5), "ms"),
        m("store_get_ms_p90", ms(&get, 0.9), "ms"),
        m(
            "store_bytes_per_user_byte",
            ratio(total(|s| s.live_bytes), total(|s| s.user_bytes)),
            "ratio",
        ),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    let samples = vec![
        ("passes", passes.len()),
        ("updates_per_pass", update.len()),
        ("installs_per_pass", install.len()),
        ("puts_per_pass", put.len()),
        ("gets_per_pass", get.len()),
    ];
    (metrics, samples)
}

/// Per-layer metrics: each pass's figure, then the median over traced
/// passes.
fn layer_metrics(passes: &[Samples], overheads: &[f64]) -> Named {
    let per_pass: Vec<Vec<Metric>> = passes.iter().map(pass_layers).collect();
    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            m(first.name, median(&values), first.unit)
        })
        .collect();
    metrics.push(m("trace.overhead_share", median(overheads), "share"));
    let last = passes.last().expect("at least one traced pass");
    let samples = vec![
        ("traced_passes", passes.len()),
        ("updates_per_pass", last.diff_ns.len()),
        ("installs_per_pass", last.stream_install_ns.len()),
        ("puts_per_pass", last.put_ns.len()),
        ("gets_per_pass", last.get_ns.len()),
    ];
    (metrics, samples)
}

fn pass_layers(s: &Samples) -> Vec<Metric> {
    let diff_ns: u64 = s.diff_ns.iter().sum();
    let server_ns = diff_ns + s.convert_ns + s.encode_ns;
    vec![
        m("diff.busy_s", secs(diff_ns), "s"),
        m("diff.ms_p50", ms(&s.diff_ns, 0.5), "ms"),
        m("diff.share", ratio(diff_ns, server_ns), "share"),
        m(
            "diff.copied_share",
            ratio(s.copied_bytes, s.version_bytes),
            "share",
        ),
        m("convert.busy_s", secs(s.convert_ns), "s"),
        m("convert.share", ratio(s.convert_ns, server_ns), "share"),
        m("convert.edges", s.edges as f64, "count"),
        m("convert.cycles_broken", s.cycles_broken as f64, "count"),
        m("convert.bytes_converted", s.bytes_converted as f64, "bytes"),
        m("convert.conversion_cost", s.conversion_cost as f64, "bytes"),
        m("codec.encode_busy_s", secs(s.encode_ns), "s"),
        m("codec.decode_busy_s", secs(s.decode_ns), "s"),
        m("codec.wire_bytes", s.wire_bytes as f64, "bytes"),
        m("schedule.busy_s", secs(s.schedule_ns), "s"),
        m("apply.busy_s", secs(s.apply_ns), "s"),
        m(
            "apply.mib_s",
            mib(s.applied_bytes) / secs(s.apply_ns),
            "MiB/s",
        ),
        m(
            "engine.allocs_per_update",
            ratio(s.allocs, s.diff_ns.len() as u64),
            "count",
        ),
        m("stream.prepare_ms_p50", ms(&s.prepare_ns, 0.5), "ms"),
        m("stream.install_ms_p50", ms(&s.stream_install_ns, 0.5), "ms"),
        m(
            "stream.commands_pre_eof_share",
            ratio(s.commands_pre_eof, s.commands),
            "share",
        ),
        m(
            "stream.buffered_high_water_max",
            s.high_water_max as f64,
            "bytes",
        ),
        m("channel.retransmissions", s.retransmissions as f64, "count"),
        m("channel.sim_s", secs(s.sim_ns), "s"),
        m("store.put_busy_s", secs(s.put_ns.iter().sum()), "s"),
        m("store.get_busy_s", secs(s.get_ns.iter().sum()), "s"),
        m(
            "store.get_depth_mean",
            mean(
                &s.get_depths
                    .iter()
                    .map(|&d| u64::from(d))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        m("store.max_depth", f64::from(s.max_depth), "count"),
        m("store.compact_ms", s.compact_ns as f64 / 1e6, "ms"),
        m(
            "store.delta_objects_share",
            ratio(s.delta_objects, s.live_objects),
            "share",
        ),
    ]
}

/// A work directory unique to this process under `base`.
#[must_use]
pub fn work_dir(base: &Path) -> PathBuf {
    base.join(format!("work-{}", std::process::id()))
}
