//! What a result needs to say about the machine it ran on, so a change
//! of host can be told from a regression.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Host facts recorded with every result.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// CPUs the machine has online.
    pub nproc: usize,
    /// The one CPU the run was pinned to (see [`pin_to_one_cpu`]).
    pub pinned_cpu: Option<usize>,
    /// L2 size from sysfs, as printed there (`2048K`).
    pub l2: String,
    /// L3 size from sysfs.
    pub l3: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// Worker count the engine's default config resolves to.
    pub engine_threads: usize,
    /// MiB/s of a fixed hashing loop: moves with the machine, not the code.
    pub calibration_mib_s: f64,
}

impl Fingerprint {
    /// Reads the host facts and runs the calibration loop.
    #[must_use]
    pub fn collect(engine_threads: usize, pinned_cpu: Option<usize>) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: cpus_online(),
            pinned_cpu,
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(Path::new(".")),
            engine_threads,
            calibration_mib_s: calibrate(),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (k, v) in [
            ("cpu_model", &self.cpu_model),
            ("l2", &self.l2),
            ("l3", &self.l3),
            ("rustc", &self.rustc),
            ("commit", &self.commit),
        ] {
            let _ = write!(s, "\"{k}\": {}, ", ipr_trace::json::escape(v));
        }
        let pinned = self
            .pinned_cpu
            .map_or_else(|| "null".to_string(), |c| c.to_string());
        let _ = write!(
            s,
            "\"nproc\": {}, \"pinned_cpu\": {pinned}, \"engine_threads\": {}, \"calibration_mib_s\": {}}}",
            self.nproc, self.engine_threads, self.calibration_mib_s
        );
        s
    }
}

/// CPUs online per `/proc/cpuinfo`, whatever this process may use.
fn cpus_online() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Pins this process to the one CPU it is running on, before any other
/// thread exists, and returns that CPU; `None` where that fails.
///
/// The benchmark runs on a few CPUs of a shared host. An engine at its
/// default config runs one worker per CPU it may use, and its parallel
/// stages then wait on whichever CPU the host serves last: on two CPUs
/// two sessions on the same inputs differed by up to half, and runs of
/// the same code by a fifth. Pinned, the default config resolves to one
/// worker (recorded as `engine_threads`) and runs agree.
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of glibc's size: 1024 CPUs.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of the size passed;
    // pid 0 is the calling thread, whose later threads inherit it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|dir| {
            let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() != "Instruction"
        })
        .and_then(|dir| std::fs::read_to_string(dir.join("size")).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Resolves `HEAD` by reading `.git` directly (no process is started).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Median of five timings of a fixed FNV pass over 4 MiB of xorshift
/// bytes, as MiB/s. Uses the benchmark's own hash, never the program's.
#[must_use]
pub fn calibrate() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let buf: Vec<u8> = (0..4 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut h = 0u64;
            for _ in 0..4 {
                h ^= crate::inputs::fnv64(std::hint::black_box(&buf));
            }
            std::hint::black_box(h);
            16.0 / t.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[2]
}

/// Peak resident set (`VmHWM`) in MiB, 0 where `/proc` is absent.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
