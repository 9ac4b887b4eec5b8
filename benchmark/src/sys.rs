//! What the harness reads from the operating system: the wall and
//! process-CPU clocks, peak resident memory, core count, and a scratch
//! directory inside the checkout.

use std::path::{Path, PathBuf};

/// `struct timespec` as 64-bit Linux lays it out (`time_t` and `long` are
/// both 64 bits wide there).
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}
const _: () = assert!(std::mem::size_of::<Timespec>() == 16);

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // From the C library the standard library already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has consumed (all threads,
/// including ones that already exited). `/proc/self/stat` counts the same
/// time in 10 ms ticks, too coarse for the laps it is read at.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout asserted
    // above, and `clock_gettime` writes nothing but that one struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall and CPU seconds of consecutive laps of one timed interval.
pub struct Stopwatch {
    last: (std::time::Instant, f64),
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            last: (std::time::Instant::now(), cpu_seconds()),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = (std::time::Instant::now(), cpu_seconds());
        self.wall_s.push((now.0 - self.last.0).as_secs_f64());
        self.cpu_s.push(now.1 - self.last.1);
        self.last = now;
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line a tool prints, run in the benchmark's directory (`unknown`
/// if it is missing or fails — a checkout need not be a git repository).
pub fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark's output directory, `benchmark/out` in the checkout the
/// binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `out/tmp-<pid>-<tag>`, replacing any leftover.
    pub fn new(tag: &str) -> Self {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        Scratch { path }
    }

    /// A fresh, empty subdirectory (durable engines refuse a dirty one).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
