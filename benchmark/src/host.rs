//! What the benchmark reads from and leaves on the host: process CPU
//! time and memory from procfs, the machine facts recorded with every
//! run, and the scratch directory that holds write-ahead logs.
//!
//! The benchmark writes only under `benchmark/out/` (inside its own
//! checkout): WAL scratch in `out/scratch-<pid>/`, removed on normal
//! exit, panic and SIGINT/SIGTERM, and trace files in `out/`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);
static SCRATCH: Mutex<Option<PathBuf>> = Mutex::new(None);

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store is async-signal-safe; the watcher thread
    // does the cleanup.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// `benchmark/out`, fixed at build time so the benchmark writes inside
/// the checkout it was built in wherever it is started from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Creates this process's scratch directory and arranges its removal on
/// panic and on SIGINT/SIGTERM. [`remove_scratch`] covers normal exit.
pub fn init_scratch() -> std::io::Result<PathBuf> {
    let dir = out_dir().join(format!("scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    *SCRATCH.lock().expect("scratch lock") = Some(dir.clone());

    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        remove_scratch();
        default_hook(info);
    }));
    // SAFETY: `signal` is the C library's; `on_signal` has the handler
    // signature `void(int)` and only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    std::thread::Builder::new()
        .name("bench-signal-watch".into())
        .spawn(|| loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                remove_scratch();
                std::process::exit(130);
            }
            std::thread::sleep(Duration::from_millis(50));
        })?;
    Ok(dir)
}

/// Removes the scratch directory if there is one (idempotent).
pub fn remove_scratch() {
    // `try_lock`: the panic hook may run while another thread holds the
    // lock; skipping then is better than deadlocking the abort path.
    if let Ok(mut guard) = SCRATCH.try_lock() {
        if let Some(dir) = guard.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// User + system CPU time of this process so far, in µs. The process
/// clock counts in ns; `/proc/self/stat` counts in 10 ms ticks, which
/// is a tenth of what a short slice of a slow workload uses.
pub fn cpu_time_us() -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, correctly laid out `Timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if rc != 0 {
        return 0;
    }
    time.sec as u64 * 1_000_000 + time.nsec as u64 / 1_000
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type holding `dir`, from `/proc/self/mountinfo`.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The machine facts printed with every run.
pub fn describe(scratch: &Path, seed: u64) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "host: nproc={} kernel={} scratch_fs={} seed={} commit={}",
        nproc(),
        kernel.trim(),
        fs_type(scratch),
        seed,
        git_commit()
    )
}

/// The checked-out commit, read without running git; `unknown` in an
/// exported tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        let before = cpu_time_us();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time_us() >= before + 20_000, "cpu time advances");
        assert!(peak_rss_mb() > 0.5);
        assert!(threads() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
