//! Runs one child process and measures it the way a user's shell would:
//! wall-clock from spawn to reap, plus the child's own CPU time and peak
//! resident set from `wait4(2)`'s resource usage.

use std::ffi::OsStr;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub wall: Duration,
    /// User + system CPU seconds of the child (and its threads).
    pub cpu_s: f64,
    /// Peak resident set of the child, in MiB.
    pub peak_rss_mib: f64,
    /// `Some(code)` for a normal exit, `None` when a signal killed it.
    pub exit_code: Option<i32>,
}

/// Runs `program args…`, sending its standard output and error to
/// `stdout_path` and `stderr_path`, and waits for it.
pub fn run<S: AsRef<OsStr>>(
    program: &Path,
    args: &[S],
    stdout_path: &Path,
    stderr_path: &Path,
) -> std::io::Result<Usage> {
    let stdout = File::create(stdout_path)?;
    let stderr = File::create(stderr_path)?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        // A fault-injection plan left in the environment would change
        // what the figure binaries compute.
        .env_remove("CFU_FAULT_PLAN")
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    // The child is reaped by `wait4` below, never by `Child::wait`, so
    // dropping the handle afterwards neither waits nor kills.
    let (status, usage) = sys::wait_child(pid)?;
    let wall = start.elapsed();
    drop(child);
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Usage {
        wall,
        cpu_s: usage.cpu_s,
        peak_rss_mib: usage.max_rss_kib as f64 / 1024.0,
        exit_code,
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` counters of which only `ru_maxrss` (KiB) is read here.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }

    pub struct ChildUsage {
        pub cpu_s: f64,
        pub max_rss_kib: i64,
    }

    /// Blocks until child `pid` ends; returns its raw wait status and
    /// resource usage.
    pub fn wait_child(pid: i32) -> std::io::Result<(i32, ChildUsage)> {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable locals whose
            // layouts match the C `int` and 64-bit Linux `struct rusage`
            // that wait4 fills; `pid` names a child this process spawned
            // and has not reaped.
            let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if ret == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        let cpu_s = secs(&usage.utime) + secs(&usage.stime);
        Ok((status, ChildUsage { cpu_s, max_rss_kib: usage.maxrss }))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    compile_error!("the artifact benchmark reads child rusage through 64-bit Linux wait4(2)");
}
