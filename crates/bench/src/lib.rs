//! Experiment harnesses regenerating every table and figure of the CFU
//! Playground paper (see DESIGN.md's experiment index).
//!
//! Each module owns one artifact:
//!
//! * [`fig4`] — the MobileNetV2 1x1-CONV_2D ladder (speedup + resources),
//! * [`fig6`] — the Keyword-Spotting Fomu ladder (speedup + logic cells),
//! * [`fig7`] — the CPU-vs-CFU design-space Pareto fronts,
//! * [`tables`] — the §III-A operator-time profile and the MLPerf-Tiny
//!   model inventory.
//!
//! Binaries under `src/bin/` print the same rows/series the paper
//! reports; Criterion benches under `benches/` track simulator
//! throughput on the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod micro;
pub mod svg;
pub mod tables;

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Interval between progress polls.
const PROGRESS_PERIOD: Duration = Duration::from_millis(500);

/// Runs `work` while a scoped thread polls `snapshot` every half second
/// and prints `progress: {render(snapshot)}` to stderr whenever it
/// changed (a run that finishes before the first tick prints nothing).
/// The poller is woken as soon as `work` returns or unwinds, so it adds
/// no wait to the run.
pub fn with_progress<S: Default + PartialEq, T>(
    snapshot: impl Fn() -> S + Send,
    render: impl Fn(&S) -> String + Send,
    work: impl FnOnce() -> T,
) -> T {
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut last = S::default();
            while let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(PROGRESS_PERIOD) {
                let snap = snapshot();
                if snap != last {
                    eprintln!("progress: {}", render(&snap));
                    last = snap;
                }
            }
        });
        let out = work();
        drop(done);
        out
    })
}

/// Formats a speedup for tables ("55.30x").
pub fn fmt_speedup(baseline: u64, value: u64) -> String {
    if value == 0 {
        return "inf".to_owned();
    }
    format!("{:.2}x", baseline as f64 / value as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(100, 50), "2.00x");
        assert_eq!(fmt_speedup(55, 1), "55.00x");
        assert_eq!(fmt_speedup(10, 0), "inf");
    }
}
