//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a fifth or
//! more within minutes, as neighbouring work contends for the caches
//! and memory. A fixed reference kernel, a priority queue and a hash
//! map under churn, is timed between iterations; on the 2-vCPU host the
//! benchmark was tuned on, scaling by it cut the spread of run medians
//! over 8 seeds from 0.24 to 0.09 (`churn`) and from 0.18 to 0.09
//! (`flash`) while the host was noisy. A run's wall-clock figures are
//! scaled by `median probe time / REFERENCE_S`, reporting them at the
//! reference host speed: a change in the simulator moves them, and host
//! drift mostly cancels.
//!
//! The kernel uses only `std` and none of the repository's crates, and
//! it runs in a child process (`pastbench --probe-server`) with a heap
//! of its own, so no change to the simulator changes its time. It runs
//! only while the benchmark waits between iterations, and stays out of
//! the benchmark's resident set and `peak_rss_mb`.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// Probe time on the reference host (2-vCPU Xeon VM), the median over
/// many probes: the speed every scaled figure is reported at.
pub const REFERENCE_S: f64 = 0.085;

/// Operations of the reference kernel.
const TABLE_OPS: u64 = 300_000;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A priority queue and a hash map under mixed inserts, pops and
/// lookups, the shape of a discrete-event simulator's inner loop.
fn tables() {
    let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..TABLE_OPS {
        let k = mix(i);
        heap.push((k % 100_000, i));
        map.insert(k % 200_000, i);
        if heap.len() > 50_000 {
            acc ^= heap.pop().map_or(0, |e| e.1);
        }
        acc ^= map.get(&(mix(i + 7) % 200_000)).copied().unwrap_or(0);
    }
    black_box(acc);
}

/// Wall seconds of one pass of the reference kernel.
pub fn probe() -> f64 {
    let t = Instant::now();
    tables();
    t.elapsed().as_secs_f64()
}

/// The probe server's loop: one probe per line read from standard
/// input, its wall seconds written as one line to standard output,
/// until standard input closes.
pub fn serve() {
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        if line.is_err()
            || writeln!(out, "{}", probe())
                .and_then(|_| out.flush())
                .is_err()
        {
            break;
        }
    }
}

/// A running probe server. Dropping it closes the server's standard
/// input and waits for it to exit.
pub struct Prober {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Prober {
    pub fn spawn() -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--probe-server")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Prober {
            child,
            stdin,
            stdout,
        })
    }

    /// Wall seconds of one probe.
    pub fn probe(&mut self) -> io::Result<f64> {
        let stdin = self.stdin.as_mut().expect("stdin open until drop");
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.trim().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("probe replied {line:?}"),
            )
        })
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// How much slower than the reference host this one ran over a whole
/// run: the median of its probe times over [`REFERENCE_S`].
pub fn slowdown(probes: &[f64]) -> f64 {
    median(probes).expect("at least one probe") / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_at_reference_speed() {
        assert_eq!(slowdown(&[REFERENCE_S]), 1.0);
        let probes = [REFERENCE_S, 2.0 * REFERENCE_S, 9.0 * REFERENCE_S];
        assert_eq!(slowdown(&probes), 2.0);
    }
}
