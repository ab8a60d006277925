//! A [`Workload`] wrapper that timestamps every op the runner pulls.
//!
//! `Runner::run` is closed-loop: it pulls op *i* from `ops_iter`, drives
//! the network until the op completes, then pulls op *i + 1*. The time
//! between two successive pulls is therefore the wall time of one
//! operation, measured from outside the simulator.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use past_workload::{TraceOp, Workload};

/// One pull from the op iterator: when it happened and what it returned
/// (`None` for the final pull that ends the replay).
#[derive(Clone, Copy, Debug)]
struct Pull {
    at: Instant,
    op: Option<TraceOp>,
}

/// Wraps a workload and records the instant of every `ops_iter` pull.
pub struct Timed<'a, W: Workload + ?Sized> {
    inner: &'a W,
    pulls: RefCell<Vec<Pull>>,
}

impl<'a, W: Workload + ?Sized> Timed<'a, W> {
    pub fn new(inner: &'a W) -> Self {
        Timed {
            inner,
            pulls: RefCell::new(Vec::with_capacity(inner.op_count() + 1)),
        }
    }

    /// Each replayed op with its start instant and wall duration, in
    /// trace order. Empty until the iterator has been drained.
    pub fn op_times(&self) -> Vec<(TraceOp, Instant, Duration)> {
        self.pulls
            .borrow()
            .windows(2)
            .filter_map(|w| Some((w[0].op?, w[0].at, w[1].at - w[0].at)))
            .collect()
    }
}

impl<W: Workload + ?Sized> Workload for Timed<'_, W> {
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
    fn unique_files(&self) -> usize {
        self.inner.unique_files()
    }
    fn op_count(&self) -> usize {
        self.inner.op_count()
    }
    fn client_count(&self) -> u32 {
        self.inner.client_count()
    }
    fn cluster_of_client(&self, c: u32) -> u32 {
        self.inner.cluster_of_client(c)
    }
    fn file_size(&self, i: u32) -> u64 {
        self.inner.file_size(i)
    }
    fn file_name(&self, i: u32) -> String {
        self.inner.file_name(i)
    }
    fn ops_iter(&self) -> Box<dyn Iterator<Item = TraceOp> + '_> {
        self.pulls.borrow_mut().clear();
        let mut ops = self.inner.ops_iter();
        let pulls = &self.pulls;
        Box::new(std::iter::from_fn(move || {
            let at = Instant::now();
            let op = ops.next();
            pulls.borrow_mut().push(Pull { at, op });
            op
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_workload::{FlashCrowdConfig, WebTraceConfig};

    #[test]
    fn yields_the_wrapped_op_sequence_and_metadata() {
        let trace = WebTraceConfig {
            seed: 7,
            ..WebTraceConfig::default().with_unique_files(500)
        }
        .generate();
        let timed = Timed::new(&trace);
        let direct: Vec<TraceOp> = trace.ops_iter().collect();
        let wrapped: Vec<TraceOp> = timed.ops_iter().collect();
        assert_eq!(wrapped, direct);
        assert_eq!(timed.op_count(), trace.op_count());
        assert_eq!(timed.total_bytes(), trace.total_bytes());
        assert_eq!(timed.unique_files(), trace.unique_files());
        assert_eq!(timed.client_count(), trace.client_count());
        for i in 0..trace.unique_files() as u32 {
            assert_eq!(timed.file_size(i), trace.file_size(i));
            assert_eq!(timed.file_name(i), trace.file_name(i));
        }
        // One timed entry per op, in trace order.
        let times = timed.op_times();
        assert_eq!(times.len(), direct.len());
        assert!(times.iter().map(|t| t.0).eq(direct.iter().copied()));
        assert!(times.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn a_second_pass_restarts_the_log() {
        let trace = FlashCrowdConfig::default().with_unique_files(100).stream();
        let timed = Timed::new(&trace);
        let first: Vec<TraceOp> = timed.ops_iter().collect();
        let second: Vec<TraceOp> = timed.ops_iter().collect();
        assert_eq!(first, second);
        assert_eq!(timed.op_times().len(), trace.op_count());
    }
}
