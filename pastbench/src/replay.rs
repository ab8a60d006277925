//! The `fill` and `flash` workloads: a seeded trace replayed closed-loop
//! through `Runner::build` / `Runner::run`.

use std::time::Instant;

use past_net::NetStats;
use past_obs::Recorder;
use past_sim::{ExperimentConfig, ExperimentResult, Runner, TopologyKind};
use past_store::CachePolicyKind;
use past_workload::{FlashCrowdConfig, Trace, WebTraceConfig, Workload};

use crate::layers;
use crate::metrics::ratio;
use crate::spans::SpanLog;
use crate::stats::percentile;
use crate::timed::Timed;
use crate::{derive_seed, Iteration, Outcome, Traced};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Insert-only NLANR-like trace until storage is nearly full
    /// (Table 2).
    Fill,
    /// Flash-crowd trace with lookups replayed through GDS caches on a
    /// clustered topology (Figs. 7–8).
    Flash,
}

/// Largest file in the `fill` trace, in bytes.
const FILL_MAX_SIZE: f64 = 2.9e6;

/// Unique files in the paper's NLANR trace.
const PAPER_FILES: f64 = 1_863_055.0;

fn flash_max_size(files: usize) -> f64 {
    FlashCrowdConfig::default().max_size * files as f64 / PAPER_FILES
}

/// Overlay and trace sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub nodes: usize,
    pub files: usize,
}

impl Kind {
    pub fn sizes(self) -> Sizes {
        match self {
            // About the paper's 830 files per node (1.86M / 2250), so
            // replica diversion, file diversion and refused inserts all
            // occur before the trace ends.
            Kind::Fill => Sizes {
                nodes: 450,
                files: 373_000,
            },
            Kind::Flash => Sizes {
                nodes: 2000,
                files: 20_000,
            },
        }
    }

    fn trace(self, seed: u64) -> Trace {
        let files = self.sizes().files;
        let seed = derive_seed(seed, 1);
        match self {
            // The default trace's files above ~3 MB, a tenth of an
            // average node's capacity, can never be stored (t_pri =
            // 0.1). They are 0.03 % of the files but hold a
            // seed-dependent third of the bytes, and capacity is scaled
            // to all bytes, so their share swung final utilization
            // between 0.80 and 0.97 and messages per insert by an
            // eighth between seeds.
            Kind::Fill => WebTraceConfig {
                seed,
                max_size: FILL_MAX_SIZE,
                ..WebTraceConfig::default().with_unique_files(files)
            }
            .generate(),
            // The largest file keeps the byte share it has in the
            // paper's trace (138 MB of 18.7 GB). Unscaled, one file can
            // hold half of a 20k-file trace's bytes, and whether a seed
            // drew one swings utilization and message counts by a fifth
            // between seeds.
            Kind::Flash => FlashCrowdConfig {
                seed,
                max_size: flash_max_size(files),
                ..FlashCrowdConfig::default().with_unique_files(files)
            }
            .generate(),
        }
    }

    fn config(self, seed: u64) -> ExperimentConfig {
        let base = ExperimentConfig {
            nodes: self.sizes().nodes,
            seed: derive_seed(seed, 2),
            ..Default::default()
        };
        match self {
            // With every file storable, demand equal to capacity fills
            // storage to 92-96 %.
            Kind::Fill => ExperimentConfig {
                overcommit: 1.0,
                ..base
            },
            // The small-cache regime (c = 0.1), where the cache-size
            // frontier already peaks.
            Kind::Flash => ExperimentConfig {
                replay_lookups: true,
                cache_policy: CachePolicyKind::GreedyDualSize,
                cache_fraction: 0.1,
                topology: TopologyKind::Clustered { clusters: 8 },
                ..base
            },
        }
    }

    pub fn describe(self) -> String {
        let s = self.sizes();
        match self {
            Kind::Fill => format!(
                "{} nodes, {} files, insert-only web trace (max file {:.1} MB, overcommit 1.0), d1 capacities, k=5, l=32, t_pri=0.1, t_div=0.05, caches off",
                s.nodes,
                s.files,
                FILL_MAX_SIZE / 1e6
            ),
            Kind::Flash => format!(
                "{} nodes, {} files x7 requests, flash-crowd trace (max file {:.2} MB), GDS caches c=0.1, 8-cluster topology, k=5, l=32",
                s.nodes,
                s.files,
                flash_max_size(s.files) / 1e6
            ),
        }
    }

    /// Trace generation plus overlay build, the workload's set-up.
    pub fn setup(self, seed: u64, log: &mut SpanLog) -> (Trace, Runner, f64, f64) {
        let t = Instant::now();
        let span = log.enter("workload.gen");
        let trace = self.trace(seed);
        log.exit(span);
        let gen_s = t.elapsed().as_secs_f64();
        let span = log.enter("sim.build");
        let runner = Runner::build(self.config(seed), &trace);
        log.exit(span);
        (trace, runner, gen_s, t.elapsed().as_secs_f64())
    }

    /// One set-up plus one timed replay. With `traced`, the replay runs
    /// under a `past-obs` recorder with every op timed, and the layer
    /// micro-timings run on the built overlay first.
    pub fn iterate(
        self,
        seed: u64,
        log: &mut SpanLog,
        mut traced: Option<&mut Traced>,
    ) -> Iteration {
        let iteration = log.enter("iteration");
        let rss_before = past_obs::mem::rss_kb();
        let (trace, runner, gen_s, setup_s) = self.setup(seed, log);
        let build_rss_mb = past_obs::mem::rss_kb().saturating_sub(rss_before) as f64 / 1024.0;
        let built = runner.sim().stats();
        if let Some(t) = traced.as_deref_mut() {
            let v = &mut t.layer;
            v.insert("workload.gen_s", gen_s);
            v.insert("sim.build_s", setup_s - gen_s);
            v.insert(
                "pastry.join_events_per_node",
                ratio(built.events as f64, runner.entries().len() as f64),
            );
            let span = log.enter("layers.micro");
            let names: Vec<String> = (0..64).map(|i| trace.file_name(i)).collect();
            let keys = layers::sample_keys(&names, seed);
            layers::routing(runner.sim(), runner.entries(), &keys, v);
            let sample = trace.unique_files().min(4096);
            let files: Vec<(String, u64)> = (0..sample as u32)
                .map(|i| (trace.file_name(i), trace.file_size(i)))
                .collect();
            let requests: Vec<usize> = trace
                .ops
                .iter()
                .map(|op| op.file as usize)
                .filter(|&f| f < sample)
                .collect();
            layers::store_and_crypto(&files, &requests, seed, v);
            log.exit(span);
        }

        let span = log.enter("sim.replay");
        let t = Instant::now();
        let (result, timed_ops) = match traced {
            None => (runner.run(&trace), Vec::new()),
            Some(_) => {
                let timed = Timed::new(&trace);
                past_obs::install(Recorder::new());
                let result = runner.run(&timed);
                (result, timed.op_times())
            }
        };
        let timed_s = t.elapsed().as_secs_f64();
        let recorder = past_obs::uninstall();
        let issued = self.issued(&trace, &result);
        let outcome = self.outcome(&trace, &issued, &result, &built);
        if let Some(t) = traced {
            let mut all = Vec::new();
            let mut inserts = Vec::new();
            let mut lookups = Vec::new();
            for ((op, start, len), issued) in timed_ops.into_iter().zip(issued) {
                if !issued {
                    continue;
                }
                log.record(
                    if op.is_insert {
                        "op.insert"
                    } else {
                        "op.lookup"
                    },
                    start,
                    len,
                );
                let us = len.as_secs_f64() * 1e6;
                all.push(us);
                if op.is_insert {
                    &mut inserts
                } else {
                    &mut lookups
                }
                .push(us);
            }
            let v = &mut t.layer;
            v.insert("sim.op_wall_us_p50", percentile(&all, 50.0).unwrap_or(0.0));
            v.insert("sim.op_wall_us_p99", percentile(&all, 99.0).unwrap_or(0.0));
            v.insert(
                "sim.insert_wall_us_p50",
                percentile(&inserts, 50.0).unwrap_or(0.0),
            );
            v.insert(
                "sim.lookup_wall_us_p50",
                percentile(&lookups, 50.0).unwrap_or(0.0),
            );
            t.sample_counts = vec![
                ("ops", all.len()),
                ("inserts", inserts.len()),
                ("lookups", lookups.len()),
            ];
            if let Some(rec) = recorder {
                layers::counters(rec.metrics(), v);
            }
            layers::net(&built, &result.net, outcome.ops, timed_s, v);
        }
        log.exit(span);
        log.exit(iteration);
        Iteration {
            setup_s,
            build_rss_mb,
            timed_s,
            outcome,
        }
    }

    /// Which trace entries the runner issued as client operations: an
    /// insert-only replay skips repeat references, and lookups of files
    /// whose insert failed are skipped too.
    fn issued(self, trace: &Trace, result: &ExperimentResult) -> Vec<bool> {
        // Closed-loop replay completes inserts in trace order, one
        // record per insert, so the k-th insert op is `inserts[k]`.
        let mut stored = vec![false; trace.unique_files()];
        let mut records = result.inserts.iter();
        trace
            .ops
            .iter()
            .map(|op| {
                if op.is_insert {
                    stored[op.file as usize] = records.next().is_some_and(|r| r.success);
                    true
                } else {
                    self == Kind::Flash && stored[op.file as usize]
                }
            })
            .collect()
    }

    fn outcome(
        self,
        trace: &Trace,
        issued: &[bool],
        result: &ExperimentResult,
        built: &NetStats,
    ) -> Outcome {
        let issued_inserts = trace.ops.iter().filter(|op| op.is_insert).count() as u64;
        let issued_lookups = issued.iter().filter(|&&b| b).count() as u64 - issued_inserts;
        let cache_hits = result.lookups.iter().filter(|l| l.cache_hit).count() as u64;
        let mut checks = vec![
            (
                format!(
                    "stored bytes {} <= capacity {}",
                    result.stored_bytes, result.total_capacity
                ),
                result.stored_bytes <= result.total_capacity,
            ),
            (
                format!(
                    "each of {} unique files inserted once: {} insert completions, {} records",
                    trace.unique_files(),
                    result.inserts_total,
                    result.inserts.len()
                ),
                issued_inserts == trace.unique_files() as u64
                    && result.inserts_total == issued_inserts
                    && result.inserts.len() as u64 == issued_inserts,
            ),
        ];
        if self == Kind::Flash {
            checks.push((
                format!(
                    "every lookup of an inserted file found: {}/{} found, {} issued",
                    result.lookups_ok, result.lookups_total, issued_lookups
                ),
                result.lookups_ok == issued_lookups && result.lookups_total == issued_lookups,
            ));
            checks.push((
                format!(
                    "cache hits {} <= lookups {}",
                    cache_hits, result.lookups_total
                ),
                cache_hits <= result.lookups_total,
            ));
        }
        let failed = issued_inserts.abs_diff(result.inserts_total)
            + if self == Kind::Flash {
                issued_lookups - result.lookups_ok.min(issued_lookups)
            } else {
                0
            };
        Outcome {
            ops: issued_inserts + issued_lookups,
            ok: result.inserts_ok + result.lookups_ok,
            failed,
            msgs: layers::sent(built, &result.net),
            utilization: result.final_utilization(),
            lookups: result.lookups_total,
            lookup_hops: result.lookups.iter().map(|l| u64::from(l.hops)).sum(),
            cache_hits,
            maint_bytes: 0,
            checks,
        }
    }
}
