//! The `churn` workload: `ChurnRunner` with keep-alives and per-hop acks
//! inserts a working set, then lookups are issued at a fixed sim-time
//! gap while nodes crash and recover under light message loss; the
//! overlay then heals and the §3.5 invariants are audited.

use std::time::Instant;

use past_net::{FaultPlan, SimDuration};
use past_obs::Recorder;
use past_sim::{ChurnConfig, ChurnRunner};

use crate::layers;
use crate::metrics::ratio;
use crate::spans::SpanLog;
use crate::{derive_seed, Iteration, Outcome, Traced};

const NODES: usize = 700;
/// Files inserted before churn starts.
const FILES: usize = 64;
/// Lookups issued during churn, one every [`GAP_MS`] of sim time.
const LOOKUPS: usize = 4000;
const GAP_MS: u64 = 250;
const MTBF_S: u64 = 300;
const DOWNTIME_S: u64 = 15;
const LOSS: f64 = 0.01;

pub fn describe() -> String {
    format!(
        "{NODES} nodes, {FILES} files, {LOOKUPS} lookups every {GAP_MS} ms sim time, Poisson churn mtbf {MTBF_S} s / downtime {DOWNTIME_S} s, loss {LOSS}, keep-alives + per-hop acks"
    )
}

/// Overlay build plus the initial inserts, the workload's set-up.
pub fn setup(seed: u64, log: &mut SpanLog) -> (ChurnRunner, f64, f64) {
    let t = Instant::now();
    let span = log.enter("churn.build");
    let mut r = ChurnRunner::build(ChurnConfig {
        nodes: NODES,
        files: FILES,
        seed: derive_seed(seed, 3),
        ..Default::default()
    });
    log.exit(span);
    let build_s = t.elapsed().as_secs_f64();
    let span = log.enter("churn.insert");
    r.insert_files();
    log.exit(span);
    (r, build_s, t.elapsed().as_secs_f64())
}

/// Storage used over storage offered, across every node.
fn utilization(r: &ChurnRunner) -> f64 {
    let (used, capacity) = r
        .entries()
        .iter()
        .filter_map(|e| r.sim().node(e.addr))
        .map(|n| n.app().store())
        .fold((0u64, 0u64), |(u, c), s| {
            (u + s.replica_used(), c + s.capacity())
        });
    ratio(used as f64, capacity as f64)
}

pub fn iterate(seed: u64, log: &mut SpanLog, mut traced: Option<&mut Traced>) -> Iteration {
    let iteration = log.enter("iteration");
    let rss_before = past_obs::mem::rss_kb();
    let (mut r, build_s, setup_s) = setup(seed, log);
    let build_rss_mb = past_obs::mem::rss_kb().saturating_sub(rss_before) as f64 / 1024.0;
    let built = r.net_stats();
    if let Some(t) = traced.as_deref_mut() {
        let v = &mut t.layer;
        v.insert("sim.build_s", build_s);
        v.insert(
            "pastry.join_events_per_node",
            ratio(built.events as f64, NODES as f64),
        );
        let span = log.enter("layers.micro");
        let names: Vec<String> = (0..FILES).map(|i| format!("churn{i}")).collect();
        let keys = layers::sample_keys(&names, seed);
        layers::routing(r.sim(), r.entries(), &keys, v);
        let files: Vec<(String, u64)> = names
            .iter()
            .map(|n| (n.clone(), ChurnConfig::default().file_size))
            .collect();
        let requests: Vec<usize> = (0..LOOKUPS).map(|i| i % FILES).collect();
        layers::store_and_crypto(&files, &requests, seed, v);
        log.exit(span);
        past_obs::install(Recorder::new());
    }

    let maint_before = r.maint_totals();
    let before = r.net_stats();
    let gap = SimDuration::from_millis(GAP_MS);
    let span = log.enter("churn.faults");
    let t = Instant::now();
    let plan = r.poisson_plan(
        SimDuration::from_secs(MTBF_S),
        SimDuration::from_secs(DOWNTIME_S),
        SimDuration(gap.0 * LOOKUPS as u64),
    );
    r.set_loss_probability(LOSS);
    r.run_with_faults(plan, SimDuration::ZERO);
    r.lookup_round(LOOKUPS, gap);
    let timed_s = t.elapsed().as_secs_f64();
    log.exit(span);
    let after = r.net_stats();

    let span = log.enter("churn.heal");
    r.set_loss_probability(0.0);
    r.run_with_faults(FaultPlan::new(), SimDuration::ZERO);
    r.time_to_full_replication(SimDuration::from_secs(1), SimDuration::from_secs(300));
    r.heal(SimDuration::from_secs(10));
    log.exit(span);
    let span = log.enter("churn.audit");
    let report = r.audit();
    log.exit(span);
    let recorder = past_obs::uninstall();
    let maint = r.maint_totals();
    let maint_bytes = maint.bytes_rereplication + maint.bytes_refresh
        - maint_before.bytes_rereplication
        - maint_before.bytes_refresh;

    let (attempted, ok) = r.lookup_totals();
    let checks = vec![
        (
            format!("invariants clean after heal: {}", report.summary()),
            report.is_clean(),
        ),
        (
            format!("every lookup accounted for: {attempted} issued of {LOOKUPS}, {ok} found"),
            attempted == LOOKUPS && ok <= attempted,
        ),
    ];
    let outcome = Outcome {
        ops: LOOKUPS as u64,
        ok: ok as u64,
        failed: LOOKUPS.abs_diff(attempted) as u64,
        msgs: layers::sent(&before, &after),
        utilization: utilization(&r),
        lookups: attempted as u64,
        lookup_hops: 0,
        cache_hits: 0,
        maint_bytes,
        checks,
    };

    if let Some(t) = traced {
        let v = &mut t.layer;
        v.insert("sim.churn_faults_s", timed_s);
        layers::net(&before, &after, outcome.ops, timed_s, v);
        if let Some(rec) = recorder {
            layers::counters(rec.metrics(), v);
            let hops = rec.metrics().histogram("past.lookup.hops");
            v.insert(
                "lookup_hops_mean",
                hops.map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64)),
            );
        }
    }
    log.exit(iteration);
    Iteration {
        setup_s,
        build_rss_mb,
        timed_s,
        outcome,
    }
}
