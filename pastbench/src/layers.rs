//! Per-layer numbers: micro-timings of single public functions, fed
//! the workload's own inputs, and ratios of the `past-obs` counters the
//! crates already keep.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use past_core::PastOverlayNode;
use past_crypto::{compute_file_id, Digest, FileCertificate, KeyPair, Scheme};
use past_id::{FileId, NodeId};
use past_net::{NetStats, Simulator};
use past_obs::MetricsRegistry;
use past_pastry::NodeEntry;
use past_store::{Cache, CachePolicyKind, NodeStore, StorePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{ratio, Values};
use crate::stats::median;

/// Repetitions of each micro-timing; the median is reported.
const REPS: usize = 7;

/// Median over [`REPS`] runs of `pass`, in nanoseconds per call, where
/// one pass makes `calls` calls.
fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// `pastry.next_hop_ns` and `pastry.replica_candidates_ns`: every built
/// node routes the same key sample.
pub fn routing(
    sim: &Simulator<PastOverlayNode>,
    entries: &[NodeEntry],
    keys: &[NodeId],
    v: &mut Values,
) {
    let states: Vec<_> = entries
        .iter()
        .filter_map(|e| sim.node(e.addr))
        .map(|n| n.state())
        .collect();
    let calls = states.len() * keys.len();
    v.insert(
        "pastry.next_hop_ns",
        ns_per_call(calls, || {
            for s in &states {
                for &k in keys {
                    black_box(s.next_hop(black_box(k), false, 0.9, None));
                }
            }
        }),
    );
    v.insert(
        "pastry.replica_candidates_ns",
        ns_per_call(calls, || {
            for s in &states {
                for &k in keys {
                    black_box(s.replica_candidates(black_box(k), 5));
                }
            }
        }),
    );
}

/// The store, cache and crypto micro-timings, fed the names and sizes
/// of the workload's files (`files`) and a request sequence over them
/// (`requests`, indices into `files`).
pub fn store_and_crypto(files: &[(String, u64)], requests: &[usize], seed: u64, v: &mut Values) {
    let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(seed));
    let public = owner.public();
    let n = files.len();

    v.insert(
        "crypto.file_id_ns",
        ns_per_call(n, || {
            for (name, _) in files {
                black_box(compute_file_id(black_box(name), &public, 0));
            }
        }),
    );
    v.insert(
        "crypto.cert_issue_ns",
        ns_per_call(n, || {
            for (name, size) in files {
                black_box(FileCertificate::issue_unsigned(
                    &owner,
                    name,
                    Digest([0; 20]),
                    *size,
                    5,
                    0,
                    0,
                ));
            }
        }),
    );

    // One store sized to the sample, so acceptance rejections begin as
    // it fills, as they do on a real node.
    let certs: Vec<_> = files
        .iter()
        .map(|(name, size)| {
            Arc::new(FileCertificate::issue_unsigned(
                &owner,
                name,
                Digest([0; 20]),
                *size,
                5,
                0,
                0,
            ))
        })
        .collect();
    let capacity: u64 = files.iter().map(|f| f.1).sum::<u64>().max(1);
    let policy = StorePolicy {
        t_pri: 0.1,
        t_div: 0.05,
        cache_fraction: 1.0,
    };
    let mut fresh: Vec<NodeStore<u32>> = (0..REPS)
        .map(|_| NodeStore::new(capacity, policy, CachePolicyKind::None))
        .collect();
    let mut filled = Vec::with_capacity(REPS);
    v.insert(
        "store.accept_ns",
        ns_per_call(n, || {
            let mut store = fresh.pop().expect("one fresh store per repetition");
            for cert in &certs {
                if store.accepts_primary(cert.file_size) {
                    black_box(store.store_primary(cert.clone()).is_ok());
                }
            }
            filled.push(store);
        }),
    );

    // A GDS cache at a tenth of the sample's bytes.
    let ids: Vec<FileId> = certs.iter().map(|c| c.file_id).collect();
    let budget = capacity / 10;
    let mut fresh: Vec<Cache> = (0..REPS)
        .map(|_| Cache::new(CachePolicyKind::GreedyDualSize))
        .collect();
    let mut filled = Vec::with_capacity(REPS);
    v.insert(
        "store.cache.insert_ns",
        ns_per_call(n, || {
            let mut cache = fresh.pop().expect("one fresh cache per repetition");
            for (id, (_, size)) in ids.iter().zip(files) {
                black_box(cache.insert(*id, *size, budget));
            }
            filled.push(cache);
        }),
    );
    let mut cache = filled.pop().expect("a filled cache");
    v.insert(
        "store.cache.probe_ns",
        ns_per_call(requests.len(), || {
            for &r in requests {
                black_box(cache.probe(ids[r]));
            }
        }),
    );
}

/// Routing keys: fileIds of the workload's first files.
pub fn sample_keys(names: &[String], seed: u64) -> Vec<NodeId> {
    let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(seed));
    names
        .iter()
        .map(|n| compute_file_id(n, &owner.public(), 0).as_key())
        .collect()
}

/// Messages sent (delivered plus dropped) between two snapshots.
pub fn sent(before: &NetStats, after: &NetStats) -> u64 {
    after.delivered + after.dropped - before.delivered - before.dropped
}

/// The `past-net` numbers of a timed phase that issued `ops` client
/// operations in `secs` wall seconds.
pub fn net(before: &NetStats, after: &NetStats, ops: u64, secs: f64, v: &mut Values) {
    let events = (after.events - before.events) as f64;
    let ops = ops as f64;
    v.insert("net.events_per_op", ratio(events, ops));
    v.insert("net.events_per_s", ratio(events, secs));
    v.insert(
        "net.timers_per_op",
        ratio((after.timers_fired - before.timers_fired) as f64, ops),
    );
    v.insert("net.queue_peak", after.queue_peak as f64);
    v.insert(
        "net.drop_ratio",
        ratio(
            (after.dropped - before.dropped) as f64,
            sent(before, after) as f64,
        ),
    );
}

fn count(m: &MetricsRegistry, name: &str) -> f64 {
    m.counter_value(name) as f64
}

fn mean(m: &MetricsRegistry, name: &str) -> f64 {
    m.histogram(name)
        .map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64))
}

fn cache_count(m: &MetricsRegistry, event: &str) -> f64 {
    ["gds", "lru", "poprand", "none"]
        .iter()
        .map(|p| count(m, &format!("store.cache.{event}.{p}")))
        .sum()
}

/// The per-layer ratios read from the crates' own counters.
pub fn counters(m: &MetricsRegistry, v: &mut Values) {
    let resolves: f64 = ["local", "leaf_set", "table", "rare"]
        .iter()
        .map(|c| count(m, &format!("pastry.resolve.{c}")))
        .sum();
    v.insert("pastry.route.hops_mean", mean(m, "pastry.route.hops"));
    v.insert(
        "pastry.resolve.rare_ratio",
        ratio(count(m, "pastry.resolve.rare"), resolves),
    );

    let inserts = count(m, "past.insert.started");
    v.insert("core.insert.attempts_mean", mean(m, "past.insert.attempts"));
    v.insert(
        "core.insert.resalt_ratio",
        ratio(count(m, "past.insert.re_salt"), inserts),
    );
    let accepted = count(m, "past.divert.accepted");
    v.insert(
        "core.divert.accept_ratio",
        ratio(accepted, accepted + count(m, "past.divert.rejected")),
    );
    v.insert(
        "core.lookup.hit_cached_ratio",
        ratio(
            count(m, "past.lookup.hit.cached"),
            count(m, "past.lookup.ok"),
        ),
    );
    v.insert(
        "core.lookup.retry_ratio",
        ratio(
            count(m, "past.lookup.retry"),
            count(m, "past.lookup.started"),
        ),
    );
    v.insert("core.maint.exhausted", count(m, "maint.exhausted"));
    v.insert(
        "core.maint.retry_ratio",
        ratio(count(m, "maint.retry"), count(m, "maint.sent")),
    );

    let primary = count(m, "store.replica.primary");
    let diverted = count(m, "store.replica.diverted");
    v.insert(
        "store.replica.diverted_ratio",
        ratio(diverted, primary + diverted),
    );
    v.insert(
        "store.replica.reject_per_insert",
        ratio(count(m, "store.replica.reject"), inserts),
    );
    let hits = cache_count(m, "hit");
    v.insert(
        "store.cache.hit_ratio",
        ratio(hits, hits + cache_count(m, "miss")),
    );
    v.insert(
        "store.cache.evict_per_insert",
        ratio(cache_count(m, "evict"), cache_count(m, "insert")),
    );
}
