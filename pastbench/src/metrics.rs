//! The benchmark's metric catalogue: every metric's name, unit, the
//! direction that counts as better and, for per-layer metrics, the
//! end-to-end metric it should move and on which workload.

use std::collections::BTreeMap;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        moves,
    }
}

const HIGHER: &str = "higher";
const LOWER: &str = "lower";

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", LOWER, ""),
    spec("ops_per_s", "1/s", HIGHER, ""),
    spec("peak_rss_mb", "MB", LOWER, ""),
    spec("op_ok_ratio", "ratio", HIGHER, ""),
    spec("utilization_final", "ratio", HIGHER, ""),
    spec("msgs_per_op", "msg/op", LOWER, ""),
];

/// Printed by every traced run (`--trace 1`), on every workload; a
/// layer that a workload leaves idle reads 0 there.
pub const PER_LAYER: &[Spec] = &[
    // Workload outcomes defined on some workloads only (0 elsewhere).
    spec(
        "lookup_hops_mean",
        "hops",
        LOWER,
        "outcome on flash, churn (Fig. 8)",
    ),
    spec("cache_hit_ratio", "ratio", HIGHER, "outcome on flash"),
    spec("maint_mb", "MB", LOWER, "outcome on churn"),
    // past-workload
    spec("workload.gen_s", "s", LOWER, "setup_s on fill"),
    // past-sim
    spec("sim.build_s", "s", LOWER, "setup_s on flash, churn"),
    spec(
        "pastry.join_events_per_node",
        "events/node",
        LOWER,
        "setup_s on flash, churn",
    ),
    spec("sim.build_rss_mb", "MB", LOWER, "peak_rss_mb on flash"),
    spec(
        "sim.op_wall_us_p50",
        "us",
        LOWER,
        "ops_per_s on fill, flash",
    ),
    spec(
        "sim.op_wall_us_p99",
        "us",
        LOWER,
        "ops_per_s on fill, flash",
    ),
    spec("sim.insert_wall_us_p50", "us", LOWER, "ops_per_s on flash"),
    spec("sim.lookup_wall_us_p50", "us", LOWER, "ops_per_s on flash"),
    spec("sim.churn_faults_s", "s", LOWER, "ops_per_s on churn"),
    // past-net
    spec(
        "net.events_per_op",
        "events/op",
        LOWER,
        "ops_per_s on fill, flash, churn",
    ),
    spec("net.events_per_s", "1/s", HIGHER, "ops_per_s on churn"),
    spec(
        "net.timers_per_op",
        "timers/op",
        LOWER,
        "ops_per_s on churn",
    ),
    spec("net.queue_peak", "events", LOWER, "peak_rss_mb on churn"),
    spec("net.drop_ratio", "ratio", LOWER, "op_ok_ratio on churn"),
    // past-pastry
    spec("pastry.next_hop_ns", "ns", LOWER, "ops_per_s on flash"),
    spec(
        "pastry.replica_candidates_ns",
        "ns",
        LOWER,
        "ops_per_s on fill",
    ),
    spec(
        "pastry.route.hops_mean",
        "hops",
        LOWER,
        "lookup_hops_mean on flash",
    ),
    spec(
        "pastry.resolve.rare_ratio",
        "ratio",
        LOWER,
        "lookup_hops_mean on flash",
    ),
    // past-core
    spec(
        "core.insert.attempts_mean",
        "attempts",
        LOWER,
        "ops_per_s, op_ok_ratio on fill",
    ),
    spec(
        "core.insert.resalt_ratio",
        "ratio",
        LOWER,
        "ops_per_s, op_ok_ratio on fill",
    ),
    spec(
        "core.divert.accept_ratio",
        "ratio",
        HIGHER,
        "utilization_final on fill",
    ),
    spec(
        "core.lookup.hit_cached_ratio",
        "ratio",
        HIGHER,
        "cache_hit_ratio on flash",
    ),
    spec(
        "core.lookup.retry_ratio",
        "ratio",
        LOWER,
        "op_ok_ratio on churn",
    ),
    spec(
        "core.maint.exhausted",
        "count",
        LOWER,
        "op_ok_ratio on churn",
    ),
    spec(
        "core.maint.retry_ratio",
        "ratio",
        LOWER,
        "maint_mb, msgs_per_op on churn",
    ),
    // past-store
    spec(
        "store.replica.diverted_ratio",
        "ratio",
        LOWER,
        "utilization_final on fill",
    ),
    spec(
        "store.replica.reject_per_insert",
        "rejects/insert",
        LOWER,
        "ops_per_s on fill",
    ),
    spec("store.accept_ns", "ns", LOWER, "ops_per_s on fill"),
    spec(
        "store.cache.hit_ratio",
        "ratio",
        HIGHER,
        "cache_hit_ratio on flash",
    ),
    spec(
        "store.cache.evict_per_insert",
        "evictions/insert",
        LOWER,
        "cache_hit_ratio on flash",
    ),
    spec("store.cache.probe_ns", "ns", LOWER, "ops_per_s on flash"),
    spec("store.cache.insert_ns", "ns", LOWER, "ops_per_s on flash"),
    // past-crypto
    spec("crypto.file_id_ns", "ns", LOWER, "ops_per_s on fill"),
    spec("crypto.cert_issue_ns", "ns", LOWER, "ops_per_s on fill"),
    // past-obs
    spec(
        "obs.overhead_ratio",
        "ratio",
        LOWER,
        "none: the traced run's own cost",
    ),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad metric name {:?}", s.name);
            assert!(
                s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                s.unit
            );
            assert!(s.better == HIGHER || s.better == LOWER);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.iter().all(|s| !s.moves.is_empty()));
    }

    #[test]
    fn name_check_rejects_outside_characters() {
        assert!(valid_name("net.events_per_op"));
        assert!(valid_name("p99-x_1"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
