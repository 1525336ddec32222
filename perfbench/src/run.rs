//! One engine run, timed from outside and checked against the
//! reference.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streambal_metrics::Histogram;
use streambal_runtime::{Collector, Engine, EngineReport, Operator};
use streambal_trace::EventKind;

use crate::probe::{
    feeder, MergeLog, OpLog, PlanLog, ProbeCollector, ProbeOp, ProbePartitioner, Stamps,
};
use crate::report::{cpu_ticks, steal_pct};
use crate::workload::{Feed, Reference};

/// The logs a traced run's wrappers fill.
#[derive(Debug, Default)]
pub struct Logs {
    pub plan: Arc<Mutex<PlanLog>>,
    pub op: Arc<Mutex<OpLog>>,
    pub merge: Arc<Mutex<MergeLog>>,
}

/// What one run measured. The wall time splits exactly into
/// `setup + active + teardown` (contiguous stamps).
#[derive(Debug)]
pub struct Run {
    /// `Engine::run` entry → first feeder call.
    pub setup_s: f64,
    /// First feeder call → end of the last `Operator::drain`.
    pub active_s: f64,
    /// End of the last drain → `Engine::run` return.
    pub teardown_s: f64,
    /// `Engine::run` entry → return.
    pub wall_s: f64,
    /// Fed tuples per active second.
    pub tps: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// Peak resident set during the run (MB), feed included.
    pub peak_rss_mb: f64,
    /// Mean over intervals of the controller snapshots' max/mean − 1.
    pub imbalance_theta: f64,
    pub migrated_mb: f64,
    /// Routing-table entries at the source's last interval.
    pub table_entries: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// run (%; 0 where the kernel does not report it).
    pub steal_pct: f64,
    /// Fed tuples lost or miscounted against the reference.
    pub failed: u64,
    /// Everything the check found wrong; empty on a correct run.
    pub problems: Vec<String>,
    pub report: EngineReport,
}

/// Runs the engine once over `feed` with `n_workers` workers. With
/// `logs`, the partitioner, operators and collector are wrapped and
/// their calls timed into `logs`; without, only the operators' `drain`
/// is stamped.
pub fn run(feed: &Feed, reference: &Reference, n_workers: usize, logs: Option<&Logs>) -> Run {
    let tuples = feed.materialize();
    let stamps = Arc::new(Stamps::default());
    let config = feed.config(n_workers);
    let partitioner = match logs {
        Some(l) => Box::new(ProbePartitioner::new(
            feed.partitioner(n_workers),
            Arc::clone(&l.plan),
        )),
        None => feed.partitioner(n_workers),
    };
    let collector = feed.collector().map(|c| match logs {
        Some(l) => Box::new(ProbeCollector::new(c, Arc::clone(&l.merge))) as Box<dyn Collector>,
        None => c,
    });
    let op_log = logs.map(|l| Arc::clone(&l.op));
    let op_stamps = Arc::clone(&stamps);
    let op_factory = move |_| -> Box<dyn Operator> {
        let op = feed.operator();
        let stamps = Arc::clone(&op_stamps);
        match &op_log {
            Some(log) => Box::new(ProbeOp::traced(op, stamps, Arc::clone(log))),
            None => Box::new(ProbeOp::stamping(op, stamps)),
        }
    };
    let feed_fn = feeder(tuples, Arc::clone(&stamps));
    reset_peak_rss();

    let ticks = cpu_ticks();
    let entry = Instant::now();
    let report = Engine::run(config, partitioner, op_factory, feed_fn, collector);
    let ret = Instant::now();
    let steal_pct = steal_pct(ticks, cpu_ticks()).unwrap_or(0.0);

    let peak_rss_mb = peak_rss_mb();
    let (failed, mut problems) = reference.check(feed.fed, &report);
    let (first, last) = match (stamps.first_feed(), stamps.last_drain()) {
        (Some(first), Some(last)) => (first, last),
        (first, last) => {
            problems.push(format!(
                "missing stamp: first feed {first:?}, last drain {last:?}"
            ));
            (first.unwrap_or(entry), last.unwrap_or(ret))
        }
    };
    let setup_s = first.duration_since(entry).as_secs_f64();
    let active_s = last.duration_since(first).as_secs_f64();
    let teardown_s = ret.duration_since(last).as_secs_f64();
    let wall_s = ret.duration_since(entry).as_secs_f64();
    Run {
        setup_s,
        active_s,
        teardown_s,
        wall_s,
        tps: feed.fed as f64 / active_s.max(1e-9),
        latency_p50_ms: smooth_quantile(&report.latency_us, 0.5) / 1e3,
        latency_p99_ms: smooth_quantile(&report.latency_us, 0.99) / 1e3,
        peak_rss_mb,
        imbalance_theta: mean_theta(&report),
        migrated_mb: report.migrated_bytes as f64 / 1e6,
        table_entries: last_router_snapshot(&report).0 as f64,
        steal_pct,
        failed,
        problems,
        report,
    }
}

/// The `q`-quantile of `h`, interpolated linearly inside its bucket.
/// `Histogram::quantile` returns the bucket's lower edge, and buckets
/// are 5–12% wide, so a percentile near an edge would flip between two
/// values from run to run.
fn smooth_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Samples below `x`: the largest rank whose value is under it.
    let below = |x: u64| -> u64 {
        let value_at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64);
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if value_at(mid) < x {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let b = Histogram::bucket_of(h.quantile(q));
    if b + 1 >= Histogram::BUCKET_COUNT {
        return h.quantile(q) as f64;
    }
    let (edge_lo, edge_hi) = (Histogram::bucket_value(b), Histogram::bucket_value(b + 1));
    let (n_lo, n_hi) = (below(edge_lo), below(edge_hi));
    let within = (q * n as f64 - n_lo as f64) / (n_hi - n_lo).max(1) as f64;
    edge_lo as f64 + within.clamp(0.0, 1.0) * (edge_hi - edge_lo) as f64
}

/// Mean over intervals of `max/mean − 1` of the controller's snapshot
/// loads, element-wise summed when an interval closes over several
/// statistics rounds.
fn mean_theta(report: &EngineReport) -> f64 {
    let mut per: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &report.trace.events {
        if let EventKind::Snapshot {
            interval, loads, ..
        } = &e.kind
        {
            let slot = per.entry(*interval).or_default();
            if slot.len() < loads.len() {
                slot.resize(loads.len(), 0);
            }
            for (s, &l) in slot.iter_mut().zip(loads) {
                *s += l;
            }
        }
    }
    let thetas: Vec<f64> = per
        .values()
        .filter_map(|loads| {
            let total: u64 = loads.iter().sum();
            (total > 0).then(|| {
                let mean = total as f64 / loads.len() as f64;
                *loads.iter().max().unwrap_or(&0) as f64 / mean - 1.0
            })
        })
        .collect();
    crate::report::mean(&thetas)
}

/// `(table_entries, table_tombstones)` at the source's last
/// `RouterSnapshot`.
pub fn last_router_snapshot(report: &EngineReport) -> (u64, u64) {
    report
        .trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RouterSnapshot {
                interval,
                table_entries,
                table_tombstones,
                ..
            } => Some((interval, table_entries, table_tombstones)),
            _ => None,
        })
        .max_by_key(|&(interval, ..)| interval)
        .map_or((0, 0), |(_, entries, tombstones)| (entries, tombstones))
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS.
/// Where the kernel refuses, the mark keeps the process's lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak RSS since the last reset, in MB (0 when the
/// kernel does not report it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, N_WORKERS};

    /// The traced run's wrappers change nothing the engine decides: on
    /// seeded `hot_split`, a wrapped run and a bare one (no wrapper at
    /// all) split, rebalance and trace alike. A wrapper that dropped a
    /// defaulted method (`split_key`, `splits`, `held_counts`, …) would
    /// fall back to the trait default and never split.
    #[test]
    fn wrapped_run_decides_like_a_bare_run() {
        let feed = Feed::generate(Workload::HotSplit, 7);
        let reference = Reference::of(&feed);
        let tuples = feed.materialize();
        let bare = Engine::run(
            feed.config(N_WORKERS),
            feed.partitioner(N_WORKERS),
            |_| Box::new(feed.operator()),
            move |iv| tuples.get(iv as usize).cloned(),
            feed.collector(),
        );
        assert_eq!(reference.check(feed.fed, &bare), (0, Vec::new()));

        let logs = Logs::default();
        let wrapped = run(&feed, &reference, N_WORKERS, Some(&logs));
        assert_eq!((wrapped.failed, &wrapped.problems), (0, &Vec::new()));
        assert!(!logs.plan.lock().unwrap().call_ms.is_empty());
        assert!(logs.merge.lock().unwrap().collect_calls > 0);

        assert!(
            bare.split_events.iter().any(|e| e.to > e.from),
            "hot_split must split: {:?}",
            bare.split_events
        );
        assert_eq!(wrapped.report.split_events, bare.split_events);
        assert_eq!(wrapped.report.rebalances, bare.rebalances);
        assert_eq!(wrapped.report.trace.skeleton(), bare.trace.skeleton());
    }
}
