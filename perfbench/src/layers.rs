//! Per-layer numbers: what the traced run's wrappers and the engine's
//! own flight recorder saw, and replays of the feed through each data-
//! plane layer's public function on its own.

use std::hint::black_box;
use std::time::Instant;

use crossbeam::channel::bounded;
use streambal_core::{Key, RoutingView};
use streambal_runtime::{EngineConfig, Operator, SourceRouter, Tuple};
use streambal_trace::{OpLabel, Phase};

use crate::report::{max, mean, median};
use crate::run::{last_router_snapshot, Logs, Run};
use crate::workload::Feed;

/// Passes of each replay; the median pass is reported.
const REPLAY_PASSES: usize = 5;

/// Per-layer values of one traced run: `(name, unit, value)`, in the
/// order they are reported.
pub type LayerSample = Vec<(String, &'static str, f64)>;

/// The per-layer values one traced run yields: the controller's outcome,
/// its wrappers' logs, and its flight-recorder spans and snapshots.
pub fn traced_sample(run: &Run, logs: &Logs) -> LayerSample {
    let mut s = LayerSample::new();
    let mut put = |name: &str, unit: &'static str, v: f64| s.push((name.to_string(), unit, v));

    put("imbalance_theta", "ratio", run.imbalance_theta);
    put("migrated_mb", "MB", run.migrated_mb);
    put("table_entries", "count", run.table_entries);

    let (entries, tombstones) = last_router_snapshot(&run.report);
    put("route.table_entries", "count", entries as f64);
    put("route.tombstones", "count", tombstones as f64);

    {
        let plan = logs.plan.lock().expect("run finished: no writer left");
        put("plan.calls", "count", plan.call_ms.len() as f64);
        put("plan.ms_p50", "ms", median(&plan.call_ms));
        put("plan.ms_max", "ms", max(&plan.call_ms));
        put("plan.ms_total", "ms", plan.call_ms.iter().sum());
        put("plan.rebalances", "count", plan.rebalances as f64);
        put("plan.moves", "count", plan.moves as f64);
        put("plan.predicted_theta", "ratio", mean(&plan.predicted_theta));
    }
    {
        let op = logs.op.lock().expect("run finished: no writer left");
        put("op.extract_calls", "count", op.extract_us.len() as f64);
        put("op.extract_us_p50", "us", median(&op.extract_us));
        put("op.install_calls", "count", op.install_us.len() as f64);
        put("op.install_us_p50", "us", median(&op.install_us));
        put("op.evict_ms_total", "ms", op.evict_ms_total);
        put("op.drain_ms_max", "ms", max(&op.drain_ms));
    }
    {
        let merge = *logs.merge.lock().expect("run finished: no writer left");
        put("merge.collect_calls", "count", merge.collect_calls as f64);
        put(
            "merge.collect_ns_per_call",
            "ns",
            merge.collect_ns as f64 / merge.collect_calls.max(1) as f64,
        );
    }

    let spans = run.report.trace.span_summaries();
    for (label, op) in [
        ("rebalance", OpLabel::Rebalance),
        ("split", OpLabel::Split),
        ("unsplit", OpLabel::Unsplit),
    ] {
        let ours: Vec<_> = spans.iter().filter(|sp| sp.op == op).collect();
        let disruption: Vec<f64> = ours
            .iter()
            .map(|sp| sp.disruption_us() as f64 / 1e3)
            .collect();
        put(
            &format!("protocol.{label}.count"),
            "count",
            ours.len() as f64,
        );
        put(
            &format!("protocol.{label}.disruption_ms_p50"),
            "ms",
            median(&disruption),
        );
        put(
            &format!("protocol.{label}.disruption_ms_max"),
            "ms",
            max(&disruption),
        );
        for (phase_name, phase) in [
            ("pause", Phase::Pause),
            ("quiesce_wait", Phase::QuiesceWait),
            ("state_out", Phase::StateOut),
            ("install", Phase::Install),
            ("resume", Phase::Resume),
        ] {
            let ms: Vec<f64> = ours
                .iter()
                .flat_map(|sp| sp.phase_durations())
                .filter(|&(p, _)| p == phase)
                .map(|(_, us)| us as f64 / 1e3)
                .collect();
            put(
                &format!("protocol.{label}.{phase_name}_ms"),
                "ms",
                median(&ms),
            );
        }
    }

    put(
        "trace.events",
        "count",
        run.report.trace.events.len() as f64,
    );
    s
}

/// Source routing cost: the feed through `SourceRouter::route_batch` in
/// `batch_size` chunks, under the run's last routing view (ns/tuple).
pub fn route_ns_per_tuple(feed: &Feed, view: &RoutingView) -> f64 {
    let batch = EngineConfig::default().batch_size;
    let mut out = Vec::with_capacity(batch);
    let passes: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let mut router = SourceRouter::from_view(view.clone());
            let t = Instant::now();
            for keys in &feed.intervals {
                for chunk in keys.chunks(batch) {
                    router.route_batch(chunk, &mut out);
                    black_box(&out);
                }
            }
            t.elapsed().as_nanos() as f64 / feed.fed as f64
        })
        .collect();
    median(&passes)
}

/// Operator cost: the feed through a fresh operator's `process` on one
/// thread, evicting at interval boundaries as a worker does (ns/tuple;
/// eviction untimed).
pub fn op_process_ns_per_tuple(feed: &Feed) -> f64 {
    let window = feed.window() as u64;
    let passes: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let mut op = feed.operator();
            let mut emitted = 0u64;
            let mut busy_ns = 0u128;
            for (interval, keys) in (0u64..).zip(&feed.intervals) {
                let tuples: Vec<Tuple> = keys.iter().map(|&k| Tuple::keyed(k)).collect();
                let t = Instant::now();
                for tuple in &tuples {
                    op.process(tuple, interval, &mut |_| emitted += 1);
                }
                busy_ns += t.elapsed().as_nanos();
                op.evict_before((interval + 1).saturating_sub(window));
            }
            black_box(emitted);
            busy_ns as f64 / feed.fed as f64
        })
        .collect();
    median(&passes)
}

/// Channel handoff cost: `batch_size`-tuple `Vec`s sent with
/// `send_weighted` through a channel of the engine's worker capacity
/// to a receiving thread (ns per batch, first send to last receive).
pub fn channel_ns_per_batch() -> f64 {
    const BATCHES: usize = 2_000;
    let config = EngineConfig::default();
    let batch = config.batch_size;
    let passes: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let payload: Vec<Vec<Tuple>> = (0..BATCHES)
                .map(|i| vec![Tuple::keyed(Key(i as u64)); batch])
                .collect();
            let (tx, rx) = bounded::<Vec<Tuple>>(config.channel_capacity);
            let (start, end, received) = std::thread::scope(|s| {
                let receiver = s.spawn(move || {
                    // Keep the batches: freeing them is not handoff.
                    let mut got = Vec::with_capacity(BATCHES);
                    while let Ok(b) = rx.recv() {
                        got.push(b);
                    }
                    (Instant::now(), got)
                });
                let start = Instant::now();
                for b in payload {
                    tx.send_weighted(b, batch)
                        .expect("receiver runs until the sender drops");
                }
                drop(tx);
                let (end, got) = receiver.join().expect("receiver thread panicked");
                (start, end, got.len())
            });
            assert_eq!(received, BATCHES, "channel lost batches");
            end.duration_since(start).as_nanos() as f64 / BATCHES as f64
        })
        .collect();
    median(&passes)
}
