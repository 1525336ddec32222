//! The elasticity hook behaves identically across drivers: a decision
//! trace planned in the simulator (`run_sim_elastic`) replays on the live
//! engine (`EngineConfig::elasticity`) `ScaleEvent` for `ScaleEvent`.
//!
//! Two layers, split by what can be made deterministic on a one-core CI
//! box. The *policy* layer is pinned in the simulator, which observes
//! exact interval statistics: the threshold policy must produce exactly
//! the expected out/in trace on the burst workload. The *execution*
//! layer is pinned in the engine with the sim's trace replayed as a
//! `FixedSchedule`: schedule decisions depend only on interval numbers —
//! which the stats rounds carry exactly, however the OS scheduler blurs
//! *which tuples* each round observes — so the engine must emit the
//! byte-identical event sequence, proving the hook, clamping, victim
//! selection, and event recording agree across drivers. (Asserting the
//! engine's *load-driven* trace instead would be inherently flaky here:
//! with every thread time-sharing one core, a descheduled controller can
//! collapse whole intervals into one statistics round, and no watermark
//! margin survives a 2× total-load distortion. The engine's load-driven
//! behaviour is covered by its own tests with order-robust assertions.)

use streambal::baselines::{CoreBalancer, HashPartitioner};
use streambal::core::{
    BalanceParams, IntervalStats, LoadSummary, MigrationPlan, Partitioner, RebalanceOutcome,
    RebalanceStrategy, RoutingTable, RoutingView, TaskId,
};
use streambal::elastic::{
    BackpressurePolicy, FixedSchedule, FixedSplitSchedule, HoldPolicy, HotKeyPolicy, ScaleDecision,
    ScaleEvent, SplitDecision, SplitEvent, ThresholdPolicy,
};
use streambal::prelude::Key;
use streambal::runtime::{Engine, EngineConfig, Tuple, WordCountOp};
use streambal::sim::source::ReplaySource;
use streambal::sim::{run_sim_elastic, QueueModel, SimConfig, SimHooks};

const N_TASKS: usize = 3;
const MAX_TASKS: usize = 4;
const SPIN: u32 = 10; // per-tuple cost = SPIN + 1 = 11, in both drivers
const QUIET: u64 = 4_000; // tuples per quiet interval
const KEYS: u64 = 500;

/// Interval tuple sequences: 2 quiet, 2 at 4× burst, 3 quiet.
fn intervals() -> Vec<Vec<Key>> {
    [1u64, 1, 4, 4, 1, 1, 1]
        .iter()
        .map(|&m| (0..QUIET * m).map(|i| Key(i % KEYS)).collect())
        .collect()
}

/// The same policy for both drivers: budget ≈ 0.7·L where L is the quiet
/// interval's total cost — quiet holds at 3 tasks, the burst scales out,
/// the quiet tail scales back in. `down_after = 2` is load-bearing for
/// determinism: a control-plane pause spanning a stats-round boundary can
/// deflate one round's observed load (its tuples land in the next round),
/// and requiring two consecutive low rounds means a single distorted
/// round can never fire a spurious scale-in.
fn policy() -> ThresholdPolicy {
    let quiet_load = QUIET as f64 * (SPIN + 1) as f64;
    let mut p = ThresholdPolicy::new(1.08 * 0.7 * quiet_load, 2, MAX_TASKS);
    p.up_after = 1;
    p.down_after = 2;
    p.cooldown = 1;
    p
}

/// θmax is set far above any observable imbalance so the rebalancer never
/// fires: this test isolates the elasticity trace, and a migration's own
/// pause window shifting tuples across round boundaries would add timing
/// noise to the observed loads.
fn partitioner() -> CoreBalancer {
    CoreBalancer::new(
        N_TASKS,
        100,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max: 5.0,
            ..BalanceParams::default()
        },
    )
}

/// The trace both drivers must produce: out after the first burst
/// interval (cooldown suppresses the second), in after two consecutive
/// quiet tail intervals (the cooldown then covers the run's remainder).
fn expected_trace() -> Vec<ScaleEvent> {
    vec![
        ScaleEvent {
            interval: 2,
            from: 3,
            to: 4,
        },
        ScaleEvent {
            interval: 5,
            from: 4,
            to: 3,
        },
    ]
}

#[test]
fn sim_plans_and_engine_replays_the_identical_trace() {
    let intervals = intervals();

    // --- simulator ----------------------------------------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = vec![0u64; KEYS as usize];
            for k in keys {
                freqs[k.raw() as usize] += 1;
            }
            for (i, &f) in freqs.iter().enumerate() {
                if f > 0 {
                    iv.observe(Key(i as u64), f, f * (SPIN as u64 + 1), f * 8);
                }
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    let mut sim_policy = policy();
    let mut p = partitioner();
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        SimHooks::new(&mut sim_policy, MAX_TASKS),
    );

    // The policy layer is deterministic in the sim: exact stats in,
    // exact trace out.
    assert_eq!(sim_report.scale_events, expected_trace(), "sim trace");

    // --- engine: replay the sim's plan --------------------------------
    let schedule = FixedSchedule::new(sim_report.scale_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                ScaleDecision::ScaleOut
            } else {
                ScaleDecision::ScaleIn
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(schedule),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );

    assert_eq!(
        engine_report.scale_events, sim_report.scale_events,
        "engine replay diverged from the sim plan"
    );
    // And the engine run stayed lossless through the cycle.
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
}

/// The queue-signal analogue of the trace-identity test above, for
/// [`BackpressurePolicy`]: the simulator plans from the *modeled* queue
/// proxy (per-task fluid backlog over a service rate, clamped at the
/// channel bound — the same `IntervalObservation::queue_depths` field the
/// engine fills from sampled channel occupancy), and the engine replays
/// that plan event-for-event. The policy layer is deterministic in the
/// sim (exact stats in, exact queue model, exact trace out); the engine
/// layer proves the hook, clamping, pre-placement spawn, and event
/// recording agree — `scale_events` must compare equal under `==`.
#[test]
fn backpressure_sim_plan_replays_identically_on_the_engine() {
    let intervals = intervals();

    // --- simulator: plan from the modeled queue signal ------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = vec![0u64; KEYS as usize];
            for k in keys {
                freqs[k.raw() as usize] += 1;
            }
            for (i, &f) in freqs.iter().enumerate() {
                if f > 0 {
                    iv.observe(Key(i as u64), f, f * (SPIN as u64 + 1), f * 8);
                }
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    // Service 2000 tuples/task/interval: the quiet 4000 over 3 tasks
    // (≈ 1300/task) drains every interval; the 4× burst (≈ 5300/task)
    // leaves a standing backlog clamped at the channel bound, far above
    // the high watermark. After the burst the residue drains within two
    // quiet intervals, putting the total under the low watermark for the
    // two consecutive rounds `down_after` demands.
    let model = QueueModel {
        service_rate: 2_000.0,
        channel_capacity: 1_024,
        us_per_tuple: 50.0,
    };
    let mut policy = BackpressurePolicy::new(512, 16, N_TASKS, MAX_TASKS);
    policy.up_after = 1;
    policy.down_after = 2;
    policy.cooldown = 1;
    let mut p = partitioner();
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        SimHooks {
            queue: model,
            ..SimHooks::new(&mut policy, MAX_TASKS)
        },
    );
    assert_eq!(
        sim_report.scale_events,
        vec![
            ScaleEvent {
                interval: 2,
                from: 3,
                to: 4,
            },
            ScaleEvent {
                interval: 6,
                from: 4,
                to: 3,
            },
        ],
        "sim backpressure trace"
    );

    // --- engine: replay the sim's plan ----------------------------------
    let schedule = FixedSchedule::new(sim_report.scale_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                ScaleDecision::ScaleOut
            } else {
                ScaleDecision::ScaleIn
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(schedule),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(
        engine_report.scale_events, sim_report.scale_events,
        "engine replay diverged from the sim's backpressure plan"
    );
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
    // The pre-placed scale-out worker actually absorbed traffic.
    assert!(
        engine_report.per_worker_processed[N_TASKS] > 0,
        "pre-placement left the scaled-out worker cold: {:?}",
        engine_report.per_worker_processed
    );
}

/// The split analogue of the scale-trace identity tests: the simulator
/// plans hot-key splits with [`HotKeyPolicy`] from exact per-key interval
/// costs (a dominant-key burst splits once, the cooled key consolidates
/// after `down_after` quiet rounds), and the engine replays that plan as
/// a [`FixedSplitSchedule`] — whose decisions depend only on interval
/// numbers, which the stats rounds carry exactly — so
/// `EngineReport::split_events` must equal the sim's trace under `==`,
/// proving the guards, replica-count choice, split/unsplit execution,
/// and event recording agree across drivers.
#[test]
fn split_sim_plan_replays_identically_on_the_engine() {
    const HOT: u64 = 500; // outside the background key range
    const BG_KEYS: u64 = 50;
    const BG_TUPLES: u64 = 2_000; // 40/key → cost 440/key, far below high
    const BURST: u64 = 4_000; // hot cost 44_000, far above high
    let intervals: Vec<Vec<Key>> = [0u64, 0, BURST, BURST, 0, 0, 0]
        .iter()
        .map(|&burst| {
            let mut v: Vec<Key> = (0..BG_TUPLES).map(|i| Key(i % BG_KEYS)).collect();
            v.extend((0..burst).map(|_| Key(HOT)));
            v
        })
        .collect();

    // --- simulator: plan the splits -------------------------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = std::collections::HashMap::new();
            for k in keys {
                *freqs.entry(k.raw()).or_insert(0u64) += 1;
            }
            let mut sorted: Vec<_> = freqs.into_iter().collect();
            sorted.sort_unstable();
            for (k, f) in sorted {
                iv.observe(Key(k), f, f * (SPIN as u64 + 1), f * 8);
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    // budget = 21_600/1.08 = 20_000: high mark 18_000 sits between the
    // background per-key cost (440) and the burst key's (44_000), whose
    // ⌈44_000/18_000⌉ = 3 replicas exactly cover the 3 tasks.
    let mut hot = HotKeyPolicy::new(21_600.0);
    let mut p = partitioner();
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        SimHooks {
            split: Some(&mut hot),
            ..SimHooks::new(&mut HoldPolicy, N_TASKS)
        },
    );
    assert_eq!(
        sim_report.split_events,
        vec![
            SplitEvent {
                interval: 2,
                key: HOT,
                from: 1,
                to: 3,
            },
            SplitEvent {
                interval: 5,
                key: HOT,
                from: 3,
                to: 1,
            },
        ],
        "sim split trace"
    );

    // --- engine: replay the sim's plan ----------------------------------
    let schedule = FixedSplitSchedule::new(sim_report.split_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                SplitDecision::Split {
                    key: e.key,
                    replicas: e.to,
                }
            } else {
                SplitDecision::Unsplit { key: e.key }
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            spin_work: SPIN,
            window: 100,
            split: Some(Box::new(schedule)),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(
        engine_report.split_events, sim_report.split_events,
        "engine replay diverged from the sim's split plan"
    );
    // Lossless through the split/unsplit cycle, replica merge included:
    // every hot tuple landed on some replica and each replica's partial
    // consolidated back onto the primary at unsplit.
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
    let hot_count: u64 = engine_report
        .final_states
        .iter()
        .filter(|(k, _)| k.raw() == HOT)
        .map(|(_, blob)| {
            WordCountOp::decode(blob)
                .iter()
                .map(|&(_, c)| c)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(hot_count, 2 * BURST, "merged hot-key count must be exact");
}

/// Worker-seconds accounting: an elastic run that spends part of its
/// life below the static peak must bill fewer worker-seconds than its
/// peak parallelism sustained for the same wall time would.
#[test]
fn elastic_run_bills_fewer_worker_seconds_than_static_peak() {
    let intervals = intervals();
    let feed = intervals.clone();
    let report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            // Small channels keep the stats rounds close to the interval
            // boundaries, so the policy sees the burst while it happens.
            channel_capacity: 64,
            batch_size: 32,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(policy()),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    let wall = report.wall.as_secs_f64();
    assert!(
        report.worker_seconds < MAX_TASKS as f64 * wall,
        "elastic {} !< static peak {}",
        report.worker_seconds,
        MAX_TASKS as f64 * wall
    );
    assert!(
        report.worker_seconds >= N_TASKS as f64 * wall * 0.5,
        "integral implausibly small: {}",
        report.worker_seconds
    );
}

/// Per-interval stats for the simulator, built from the tuple sequences
/// the engine is fed (cost `SPIN + 1` per tuple, as the workers charge).
fn replay_stats(intervals: &[Vec<Key>]) -> Vec<IntervalStats> {
    intervals
        .iter()
        .map(|keys| {
            let mut freqs = std::collections::BTreeMap::new();
            for k in keys {
                *freqs.entry(k.raw()).or_insert(0u64) += 1;
            }
            let mut iv = IntervalStats::new();
            for (k, f) in freqs {
                iv.observe(Key(k), f, f * (SPIN as u64 + 1), f * 8);
            }
            iv
        })
        .collect()
}

/// A scale decision and a split decision firing in the *same* interval
/// — out + split at interval 2, in + unsplit at interval 4 — decide
/// identically in both drivers: the split step sees the routing the
/// scale step left, in the sim and on the engine alike, because both run
/// the one decision stage. The sim plans from fixed schedules and the
/// engine replays its traces; both traces must compare `==`, and the
/// engine run stays lossless through the coincident ops.
#[test]
fn same_interval_scale_and_split_replay_identically_on_the_engine() {
    const HOT: u64 = 500;
    let intervals: Vec<Vec<Key>> = [0u64, 0, 4_000, 4_000, 0, 0, 0]
        .iter()
        .map(|&burst| {
            let mut v: Vec<Key> = (0..2_000).map(|i| Key(i % 50)).collect();
            v.extend((0..burst).map(|_| Key(HOT)));
            v
        })
        .collect();

    // --- simulator: plan from coincident fixed schedules -----------------
    let mut src = ReplaySource::new(replay_stats(&intervals));
    let mut scale = FixedSchedule::new([(2, ScaleDecision::ScaleOut), (4, ScaleDecision::ScaleIn)]);
    let mut split = FixedSplitSchedule::cycle(HOT, 3, 2, 4);
    let mut p = partitioner();
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        SimHooks {
            split: Some(&mut split),
            ..SimHooks::new(&mut scale, MAX_TASKS)
        },
    );
    assert_eq!(
        sim_report.scale_events,
        vec![
            ScaleEvent {
                interval: 2,
                from: 3,
                to: 4,
            },
            ScaleEvent {
                interval: 4,
                from: 4,
                to: 3,
            },
        ],
        "sim scale trace"
    );
    assert_eq!(
        sim_report
            .split_events
            .iter()
            .map(|e| (e.interval, e.from > e.to))
            .collect::<Vec<_>>(),
        vec![(2, false), (4, true)],
        "sim split trace: {:?}",
        sim_report.split_events
    );

    // --- engine: replay both traces --------------------------------------
    let scale_plan = FixedSchedule::new(sim_report.scale_events.iter().map(|e| {
        let d = if e.to > e.from {
            ScaleDecision::ScaleOut
        } else {
            ScaleDecision::ScaleIn
        };
        (e.interval, d)
    }));
    let split_plan = FixedSplitSchedule::new(sim_report.split_events.iter().map(|e| {
        let d = if e.to > e.from {
            SplitDecision::Split {
                key: e.key,
                replicas: e.to,
            }
        } else {
            SplitDecision::Unsplit { key: e.key }
        };
        (e.interval, d)
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(scale_plan),
            split: Some(Box::new(split_plan)),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(engine_report.scale_events, sim_report.scale_events);
    assert_eq!(engine_report.split_events, sim_report.split_events);
    assert!(engine_report.protocol_errors.is_empty());
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
    let hot_count: u64 = engine_report
        .final_states
        .iter()
        .filter(|(k, _)| k.raw() == HOT)
        .map(|(_, blob)| {
            WordCountOp::decode(blob)
                .iter()
                .map(|&(_, c)| c)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(hot_count, 2 * 4_000, "merged hot-key count must be exact");
}

/// A planner that runs every interval but never moves a key: its
/// outcome carries an empty plan.
struct EmptyPlans(HashPartitioner);

impl Partitioner for EmptyPlans {
    fn name(&self) -> String {
        "empty-plans".into()
    }
    fn n_tasks(&self) -> usize {
        self.0.n_tasks()
    }
    fn route(&mut self, key: Key) -> TaskId {
        self.0.route(key)
    }
    fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
        Some(RebalanceOutcome {
            table: RoutingTable::new(),
            plan: MigrationPlan::empty(),
            loads: LoadSummary::new(vec![0; self.n_tasks()]),
            achieved_theta: 0.0,
            migration_fraction: 0.0,
        })
    }
    fn routing_view(&self) -> RoutingView {
        self.0.routing_view()
    }
}

/// An outcome with an empty plan is a planner call, not a rebalance, in
/// both drivers: neither counts it, and the simulator still times it.
#[test]
fn an_empty_plan_is_not_a_rebalance_in_either_driver() {
    let intervals = intervals();
    let mut src = ReplaySource::new(replay_stats(&intervals));
    let mut p = EmptyPlans(HashPartitioner::new(N_TASKS));
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        SimHooks::new(&mut HoldPolicy, N_TASKS),
    );
    assert_eq!(sim_report.rebalances, 0);
    assert_eq!(sim_report.theta_after.count(), 0);
    assert_eq!(
        sim_report.gen_time_ms.count(),
        intervals.len() as u64,
        "every planner call is timed"
    );

    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            spin_work: SPIN,
            ..EngineConfig::default()
        },
        Box::new(EmptyPlans(HashPartitioner::new(N_TASKS))),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(engine_report.rebalances, sim_report.rebalances);
    assert_eq!(engine_report.migrated_keys, 0);
}
