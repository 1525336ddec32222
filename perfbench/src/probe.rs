//! Instruments around the trait objects `Engine::run` takes, and the two
//! outside stamps every run is timed by.
//!
//! A timed run wraps only the operator, and only to stamp the end of
//! `drain`. A traced run wraps the partitioner, the operator and the
//! collector, timing their control-plane calls. Every wrapper forwards
//! every trait method, defaulted ones included: a dropped override would
//! silently fall back to the trait default (a partitioner that never
//! splits, an operator that reports nothing held).

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use streambal_core::{IntervalStats, Key, Partitioner, RebalanceOutcome, RoutingView, TaskId};
use streambal_runtime::{Collector, Operator, Tuple};

/// Locks a log shared with the engine's threads. The logs are plain
/// accumulators, valid after every update, so a panicked holder leaves
/// nothing half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The stamps a run is timed by, taken outside the engine: the source's
/// first feeder call and the end of the last worker's `Operator::drain`.
#[derive(Debug, Default)]
pub struct Stamps {
    first_feed: OnceLock<Instant>,
    last_drain: Mutex<Option<Instant>>,
}

impl Stamps {
    pub fn first_feed(&self) -> Option<Instant> {
        self.first_feed.get().copied()
    }

    pub fn last_drain(&self) -> Option<Instant> {
        *lock(&self.last_drain)
    }

    fn drained(&self) {
        let now = Instant::now();
        let mut last = lock(&self.last_drain);
        *last = Some(last.map_or(now, |t| t.max(now)));
    }
}

/// The source's feeder: hands over the pre-built interval `Vec`s, and
/// stamps its first call.
pub fn feeder(
    mut feed: Vec<Vec<Tuple>>,
    stamps: Arc<Stamps>,
) -> impl FnMut(u64) -> Option<Vec<Tuple>> + Send {
    move |interval| {
        stamps.first_feed.get_or_init(Instant::now);
        feed.get_mut(interval as usize).map(std::mem::take)
    }
}

/// Control-plane call timings of the operators of one run.
#[derive(Debug, Default)]
pub struct OpLog {
    pub extract_us: Vec<f64>,
    pub install_us: Vec<f64>,
    pub evict_ms_total: f64,
    pub drain_ms: Vec<f64>,
}

impl OpLog {
    fn absorb(&mut self, other: OpLog) {
        self.extract_us.extend(other.extract_us);
        self.install_us.extend(other.install_us);
        self.evict_ms_total += other.evict_ms_total;
        self.drain_ms.extend(other.drain_ms);
    }
}

/// An operator wrapper. It always stamps the end of `drain`; with a log
/// it also times `extract`, `install`, `evict_before` and `drain`, and
/// merges those timings into the shared log when the worker drops it.
/// `process` is forwarded untimed: its cost is measured by a replay.
pub struct ProbeOp<O> {
    inner: O,
    stamps: Arc<Stamps>,
    log: Option<(OpLog, Arc<Mutex<OpLog>>)>,
}

impl<O: Operator> ProbeOp<O> {
    /// A timed run's wrapper: stamps `drain`, times nothing else.
    pub fn stamping(inner: O, stamps: Arc<Stamps>) -> Self {
        ProbeOp {
            inner,
            stamps,
            log: None,
        }
    }

    /// A traced run's wrapper.
    pub fn traced(inner: O, stamps: Arc<Stamps>, log: Arc<Mutex<OpLog>>) -> Self {
        ProbeOp {
            inner,
            stamps,
            log: Some((OpLog::default(), log)),
        }
    }
}

/// Runs `call`, timing it into the local log when there is one.
fn timed<R>(
    log: &mut Option<(OpLog, Arc<Mutex<OpLog>>)>,
    call: impl FnOnce() -> R,
    record: impl FnOnce(&mut OpLog, f64),
) -> R {
    let Some((local, _)) = log else {
        return call();
    };
    let t = Instant::now();
    let out = call();
    record(local, ms_since(t));
    out
}

impl<O> Drop for ProbeOp<O> {
    fn drop(&mut self) {
        if let Some((local, shared)) = self.log.take() {
            lock(&shared).absorb(local);
        }
    }
}

impl<O: Operator> Operator for ProbeOp<O> {
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        self.inner.process(tuple, interval, emit)
    }

    fn state_size(&self, key: Key) -> u64 {
        self.inner.state_size(key)
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        timed(
            &mut self.log,
            || self.inner.extract(key),
            |log, ms| log.extract_us.push(ms * 1e3),
        )
    }

    fn install(&mut self, key: Key, blob: Bytes) {
        timed(
            &mut self.log,
            || self.inner.install(key, blob),
            |log, ms| log.install_us.push(ms * 1e3),
        )
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        timed(
            &mut self.log,
            || self.inner.evict_before(oldest_keep),
            |log, ms| log.evict_ms_total += ms,
        )
    }

    fn flush(&mut self, emit: &mut dyn FnMut(Tuple)) {
        self.inner.flush(emit);
    }

    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let states = timed(
            &mut self.log,
            || self.inner.drain(),
            |log, ms| log.drain_ms.push(ms),
        );
        self.stamps.drained();
        states
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        self.inner.held_counts()
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        self.inner.tuples_in_blob(blob)
    }
}

/// What the partitioner did over one run.
#[derive(Debug, Default)]
pub struct PlanLog {
    /// Wall time of each `end_interval` call (ms).
    pub call_ms: Vec<f64>,
    /// Calls that returned a rebalance.
    pub rebalances: u64,
    /// Keys moved by those rebalances' plans.
    pub moves: u64,
    /// The planner's θ for each rebalance.
    pub predicted_theta: Vec<f64>,
    /// The last routing view the engine asked for.
    pub last_view: Option<RoutingView>,
}

/// A partitioner wrapper timing `end_interval` (where `core::rebalance`
/// plans) and keeping the last routing view.
pub struct ProbePartitioner {
    inner: Box<dyn Partitioner>,
    log: Arc<Mutex<PlanLog>>,
}

impl ProbePartitioner {
    pub fn new(inner: Box<dyn Partitioner>, log: Arc<Mutex<PlanLog>>) -> Self {
        ProbePartitioner { inner, log }
    }
}

impl Partitioner for ProbePartitioner {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn n_tasks(&self) -> usize {
        self.inner.n_tasks()
    }

    fn route(&mut self, key: Key) -> TaskId {
        self.inner.route(key)
    }

    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        self.inner.route_batch(keys, out);
    }

    fn end_interval(&mut self, stats: IntervalStats) -> Option<RebalanceOutcome> {
        let t = Instant::now();
        let outcome = self.inner.end_interval(stats);
        let ms = ms_since(t);
        let mut log = lock(&self.log);
        log.call_ms.push(ms);
        if let Some(out) = &outcome {
            log.rebalances += 1;
            log.moves += out.plan.keys_moved() as u64;
            log.predicted_theta.push(out.achieved_theta);
        }
        outcome
    }

    fn add_task(&mut self) -> TaskId {
        self.inner.add_task()
    }

    fn scale_out(&mut self, live: &[Key]) -> TaskId {
        self.inner.scale_out(live)
    }

    fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        self.inner.scale_out_plan(live)
    }

    fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        self.inner.scale_in(victim, live);
    }

    fn routing_view(&self) -> RoutingView {
        let view = self.inner.routing_view();
        lock(&self.log).last_view = Some(view.clone());
        view
    }

    fn last_install_was_delta(&self) -> bool {
        self.inner.last_install_was_delta()
    }

    fn preserves_key_semantics(&self) -> bool {
        self.inner.preserves_key_semantics()
    }

    fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        self.inner.reroute_dead(dead, is_dead)
    }

    fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
        self.inner.apply_moves(moves)
    }

    fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        self.inner.split_key(key, replicas)
    }

    fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        self.inner.unsplit_key(key)
    }

    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        self.inner.splits()
    }
}

/// Calls into the merge stage's collector over one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeLog {
    pub collect_calls: u64,
    pub collect_ns: u64,
}

/// A collector wrapper timing every `collect` call.
pub struct ProbeCollector {
    inner: Box<dyn Collector>,
    local: MergeLog,
    log: Arc<Mutex<MergeLog>>,
}

impl ProbeCollector {
    pub fn new(inner: Box<dyn Collector>, log: Arc<Mutex<MergeLog>>) -> Self {
        ProbeCollector {
            inner,
            local: MergeLog::default(),
            log,
        }
    }
}

impl Drop for ProbeCollector {
    fn drop(&mut self) {
        *lock(&self.log) = self.local;
    }
}

impl Collector for ProbeCollector {
    fn collect(&mut self, tuple: &Tuple) {
        let t = Instant::now();
        self.inner.collect(tuple);
        self.local.collect_ns += t.elapsed().as_nanos() as u64;
        self.local.collect_calls += 1;
    }

    fn result(&mut self) -> Vec<(u64, u64)> {
        self.inner.result()
    }
}
