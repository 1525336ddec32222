//! The controller: the paper's Fig. 5 protocol as a state machine with
//! no threads.
//!
//! [`Controller`] owns the partitioner, the policies and every piece of
//! protocol state: the op in flight and the queue behind it, epochs,
//! deadlines, the width and liveness record, outstanding resumes, the
//! statistics-round ledger, loss accounting and the flight recorder's
//! spans. The engine's event loop hands it each `SourceEvent` and
//! `WorkerEvent` as it arrives, calls [`Controller::tick`] on every
//! wake-up, and starts the workers [`Controller::take_spawns`] names.
//! The controller sends on channels it is handed or opens itself, and
//! drains dead workers' channels without blocking; it never waits on a
//! receive, selects, sleeps or spawns (lint rule L009), so tests drive
//! it event by event over channels they hold.
//!
//! One op type serves every protocol op. A rebalance, a scale-out
//! pre-placement, a split and an unsplit extract the listed keys from
//! each holder (`MigrateOut`); a scale-in is the same op whose one
//! holder, the victim, gives up all of its state (`Retire`). Pause,
//! install, resume, deadline re-drive, abort and death handling exist
//! once for all of them.
//!
//! Two pieces of accounting sit beside it, unit-tested on their own:
//! the statistics-round ledger (which must survive late and duplicate
//! worker reports — a retiring worker can answer a round the controller
//! already closed) and the worker-seconds integral (which must bill
//! queued scale-ins exactly once per parallelism change).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender};
use streambal_core::{divert, IntervalStats, Key, Partitioner, RoutingView, TaskId};
use streambal_elastic::{
    ElasticityPolicy, Rebalance, RoundDecider, ScaleAction, ScaleLimits, SplitAction, SplitPolicy,
};
use streambal_hashring::{FxHashMap, FxHashSet};
use streambal_metrics::{Counter, Histogram, TimeSeries};
use streambal_trace::{OpLabel, Outcome, Phase, ThreadLabel, ThreadRecorder, TraceLog, TraceSink};

use crate::engine::{EngineConfig, EngineReport, ProtocolError};
use crate::fault::{CtlKind, FaultEvent, FaultInjector, OpKind, SendPeer};
use crate::message::{Message, SourceCtl, SourceEvent, WorkerEvent};
use crate::operator::Operator;
use crate::router::SourceRouter;

/// One open statistics round: merged stats, per-slot loads, queue-depth
/// samples, the interval's latency distribution, and which workers have
/// reported. The expected *set* is pinned at issue time — scale-out must
/// not retroactively change which workers a round waits for — but it can
/// shrink: a reporter that dies mid-round is struck off
/// ([`StatsLedger::on_worker_dead`]), and a round that outlives its
/// deadline closes with whoever answered
/// ([`StatsLedger::expire_rounds`]), so a dead or wedged worker cannot
/// hold statistics — or shutdown, which waits on open rounds — hostage.
struct StatsRound {
    merged: IntervalStats,
    loads: Vec<u64>,
    queues: Vec<u64>,
    latency: Histogram,
    reporters: FxHashSet<TaskId>,
    expected: FxHashSet<TaskId>,
    /// When the round was issued (wall half of the expiry deadline).
    opened: Instant,
}

impl StatsRound {
    fn is_complete(&self) -> bool {
        self.expected.iter().all(|w| self.reporters.contains(w))
    }

    fn close(self) -> ClosedRound {
        ClosedRound {
            merged: self.merged,
            loads: self.loads,
            queues: self.queues,
            mean_latency_us: self.latency.mean(),
            p99_latency_us: self.latency.quantile(0.99) as f64,
        }
    }
}

/// Everything a completed round hands the elasticity policy, the
/// partitioner, and the flight recorder's per-interval `Snapshot`
/// event: the merged stats, the per-slot load vector, the queue
/// depths sampled when the round was issued, and the interval latency
/// summary.
pub(crate) struct ClosedRound {
    pub merged: IntervalStats,
    pub loads: Vec<u64>,
    pub queues: Vec<u64>,
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
}

/// The controller's statistics-round ledger.
///
/// Robustness contract (the seed crashed on both): a report for a round
/// the ledger does not know — late (the round already closed without the
/// retiring reporter) or simply unknown — **degrades gracefully**: its
/// load folds into the oldest open round, or into the carry buffer
/// consumed by the next round, so totals never under-count; and a
/// *duplicate* report from a worker that already answered merges its
/// load without advancing the round's completion count, so a round can
/// neither close early nor leak.
pub(crate) struct StatsLedger {
    rounds: FxHashMap<u64, StatsRound>,
    /// Residual statistics with no open round to absorb them — folded
    /// into the next round issued.
    carry: IntervalStats,
}

impl StatsLedger {
    pub fn new() -> Self {
        StatsLedger {
            rounds: FxHashMap::default(),
            carry: IntervalStats::new(),
        }
    }

    /// Rounds still waiting for reports.
    pub fn outstanding(&self) -> usize {
        self.rounds.len()
    }

    /// Opens the round for `interval`, expecting a report from each
    /// worker in `expected`, over `active` worker slots, with `queues`
    /// the per-slot queue depths sampled at interval close. Any carried
    /// residue is folded in (the slot attribution is gone with the
    /// retired slot; totals are what policies consume).
    pub fn open(&mut self, interval: u64, active: usize, expected: Vec<TaskId>, queues: Vec<u64>) {
        debug_assert!(!expected.is_empty() && active > 0);
        let mut round = StatsRound {
            merged: IntervalStats::new(),
            loads: vec![0; active],
            queues,
            latency: Histogram::new(),
            reporters: FxHashSet::default(),
            expected: expected.into_iter().collect(),
            opened: Instant::now(),
        };
        if !self.carry.is_empty() {
            round.loads[active - 1] += self.carry.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(&self.carry);
            self.carry = IntervalStats::new();
        }
        self.rounds.insert(interval, round);
    }

    /// Strikes a dead worker off every open round's expected set and
    /// closes the rounds that were only waiting on it, oldest first.
    /// Its already-merged contributions stay — the load was real.
    pub fn on_worker_dead(&mut self, worker: TaskId) -> Vec<(u64, ClosedRound)> {
        for round in self.rounds.values_mut() {
            round.expected.remove(&worker);
        }
        self.drain_complete()
    }

    /// Closes rounds past their deadline — `deadline_intervals` newer
    /// intervals have been issued (the deterministic clock) *and*
    /// `deadline` wall time has passed since the round opened — with
    /// whoever answered. Returns `(interval, round, missing reporters)`
    /// oldest first; the caller records the missing set in the fault
    /// ledger. A silent-but-subscribed worker thus delays statistics by
    /// a bounded amount instead of wedging shutdown.
    pub fn expire_rounds(
        &mut self,
        current_interval: u64,
        deadline_intervals: u64,
        deadline: std::time::Duration,
    ) -> Vec<(u64, ClosedRound, Vec<usize>)> {
        let now = Instant::now();
        let mut expired: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(iv, round)| {
                current_interval.saturating_sub(**iv) >= deadline_intervals
                    && now.duration_since(round.opened) >= deadline
            })
            .map(|(iv, _)| *iv)
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .filter_map(|iv| {
                let round = self.rounds.remove(&iv)?;
                let mut missing: Vec<usize> = round
                    .expected
                    .difference(&round.reporters)
                    .map(|w| w.index())
                    .collect();
                missing.sort_unstable();
                Some((iv, round.close(), missing))
            })
            .collect()
    }

    /// Removes and returns every complete round, oldest first.
    fn drain_complete(&mut self) -> Vec<(u64, ClosedRound)> {
        let mut done: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(_, r)| r.is_complete())
            .map(|(iv, _)| *iv)
            .collect();
        done.sort_unstable();
        done.into_iter()
            .filter_map(|iv| Some((iv, self.rounds.remove(&iv)?.close())))
            .collect()
    }

    /// Ingests one worker report. Returns the completed round when this
    /// report was the last one still expected.
    pub fn on_stats(
        &mut self,
        worker: TaskId,
        interval: u64,
        stats: IntervalStats,
        latency: &Histogram,
    ) -> Option<ClosedRound> {
        let Some(round) = self.rounds.get_mut(&interval) else {
            // Late or unknown round: never crash the controller — the
            // load is real traffic, so absorb it where the next decision
            // will see it.
            self.absorb(worker, &stats);
            return None;
        };
        let slot = worker.index().min(round.loads.len() - 1);
        round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
        round.merged.merge(&stats);
        round.latency.merge(latency);
        // A duplicate reporter merges (discarding would under-count) but
        // must not advance completion, or the round would close while a
        // distinct worker's report is still in flight.
        if round.reporters.insert(worker) && round.is_complete() {
            return self.rounds.remove(&interval).map(StatsRound::close);
        }
        None
    }

    /// Folds a retired victim's unreported residue into the oldest open
    /// round (issued while the victim was alive, so its slot exists), or
    /// carries it for the next round — dropping it would read as a load
    /// dip and re-trigger the scale-in policy.
    pub fn on_residue(&mut self, worker: TaskId, stats: &IntervalStats) {
        if !stats.is_empty() {
            self.absorb(worker, stats);
        }
    }

    fn absorb(&mut self, worker: TaskId, stats: &IntervalStats) {
        if let Some((_, round)) = self.rounds.iter_mut().min_by_key(|(k, _)| **k) {
            let slot = worker.index().min(round.loads.len() - 1);
            round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(stats);
        } else {
            self.carry.merge(stats);
        }
    }
}

/// The worker-seconds integral `∫ active(t) dt` — the provisioning cost
/// an elastic policy saves against a static peak-sized deployment.
///
/// One accumulation rule at every parallelism change: bill the *old*
/// parallelism for the span since the last change, then advance the
/// mark. Queued scale-ins thus bill each victim until its own retirement
/// completes (it is processing its backlog the whole time), not until
/// the decision that doomed it.
pub(crate) struct WorkerSeconds {
    mark: Instant,
    active: usize,
    total: f64,
}

impl WorkerSeconds {
    pub fn new(start: Instant, active: usize) -> Self {
        WorkerSeconds {
            mark: start,
            active,
            total: 0.0,
        }
    }

    /// Records a parallelism change at `now`.
    pub fn set_active(&mut self, now: Instant, active: usize) {
        self.total += self.active as f64 * now.duration_since(self.mark).as_secs_f64();
        self.mark = now;
        self.active = active;
    }

    /// Closes the integral at `now` and returns it.
    pub fn finish(mut self, now: Instant) -> f64 {
        self.set_active(now, 0);
        self.total
    }
}

/// The physical width and its liveness, with the worker-seconds integral
/// kept in step: slots `0..active` hold a worker or a corpse in `dead`,
/// and every change bills the live count through [`WorkerSeconds`].
///
/// `active` never shrinks on a death: the routing function still counts
/// the slot, the source diverts its traffic to survivors, and a later
/// scale-out revives it. It shrinks when a retire finishes — whether the
/// victim drained, died mid-drain, or died while its retire was queued.
struct Width {
    active: usize,
    dead: FxHashSet<usize>,
    ws: WorkerSeconds,
}

impl Width {
    fn is_dead(&self, slot: usize) -> bool {
        self.dead.contains(&slot)
    }

    fn kill(&mut self, slot: usize) {
        self.dead.insert(slot);
        self.bill();
    }

    fn revive(&mut self, slot: usize) {
        self.dead.remove(&slot);
        self.bill();
    }

    fn widen(&mut self) {
        self.active += 1;
        self.bill();
    }

    /// The tail `slot` leaves the width, dead or not.
    fn retire(&mut self, slot: usize) {
        debug_assert_eq!(slot + 1, self.active);
        self.dead.remove(&slot);
        self.active -= 1;
        self.bill();
    }

    fn bill(&mut self) {
        self.ws
            .set_active(Instant::now(), self.active - self.dead.len());
    }
}

/// What an op extracts once the source has paused.
enum Extract {
    /// Each holder ships the listed keys' state (`MigrateOut`), each to be
    /// installed at its paired destination.
    Moves(FxHashMap<TaskId, Vec<(Key, TaskId)>>),
    /// The victim — always the tail slot — drains its backlog, ships all
    /// of its state (`Retire`) to be re-homed under the op's view, and
    /// leaves the width.
    Retire(TaskId),
}

/// A control-plane op waiting its turn. Ops serialize through one queue,
/// so state placement advances one routing-function delta at a time:
/// each op moves state from the previous op's placement to its own
/// captured view.
struct PlannedOp {
    extract: Extract,
    /// Keys the source holds back while a `Moves` op runs (a retire
    /// holds back everything routed to its victim instead).
    affected: Vec<Key>,
    /// The routing function to resume under.
    view: RoutingView,
    /// Bill `migrated_bytes` from the extracted blobs (pre-placement and
    /// unsplit, whose state no single interval's statistics can size);
    /// a rebalance is billed up front from its plan.
    preplaced: bool,
    /// What the op's flight-recorder span is labelled.
    label: OpLabel,
}

impl PlannedOp {
    fn victim(&self) -> Option<TaskId> {
        match self.extract {
            Extract::Retire(victim) => Some(victim),
            Extract::Moves(_) => None,
        }
    }

    fn kind(&self) -> OpKind {
        match self.extract {
            Extract::Retire(_) => OpKind::Retire,
            Extract::Moves(_) => OpKind::Migrate,
        }
    }

    fn holders(&self) -> Vec<TaskId> {
        match &self.extract {
            Extract::Moves(by_source) => by_source.keys().copied().collect(),
            Extract::Retire(victim) => vec![*victim],
        }
    }

    fn pause(&self, epoch: u64) -> SourceCtl {
        match self.extract {
            Extract::Moves(_) => SourceCtl::Pause {
                epoch,
                affected: self.affected.clone(),
            },
            Extract::Retire(dest) => SourceCtl::PauseDest { epoch, dest },
        }
    }

    /// The extraction marker for `holder`.
    fn marker(&self, epoch: u64, holder: TaskId) -> (CtlKind, Message) {
        match &self.extract {
            Extract::Moves(by_source) => (
                CtlKind::MigrateOut,
                Message::MigrateOut {
                    epoch,
                    moves: by_source.get(&holder).cloned().unwrap_or_default(),
                },
            ),
            Extract::Retire(_) => (CtlKind::Retire, Message::Retire { epoch }),
        }
    }
}

/// A phase deadline, for ops and resumes alike: it expires once the
/// interval clock *and* the wall clock have run out — the wall clock
/// alone once the source has finished and intervals stopped (see
/// `EngineConfig::op_deadline_intervals`).
struct Deadline {
    started: Instant,
    started_interval: u64,
    /// An op gets one re-drive per phase; a resume is re-driven forever
    /// but ledgered once.
    retried: bool,
}

impl Deadline {
    fn new(interval: u64) -> Self {
        Deadline {
            started: Instant::now(),
            started_interval: interval,
            retried: false,
        }
    }

    fn expired(&self, interval: u64, source_finished: bool, limit: (u64, Duration)) -> bool {
        let wall_ok = self.started.elapsed() < limit.1;
        let iv_ok = interval < self.started_interval + limit.0;
        !wall_ok && (!iv_ok || source_finished)
    }

    /// Re-arms after a re-drive, keeping the retry mark.
    fn rearm(&mut self, interval: u64) {
        self.started = Instant::now();
        self.started_interval = interval;
    }
}

/// The one control-plane op in flight.
struct ActiveOp {
    epoch: u64,
    plan: PlannedOp,
    /// Whether the source acknowledged the pause — the phase a deadline
    /// re-drive repeats while false.
    pause_acked: bool,
    /// Holders whose extraction (`StateOut`, or the victim's `Retired`)
    /// is still awaited.
    awaiting_out: FxHashSet<TaskId>,
    /// Extracted `(key, destination, state)`, forwarded once every
    /// holder answered.
    collected: Vec<(Key, TaskId, Bytes)>,
    awaiting_install: FxHashSet<TaskId>,
    /// Installs already sent, kept for idempotent deadline resends (the
    /// worker dedupes by epoch). `Bytes` blobs are refcounted, so the
    /// clones are cheap.
    sent_installs: FxHashMap<TaskId, Vec<(Key, Bytes)>>,
    /// Whether the span's `StateOut` phase was recorded: phases are
    /// recorded once, whatever re-drives and duplicates follow.
    state_out_marked: bool,
    /// Reset on every phase progress.
    deadline: Deadline,
}

/// A worker the engine must start: its slot, the receiver of the slot's
/// fresh channel, its operator, and the first interval it serves.
pub(crate) struct Spawn {
    pub slot: usize,
    pub rx: Receiver<Message>,
    pub op: Box<dyn Operator>,
    pub start_interval: u64,
}

/// Longest the controller will wait for room in a worker's channel. A
/// live worker drains continuously, so a one-unit slot opens in well
/// under this; only a worker that died with a full queue (its `Killed`
/// event still in flight) keeps the channel full for the whole bound.
const CTL_SEND_TIMEOUT: Duration = Duration::from_millis(100);

/// The controller state machine (see the module docs).
pub(crate) struct Controller<OF> {
    partitioner: Box<dyn Partitioner>,
    op_factory: OF,
    policy: Box<dyn ElasticityPolicy>,
    split_policy: Option<Box<dyn SplitPolicy>>,
    max_workers: usize,
    channel_capacity: usize,
    preplace: bool,
    op_deadline: (u64, Duration),
    round_deadline: (u64, Duration),
    worker_txs: Vec<Sender<Message>>,
    ctl_tx: Sender<SourceCtl>,
    injector: Arc<FaultInjector>,
    /// Protocol spans (id = op epoch) and per-round snapshots.
    rec: ThreadRecorder,
    /// Tuples processed, for the interval throughput series.
    counter: Arc<Counter>,
    report: EngineReport,
    width: Width,
    pending: Option<ActiveOp>,
    queue: VecDeque<PlannedOp>,
    next_epoch: u64,
    /// Epochs that finished, aborted, or were synthesized for rollback
    /// and re-home installs: their late echoes are absorbed as stale
    /// instead of counted as protocol errors.
    closed_epochs: FxHashSet<u64>,
    /// Epochs whose span is open: a span closes `Completed` at its
    /// `ResumeAck`, `Aborted` at an abort, `Abandoned` at teardown —
    /// exactly once, whichever comes first.
    open_spans: FxHashSet<u64>,
    /// Outstanding source resumes: the view to re-drive each with and its
    /// deadline. Resumes are never abandoned — that would strand
    /// pause-buffered tuples at the source.
    resumes: FxHashMap<u64, (RoutingView, Deadline)>,
    ledger: StatsLedger,
    /// Rounds closed by reports, deaths or expiry, decided next tick.
    closed_rounds: Vec<(u64, ClosedRound)>,
    /// The latest source interval: the deterministic deadline clock.
    current_interval: u64,
    last_interval_mark: (Instant, u64),
    source_finished: bool,
    draining: bool,
    drained: usize,
    /// Shutdown markers delivered (dead slots and failed sends never
    /// answer `Drained`).
    drain_target: usize,
    /// A dead worker's receiver, held until the source acknowledges the
    /// re-route, then drained (every in-flight tuple counted lost) and
    /// dropped, so later sends fail fast.
    dead_pending: FxHashMap<usize, Receiver<Message>>,
    /// Per-key tuples irrecoverably lost to deaths.
    lost: FxHashMap<Key, u64>,
    /// Built on first use to size state blobs drained from dead channels.
    scratch_op: Option<Box<dyn Operator>>,
    /// Slots provisioned since the engine last took them.
    spawns: Vec<(usize, Receiver<Message>, u64)>,
}

impl<OF: FnMut(TaskId) -> Box<dyn Operator>> Controller<OF> {
    /// A controller for `config`, provisioning the initial workers
    /// (collect them with [`Controller::take_spawns`]). Every slot up to
    /// `max_workers` gets a sender from the start; a slot not yet
    /// provisioned has no receiver, so a stray send to it fails fast.
    /// The run's fault injector, shared with every other thread, is
    /// built here over `config.fault_plan` and mirrors into `sink`.
    pub fn new(
        config: &EngineConfig,
        partitioner: Box<dyn Partitioner>,
        op_factory: OF,
        ctl_tx: Sender<SourceCtl>,
        sink: &Arc<TraceSink>,
        counter: Arc<Counter>,
        t0: Instant,
    ) -> Self {
        let max_workers = config.max_workers.max(config.n_workers);
        let report = EngineReport {
            name: partitioner.name(),
            processed: 0,
            wall: Duration::ZERO,
            mean_throughput: 0.0,
            interval_throughput: TimeSeries::labelled("interval throughput"),
            latency_us: Histogram::new(),
            rebalances: 0,
            migrated_keys: 0,
            migrated_bytes: 0,
            per_worker_processed: vec![0; max_workers],
            final_states: Vec::new(),
            collector_result: Vec::new(),
            scale_events: Vec::new(),
            split_events: Vec::new(),
            worker_seconds: 0.0,
            first_tuple_interval: vec![None; max_workers],
            protocol_errors: Vec::new(),
            faults: Vec::new(),
            lost_tuples: Vec::new(),
            trace: TraceLog::default(),
        };
        let mut ctl = Controller {
            partitioner,
            op_factory,
            policy: config.elasticity.clone(),
            split_policy: config.split.clone(),
            max_workers,
            channel_capacity: config.channel_capacity,
            preplace: config.preplace,
            op_deadline: (config.op_deadline_intervals, config.op_deadline),
            round_deadline: (config.round_deadline_intervals, config.round_deadline),
            worker_txs: (0..max_workers)
                .map(|_| bounded(config.channel_capacity).0)
                .collect(),
            ctl_tx,
            injector: Arc::new(FaultInjector::with_trace(
                config.fault_plan.clone(),
                Arc::clone(sink),
            )),
            rec: sink.recorder(ThreadLabel::Controller),
            counter,
            report,
            width: Width {
                active: config.n_workers,
                dead: FxHashSet::default(),
                ws: WorkerSeconds::new(t0, config.n_workers),
            },
            pending: None,
            queue: VecDeque::new(),
            next_epoch: 0,
            closed_epochs: FxHashSet::default(),
            open_spans: FxHashSet::default(),
            resumes: FxHashMap::default(),
            ledger: StatsLedger::new(),
            closed_rounds: Vec::new(),
            current_interval: 0,
            last_interval_mark: (Instant::now(), 0),
            source_finished: false,
            draining: false,
            drained: 0,
            drain_target: 0,
            dead_pending: FxHashMap::default(),
            lost: FxHashMap::default(),
            scratch_op: None,
            spawns: Vec::new(),
        };
        for slot in 0..config.n_workers {
            ctl.open_slot(slot, 0);
        }
        ctl
    }

    /// The senders of every worker slot, for the source's data plane.
    pub fn worker_txs(&self) -> &[Sender<Message>] {
        &self.worker_txs
    }

    /// The run's fault injector.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The workers provisioned since the last call, operators built.
    pub fn take_spawns(&mut self) -> Vec<Spawn> {
        let spawns = std::mem::take(&mut self.spawns);
        spawns
            .into_iter()
            .map(|(slot, rx, start_interval)| Spawn {
                slot,
                rx,
                op: (self.op_factory)(TaskId::from(slot)),
                start_interval,
            })
            .collect()
    }

    /// Whether every worker has answered shutdown: the run is over.
    pub fn done(&self) -> bool {
        self.draining && self.drained >= self.drain_target
    }

    /// Ends the run: closes the worker-seconds integral and the loss
    /// map into the report, and returns it with the recorder and the
    /// spans teardown outran (in epoch order), which the engine closes
    /// `Abandoned` once every other thread has flushed.
    pub fn into_report(self, now: Instant) -> (EngineReport, ThreadRecorder, Vec<u64>) {
        let mut report = self.report;
        report.worker_seconds = self.width.ws.finish(now);
        let mut lost: Vec<(Key, u64)> = self.lost.into_iter().collect();
        lost.sort_unstable_by_key(|&(k, _)| k);
        report.lost_tuples = lost;
        let mut leftover: Vec<u64> = self.open_spans.into_iter().collect();
        leftover.sort_unstable();
        (report, self.rec, leftover)
    }

    // ---- events ------------------------------------------------------

    /// Handles one source event.
    pub fn on_source(&mut self, ev: SourceEvent) {
        match ev {
            SourceEvent::IntervalDone { interval } => self.on_interval_done(interval),
            SourceEvent::PauseAck { epoch } => self.on_pause_ack(epoch),
            SourceEvent::ResumeAck { epoch } => {
                if self.resumes.remove(&epoch).is_none() {
                    self.absorb_stale(epoch, "resume ack");
                } else if self.open_spans.remove(&epoch) {
                    // The span runs to the ack: its disruption window
                    // covers the whole pause → ... → resume round trip.
                    // (An aborted span closed at the abort.)
                    self.rec.span_close(epoch, Outcome::Completed);
                }
            }
            SourceEvent::DeadDestAck { dest } => {
                // The source no longer routes to the dead slot: drain its
                // channel one last time and drop the receiver.
                self.drain_dead(dest.index());
                self.dead_pending.remove(&dest.index());
            }
            SourceEvent::SendFailed { dest } => {
                // The source hit a disconnected channel before the
                // controller's DeadDest reached it; the tuples were
                // re-shipped to a survivor, so this is an observation.
                self.injector.record(FaultEvent::SendFailed {
                    to: SendPeer::Worker(dest.index()),
                });
            }
            SourceEvent::Finished => self.source_finished = true,
        }
    }

    /// Handles one worker event.
    pub fn on_worker(&mut self, ev: WorkerEvent) {
        match ev {
            WorkerEvent::Stats {
                worker,
                interval,
                stats,
                latency,
            } => {
                // The ledger absorbs late and duplicate reports; a
                // completed round waits for the next tick's decisions.
                if let Some(round) = self.ledger.on_stats(worker, interval, stats, &latency) {
                    self.closed_rounds.push((interval, round));
                }
            }
            WorkerEvent::StateOut {
                worker,
                epoch,
                states,
            } => match self.take_op(epoch) {
                Some(op) => self.on_extracted(op, worker, states, "state out"),
                None => {
                    // A late answer on a closed epoch is absorbed but not
                    // dropped: an aborted migration's holder can wake
                    // after the rollback and ship real state, which has
                    // left its owner and is re-homed under the current
                    // view.
                    let stray = ProtocolError::StrayStateOut {
                        worker: worker.index(),
                        epoch,
                        dropped_keys: states.len(),
                    };
                    if self.stale_or_stray(epoch, "state out", stray) {
                        self.rehome_stale(states.into_iter().map(|(k, _, b)| (k, b)));
                    }
                }
            },
            WorkerEvent::InstallAck { worker, epoch } => {
                let Some(mut op) = self.take_op(epoch) else {
                    let stray = ProtocolError::StrayInstallAck {
                        worker: worker.index(),
                        epoch,
                    };
                    self.stale_or_stray(epoch, "install ack", stray);
                    return;
                };
                if !op.awaiting_install.remove(&worker) {
                    // A re-driven install's second ack.
                    self.absorb_stale(epoch, "install ack");
                    self.pending = Some(op);
                } else if op.awaiting_install.is_empty() {
                    // Step 7: resume with F′.
                    self.complete(op);
                } else {
                    op.deadline = Deadline::new(self.current_interval);
                    self.pending = Some(op);
                }
            }
            WorkerEvent::Retired {
                worker,
                epoch,
                states,
                stats,
                processed,
                latency,
                first_interval,
            } => {
                // Keep the books whoever retired: merge its totals and
                // fold its unreported residue into the oldest open round
                // (dropping it would read as a load dip).
                self.report
                    .absorb_worker(worker.index(), processed, &latency, first_interval);
                self.ledger.on_residue(worker, &stats);
                match self.take_op(epoch) {
                    Some(op) => {
                        self.width.retire(worker.index());
                        // Re-home the drained state under the op's view —
                        // the placement every later op's delta is
                        // computed against.
                        let states = route_states(op.plan.view.clone(), states);
                        self.on_extracted(op, worker, states, "retired");
                    }
                    None => {
                        // A zombie victim — its retire aborted, but the
                        // marker had landed, so the drain completed
                        // anyway.
                        let stray = ProtocolError::StrayRetired {
                            worker: worker.index(),
                            epoch,
                        };
                        if self.stale_or_stray(epoch, "retired", stray) {
                            if worker.index() + 1 == self.width.active {
                                self.width.retire(worker.index());
                            }
                            self.rehome_stale(states);
                        }
                    }
                }
            }
            WorkerEvent::Killed {
                worker,
                lost,
                stats,
                processed,
                latency,
                first_interval,
                rx,
            } => {
                // What the worker did process counts; what it held is
                // lost and accounted per key.
                self.report
                    .absorb_worker(worker.index(), processed, &latency, first_interval);
                self.ledger.on_residue(worker, &stats);
                self.on_killed(worker, lost, rx);
            }
            WorkerEvent::Drained {
                worker,
                final_states,
                processed,
                latency,
                first_interval,
            } => {
                self.report
                    .absorb_worker(worker.index(), processed, &latency, first_interval);
                self.report.final_states.extend(final_states);
                self.drained += 1;
            }
        }
    }

    fn on_interval_done(&mut self, interval: u64) {
        self.current_interval = interval;
        let now = Instant::now();
        let count = self.counter.get();
        let (mark, mark_count) = self.last_interval_mark;
        let dt = now.duration_since(mark).as_secs_f64().max(1e-9);
        self.report
            .interval_throughput
            .push(interval as f64, (count - mark_count) as f64 / dt);
        self.last_interval_mark = (now, count);
        // Queue depths at interval close (tuple-weighted occupancy, the
        // backpressure signal), sampled before the stats markers join
        // the queues they measure.
        let active = self.width.active;
        let queues: Vec<u64> = self.worker_txs[..active]
            .iter()
            .map(|tx| tx.queued_weight() as u64)
            .collect();
        // In-band stats round, skipping dead slots and a retiring victim
        // (its Retire marker is already ahead of this request). A request
        // the injector drops stays expected — the controller cannot know
        // it was lost; the round deadline closes it.
        let retiring = self.retiring();
        let mut expected: Vec<TaskId> = Vec::new();
        for i in 0..active {
            if retiring == Some(TaskId::from(i)) || self.width.is_dead(i) {
                continue;
            }
            if self.injector.should_drop(CtlKind::StatsRequest)
                || self.ctl_send(i, Message::StatsRequest { interval })
            {
                expected.push(TaskId::from(i));
            }
        }
        if !expected.is_empty() {
            self.ledger.open(interval, active, expected, queues);
        }
    }

    fn on_pause_ack(&mut self, epoch: u64) {
        let Some(mut op) = self.take_op(epoch) else {
            self.stale_or_stray(epoch, "pause ack", ProtocolError::StrayPauseAck { epoch });
            return;
        };
        if op.pause_acked {
            // The pause was re-driven but the first ack was only slow.
            self.absorb_stale(epoch, "pause ack");
            self.pending = Some(op);
            return;
        }
        op.pause_acked = true;
        op.deadline = Deadline::new(self.current_interval);
        // The source is quiesced: every tuple it sent a holder is in the
        // holder's channel, and each marker lands behind them. A holder
        // that died since planning has nothing left to extract; a
        // dropped marker stays awaited and the deadline re-drives it.
        self.rec.span_phase(epoch, Phase::QuiesceWait);
        for w in op.plan.holders() {
            if self.width.is_dead(w.index()) {
                continue;
            }
            op.awaiting_out.insert(w);
            let (kind, msg) = op.plan.marker(epoch, w);
            self.send_marker(w.index(), kind, msg);
        }
        if op.awaiting_out.is_empty() {
            // Nothing to extract (a split): resume at once.
            self.complete(op);
        } else {
            self.pending = Some(op);
        }
    }

    /// One holder's extracted state is in hand; forwards everything once
    /// the last holder answered.
    fn on_extracted(
        &mut self,
        mut op: ActiveOp,
        worker: TaskId,
        states: Vec<(Key, TaskId, Bytes)>,
        what: &'static str,
    ) {
        if !op.awaiting_out.remove(&worker) {
            // A re-driven marker's second answer: the first extraction
            // emptied the keys, so it carries nothing to keep.
            self.absorb_stale(op.epoch, what);
            self.pending = Some(op);
            return;
        }
        op.deadline = Deadline::new(self.current_interval);
        if !op.state_out_marked {
            op.state_out_marked = true;
            self.rec.span_phase(op.epoch, Phase::StateOut);
        }
        if op.plan.preplaced {
            self.report.migrated_bytes +=
                states.iter().map(|(_, _, b)| b.len() as u64).sum::<u64>();
        }
        op.collected.extend(states);
        if op.awaiting_out.is_empty() {
            self.forward(op);
        } else {
            self.pending = Some(op);
        }
    }

    fn on_killed(&mut self, worker: TaskId, held: Vec<(Key, u64)>, rx: Receiver<Message>) {
        let w = worker.index();
        self.injector.record(FaultEvent::WorkerDead { worker: w });
        let closed = self.ledger.on_worker_dead(worker);
        self.closed_rounds.extend(closed);
        let mut n_lost = 0u64;
        for (k, n) in held {
            n_lost += n;
            *self.lost.entry(k).or_insert(0) += n;
        }
        self.injector.add_lost(n_lost);
        self.injector.record(FaultEvent::StateLost { worker: w });
        self.width.kill(w);
        // Pin the dead slot's keys onto survivors and tell the source;
        // its ack says the re-route is live, and the channel backlog is
        // then drained and accounted.
        let dead = &self.width.dead;
        let moves = self
            .partitioner
            .reroute_dead(worker, &|x| dead.contains(&x));
        self.injector.record(FaultEvent::Rerouted {
            from_worker: w,
            moved_keys: moves.len(),
        });
        self.send_src(
            None,
            SourceCtl::DeadDest {
                dest: worker,
                moves,
            },
        );
        self.dead_pending.insert(w, rx);
        // Untangle the op in flight from the corpse rather than wait for
        // the deadline to notice.
        if let Some(mut op) = self.pending.take() {
            if op.plan.victim() == Some(worker) {
                // A retire whose victim died: its state died with it
                // (accounted above), so the retire finishes the way a
                // queued retire with a dead victim does — the slot
                // leaves the width.
                self.width.retire(w);
                self.complete(op);
            } else if op.awaiting_out.remove(&worker) && op.awaiting_out.is_empty() {
                self.forward(op);
            } else if op.awaiting_install.remove(&worker) && op.awaiting_install.is_empty() {
                // The blob in its channel is counted by the drain.
                self.complete(op);
            } else {
                self.pending = Some(op);
            }
        }
        // A death during the drain means one Shutdown goes unanswered.
        if self.draining {
            self.drain_target = self.drain_target.saturating_sub(1);
        }
    }

    // ---- the bottom half ---------------------------------------------

    /// Runs on every wake-up, event or not: keeps dead channels drained,
    /// expires silent stats rounds, decides closed rounds, enforces op
    /// and resume deadlines, starts the next queued op, and opens the
    /// shutdown gate once everything is quiet.
    pub fn tick(&mut self) {
        // A dead slot's bounded channel left full would backpressure the
        // source against a corpse while its DeadDest is in flight.
        let slots: Vec<usize> = self.dead_pending.keys().copied().collect();
        for w in slots {
            self.drain_dead(w);
        }
        let (iv_limit, wall_limit) = self.round_deadline;
        for (interval, round, missing) in
            self.ledger
                .expire_rounds(self.current_interval, iv_limit, wall_limit)
        {
            self.injector
                .record(FaultEvent::RoundTimedOut { interval, missing });
            self.closed_rounds.push((interval, round));
        }
        for (interval, round) in std::mem::take(&mut self.closed_rounds) {
            self.decide(interval, round);
        }
        self.check_op_deadline();
        self.check_resume_deadlines();
        if self.pending.is_none() {
            if let Some(plan) = self.queue.pop_front() {
                self.start(plan);
            }
        }
        // Shutdown when fully quiesced. No resume may be outstanding (the
        // source's flush must precede the Shutdown markers in the worker
        // channels), and no dead channel undrained (its backlog must be
        // counted before teardown).
        if self.source_finished
            && !self.draining
            && self.pending.is_none()
            && self.queue.is_empty()
            && self.ledger.outstanding() == 0
            && self.resumes.is_empty()
            && self.dead_pending.is_empty()
        {
            self.draining = true;
            for i in 0..self.width.active {
                // A slot whose Shutdown did not land is left out of the
                // target; its thread exits when the channel disconnects.
                if !self.width.is_dead(i) && self.ctl_send(i, Message::Shutdown) {
                    self.drain_target += 1;
                }
            }
        }
    }

    /// Decides one closed round: scale, split, rebalance — each step
    /// mutating the partitioner, its physical half executed (or queued
    /// with the view its own step left) before the next step runs.
    fn decide(&mut self, interval: u64, round: ClosedRound) {
        self.rec.snapshot(
            interval,
            round.loads.clone(),
            round.queues.clone(),
            round.mean_latency_us,
            round.p99_latency_us,
        );
        let merged = round.merged;
        let mut decider = RoundDecider {
            interval,
            loads: &round.loads,
            queue_depths: &round.queues,
            mean_latency_us: round.mean_latency_us,
            p99_latency_us: round.p99_latency_us,
            dead: self.width.dead.iter().copied().collect(),
        };
        let limits = ScaleLimits {
            max_tasks: self.max_workers,
            // Physical width above the planned one: a retire is queued,
            // in flight, or its aborted victim is still draining.
            scale_in_flight: self.width.active > self.partitioner.n_tasks(),
            preplace: self.preplace,
        };
        match decider.scale(
            self.policy.as_mut(),
            self.partitioner.as_mut(),
            &merged,
            limits,
        ) {
            ScaleAction::Hold => {}
            ScaleAction::Revive { slot } => {
                // The revived slot starts key-less; the next rebalance
                // loads it.
                self.provision(slot, interval + 1);
                self.width.revive(slot);
                self.injector
                    .record(FaultEvent::SlotRevived { worker: slot });
            }
            ScaleAction::Widen { event, moves } => {
                debug_assert_eq!(event.from, self.width.active);
                let new = TaskId::from(event.from);
                self.provision(event.from, interval + 1);
                self.width.widen();
                self.report.scale_events.push(event);
                if moves.is_empty() {
                    // Nothing to pre-place: publish the grown view.
                    let view = self.partitioner.routing_view();
                    self.send_src(None, SourceCtl::UpdateView { view });
                } else {
                    // Pre-placement: the new slot's keys move in through
                    // the rebalance machinery, so it takes load this
                    // interval.
                    self.report.migrated_keys += moves.len() as u64;
                    let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
                    let mut affected = Vec::with_capacity(moves.len());
                    for (k, holder) in moves {
                        affected.push(k);
                        by_source.entry(holder).or_default().push((k, new));
                    }
                    self.queue_moves(by_source, affected, None, true, OpLabel::ScaleOut);
                }
            }
            ScaleAction::HeldDegraded => {
                self.injector.record(FaultEvent::ScaleHeld { interval });
            }
            ScaleAction::Shrink { event } => {
                // The routing function already shrank; the physical
                // retirement queues behind any op in flight.
                self.report.scale_events.push(event);
                self.queue.push_back(PlannedOp {
                    extract: Extract::Retire(TaskId::from(event.to)),
                    affected: Vec::new(),
                    view: self.partitioner.routing_view(),
                    preplaced: false,
                    label: OpLabel::ScaleIn,
                });
            }
        }
        match decider.split(
            self.split_policy.as_deref_mut(),
            self.partitioner.as_mut(),
            &merged,
        ) {
            SplitAction::Hold => {}
            SplitAction::Split { event } => {
                // No state moves: a degenerate migration whose pause
                // window makes the view swap atomic.
                self.report.split_events.push(event);
                let affected = vec![Key(event.key)];
                self.queue_moves(FxHashMap::default(), affected, None, false, OpLabel::Split);
            }
            SplitAction::Unsplit {
                event,
                primary,
                movers,
            } => {
                // Each live non-primary replica's partial moves into the
                // primary, whose `install` merges additively.
                self.report.split_events.push(event);
                let k = Key(event.key);
                let by_source = movers
                    .into_iter()
                    .map(|r| (r, vec![(k, primary)]))
                    .collect();
                self.queue_moves(by_source, vec![k], None, true, OpLabel::Unsplit);
            }
        }
        // An empty plan is a planner call, not a rebalance.
        let rebalance = decider.rebalance(self.partitioner.as_mut(), merged);
        if let Some(rb) = rebalance.filter(Rebalance::fired) {
            let plan = &rb.outcome.plan;
            self.report.rebalances += 1;
            self.report.migrated_keys += plan.keys_moved() as u64;
            self.report.migrated_bytes += plan.cost_bytes();
            let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
            for (holder, k, to) in rb.transfers {
                by_source.entry(holder).or_default().push((k, to));
            }
            // A rebalance the partitioner applied as a delta ships the
            // source the same delta, O(churn). Swaps, scale ops and dead
            // involvement (the decider's diversions made the table
            // diverge from the raw moves) ship full views.
            let view = if !rb.dead_involved && self.partitioner.last_install_was_delta() {
                RoutingView::TableDelta {
                    n_tasks: self.partitioner.n_tasks(),
                    moves: plan.moves().iter().map(|m| (m.key, m.to)).collect(),
                }
            } else {
                self.partitioner.routing_view()
            };
            let affected = plan.moves().iter().map(|m| m.key).collect();
            self.queue_moves(by_source, affected, Some(view), false, OpLabel::Rebalance);
        }
    }

    /// Queues a key-moving op under `view`, or the partitioner's current
    /// view when `None`.
    fn queue_moves(
        &mut self,
        by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>>,
        affected: Vec<Key>,
        view: Option<RoutingView>,
        preplaced: bool,
        label: OpLabel,
    ) {
        self.queue.push_back(PlannedOp {
            extract: Extract::Moves(by_source),
            affected,
            view: view.unwrap_or_else(|| self.partitioner.routing_view()),
            preplaced,
            label,
        });
    }

    /// Starts a queued op: opens its span and pauses the source.
    fn start(&mut self, mut plan: PlannedOp) {
        if let Some(victim) = plan.victim().filter(|v| self.width.is_dead(v.index())) {
            // The victim died before its retire started: state accounted,
            // keys re-routed. The slot leaves the width and the source
            // takes the shrunk view; no pause is needed, since the source
            // diverts the slot anyway.
            self.width.retire(victim.index());
            self.send_src(None, SourceCtl::UpdateView { view: plan.view });
            return;
        }
        if let Extract::Moves(by_source) = &mut plan.extract {
            // Movers that died since planning hold no state (lost and
            // accounted at death); their keys still move in the view.
            let dead = &self.width.dead;
            by_source.retain(|src, _| !dead.contains(&src.index()));
        }
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        // The span id is the op epoch: Plan marks the pop, Pause the
        // quiesce request going out.
        self.rec.span_open(epoch, plan.label);
        self.rec.span_phase(epoch, Phase::Plan);
        self.rec.span_phase(epoch, Phase::Pause);
        self.open_spans.insert(epoch);
        self.send_src(Some(CtlKind::Pause), plan.pause(epoch));
        self.pending = Some(ActiveOp {
            epoch,
            plan,
            pause_acked: false,
            awaiting_out: FxHashSet::default(),
            collected: Vec::new(),
            awaiting_install: FxHashSet::default(),
            sent_installs: FxHashMap::default(),
            state_out_marked: false,
            deadline: Deadline::new(self.current_interval),
        });
    }

    /// Every holder answered: installs the collected state at its
    /// destinations, diverting any that died since the plan was cut (the
    /// state must land where shutdown can drain it), or resumes at once
    /// when there is nothing to install. Installs are never
    /// injector-dropped (they carry state); a failed send is recovered
    /// by the deadline or the destination's death.
    fn forward(&mut self, mut op: ActiveOp) {
        let by_dest = self.group_by_dest(op.collected.drain(..));
        if by_dest.is_empty() {
            self.complete(op);
            return;
        }
        self.rec.span_phase(op.epoch, Phase::Install);
        for (dest, states) in by_dest {
            op.awaiting_install.insert(dest);
            let msg = Message::StateInstall {
                epoch: op.epoch,
                states: states.clone(),
            };
            self.ctl_send(dest.index(), msg);
            op.sent_installs.insert(dest, states);
        }
        self.pending = Some(op);
    }

    /// The op finished: resume under its view and close its epoch.
    fn complete(&mut self, op: ActiveOp) {
        self.send_resume(op.epoch, op.plan.view);
        self.closed_epochs.insert(op.epoch);
    }

    /// First expiry re-drives the stuck phase (markers are idempotent:
    /// workers and source absorb duplicates by epoch); the second aborts.
    fn check_op_deadline(&mut self) {
        let Some(mut op) = self.pending.take() else {
            return;
        };
        if !op.deadline.expired(
            self.current_interval,
            self.source_finished,
            self.op_deadline,
        ) {
            self.pending = Some(op);
            return;
        }
        if op.deadline.retried {
            self.abort(op);
            return;
        }
        op.deadline.retried = true;
        op.deadline.rearm(self.current_interval);
        let epoch = op.epoch;
        self.injector.record(FaultEvent::OpRetried {
            op: op.plan.kind(),
            epoch,
        });
        if !op.pause_acked {
            self.send_src(Some(CtlKind::Pause), op.plan.pause(epoch));
        } else if !op.awaiting_out.is_empty() {
            let stuck: Vec<TaskId> = op.awaiting_out.iter().copied().collect();
            for w in stuck {
                if !self.width.is_dead(w.index()) {
                    let (kind, msg) = op.plan.marker(epoch, w);
                    self.send_marker(w.index(), kind, msg);
                }
            }
        } else {
            for (&dest, states) in &op.sent_installs {
                if op.awaiting_install.contains(&dest) && !self.width.is_dead(dest.index()) {
                    let msg = Message::StateInstall {
                        epoch,
                        states: states.clone(),
                    };
                    self.ctl_send(dest.index(), msg);
                }
            }
        }
        self.pending = Some(op);
    }

    /// Aborts the op in flight. Its span closes `Aborted` before any
    /// rollback resume goes out, so no resume phase lands on it.
    fn abort(&mut self, op: ActiveOp) {
        let epoch = op.epoch;
        self.injector.record(FaultEvent::OpAborted {
            op: op.plan.kind(),
            epoch,
        });
        self.closed_epochs.insert(epoch);
        if self.open_spans.remove(&epoch) {
            self.rec.span_close(epoch, Outcome::Aborted);
        }
        let by_source = match op.plan.extract {
            Extract::Moves(by_source) => by_source,
            Extract::Retire(_) => {
                // The routing already shrank at decision time, so resume
                // under the retire's view: a still-live victim becomes a
                // routed-around zombie that drains at shutdown with its
                // state, and a late `Retired` is absorbed.
                self.send_resume(epoch, op.plan.view);
                return;
            }
        };
        // Roll the routing back: every affected key returns to its origin
        // (diverted past corpses). State still in hand is re-installed
        // there under a fresh pre-closed epoch; state already delivered
        // stays where it landed — re-sending it could double-count, and
        // per-key counts merge at shutdown wherever they are held.
        let n_tasks = self.partitioner.n_tasks();
        let mut origin_of: FxHashMap<Key, TaskId> = FxHashMap::default();
        let mut reverse: Vec<(Key, TaskId)> = Vec::new();
        for (&src, moves) in &by_source {
            let home = divert(src, n_tasks, |x| self.width.is_dead(x));
            for &(k, _) in moves {
                reverse.push((k, home));
                origin_of.insert(k, home);
            }
        }
        self.partitioner.apply_moves(&reverse);
        self.next_epoch += 1;
        let rollback = self.next_epoch;
        self.closed_epochs.insert(rollback);
        let mut by_origin: FxHashMap<TaskId, Vec<(Key, Bytes)>> = FxHashMap::default();
        for (k, _to, blob) in op.collected {
            if let Some(&home) = origin_of.get(&k) {
                by_origin.entry(home).or_default().push((k, blob));
            }
        }
        // The rollback is its own span on the pre-closed epoch: its
        // installs and resume happen right here, so it opens and closes
        // in one breath.
        self.rec.span_open(rollback, OpLabel::Rollback);
        if !by_origin.is_empty() {
            self.rec.span_phase(rollback, Phase::Install);
        }
        for (dest, states) in by_origin {
            let msg = Message::StateInstall {
                epoch: rollback,
                states,
            };
            self.ctl_send(dest.index(), msg);
        }
        self.rec.span_phase(rollback, Phase::Resume);
        let view = self.partitioner.routing_view();
        self.send_resume(epoch, view);
        self.rec.span_close(rollback, Outcome::Completed);
    }

    /// Re-drives expired resumes, forever: an abandoned resume would
    /// strand pause-buffered tuples at the source and hang shutdown. Only
    /// the first re-drive is ledgered; the source absorbs duplicates.
    fn check_resume_deadlines(&mut self) {
        let mut redrive: Vec<(u64, RoutingView)> = Vec::new();
        for (&epoch, (view, deadline)) in &mut self.resumes {
            if !deadline.expired(
                self.current_interval,
                self.source_finished,
                self.op_deadline,
            ) {
                continue;
            }
            if !deadline.retried {
                deadline.retried = true;
                self.injector.record(FaultEvent::OpRetried {
                    op: OpKind::Resume,
                    epoch,
                });
            }
            deadline.rearm(self.current_interval);
            redrive.push((epoch, view.clone()));
        }
        for (epoch, view) in redrive {
            self.send_src(Some(CtlKind::Resume), SourceCtl::Resume { epoch, view });
        }
    }

    // ---- helpers -----------------------------------------------------

    /// The op in flight, taken out, if `epoch` is its epoch.
    fn take_op(&mut self, epoch: u64) -> Option<ActiveOp> {
        match self.pending.take() {
            Some(op) if op.epoch == epoch => Some(op),
            other => {
                self.pending = other;
                None
            }
        }
    }

    /// The victim a retire is waiting on to drain, once its marker went
    /// out.
    fn retiring(&self) -> Option<TaskId> {
        let op = self.pending.as_ref()?;
        op.plan.victim().filter(|v| op.awaiting_out.contains(v))
    }

    /// Classifies an answer for an epoch with no op in flight: a closed
    /// epoch's late echo (a re-driven op's duplicate, a zombie's drain)
    /// is absorbed and `true` returned; an unknown epoch is recorded as
    /// `stray`.
    fn stale_or_stray(&mut self, epoch: u64, what: &'static str, stray: ProtocolError) -> bool {
        if self.closed_epochs.contains(&epoch) {
            self.absorb_stale(epoch, what);
            true
        } else {
            self.report.protocol_errors.push(stray);
            false
        }
    }

    fn absorb_stale(&self, epoch: u64, what: &'static str) {
        self.injector
            .record(FaultEvent::StaleEpochAbsorbed { epoch, what });
    }

    /// Opens a fresh channel on `slot` and queues its worker for the
    /// engine to start.
    fn open_slot(&mut self, slot: usize, start_interval: u64) -> Sender<Message> {
        let (tx, rx) = bounded(self.channel_capacity);
        self.worker_txs[slot] = tx.clone();
        self.spawns.push((slot, rx, start_interval));
        tx
    }

    /// Provisions `slot` mid-run — widening onto the tail or reviving a
    /// dead slot — and hands the source the slot's new sender.
    fn provision(&mut self, slot: usize, start_interval: u64) {
        let tx = self.open_slot(slot, start_interval);
        let dest = TaskId::from(slot);
        self.send_src(None, SourceCtl::ProvisionDest { dest, tx });
    }

    /// Sends the source a resume for `epoch` and arms its deadline. The
    /// span's `Resume` phase is recorded here, once, while the span is
    /// open.
    fn send_resume(&mut self, epoch: u64, view: RoutingView) {
        if self.open_spans.contains(&epoch) {
            self.rec.span_phase(epoch, Phase::Resume);
        }
        let msg = SourceCtl::Resume {
            epoch,
            view: view.clone(),
        };
        self.send_src(Some(CtlKind::Resume), msg);
        self.resumes
            .insert(epoch, (view, Deadline::new(self.current_interval)));
    }

    /// Routes `states` under the current view, diverted past dead slots,
    /// and installs them fire-and-forget on a fresh pre-closed epoch
    /// (their acks absorb as stale). For state that arrived on a closed
    /// epoch and has left its owner.
    fn rehome_stale(&mut self, states: impl IntoIterator<Item = (Key, Bytes)>) {
        let states = route_states(self.partitioner.routing_view(), states);
        let by_dest = self.group_by_dest(states);
        if by_dest.is_empty() {
            return;
        }
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        self.closed_epochs.insert(epoch);
        for (dest, states) in by_dest {
            self.ctl_send(dest.index(), Message::StateInstall { epoch, states });
        }
    }

    /// Groups `(key, destination, state)` by destination, diverting dead
    /// destinations to the next live slot.
    fn group_by_dest(
        &self,
        states: impl IntoIterator<Item = (Key, TaskId, Bytes)>,
    ) -> FxHashMap<TaskId, Vec<(Key, Bytes)>> {
        let n_tasks = self.partitioner.n_tasks();
        let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> = FxHashMap::default();
        for (k, to, blob) in states {
            let d = divert(to, n_tasks, |x| self.width.is_dead(x));
            by_dest.entry(d).or_default().push((k, blob));
        }
        by_dest
    }

    /// Drains whatever sits in dead slot `w`'s channel, counting every
    /// in-flight tuple and state blob as lost.
    fn drain_dead(&mut self, w: usize) {
        let Some(rx) = self.dead_pending.get(&w) else {
            return;
        };
        let factory = &mut self.op_factory;
        let sop = self
            .scratch_op
            .get_or_insert_with(|| factory(TaskId::from(w)));
        let mut n_lost = 0u64;
        let mut lose = |k: Key, n: u64| {
            *self.lost.entry(k).or_insert(0) += n;
            n_lost += n;
        };
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Message::TupleBatch(batch) => batch.iter().for_each(|t| lose(t.key, 1)),
                Message::StateInstall { states, .. } => {
                    for (k, blob) in states {
                        lose(k, sop.tuples_in_blob(&blob));
                    }
                }
                _ => {}
            }
        }
        self.injector.add_lost(n_lost);
    }

    /// Bounded-wait control send to worker slot `w`. The controller must
    /// never block indefinitely on a worker channel: the worker may have
    /// died with a full queue before its `Killed` event was handled. A
    /// timeout is treated like a message lost in flight (the deadline
    /// re-drives it); a disconnect is recorded.
    fn ctl_send(&self, w: usize, msg: Message) -> bool {
        match self.worker_txs[w].send_timeout(msg, CTL_SEND_TIMEOUT) {
            Ok(()) => true,
            Err(SendTimeoutError::Timeout(_)) => false,
            Err(SendTimeoutError::Disconnected(_)) => {
                self.injector.record(FaultEvent::SendFailed {
                    to: SendPeer::Worker(w),
                });
                false
            }
        }
    }

    /// Sends a droppable control marker to worker `w`; false when it did
    /// not reach the channel (dropped, timed out or disconnected) — the
    /// deadline recovers all three.
    fn send_marker(&self, w: usize, kind: CtlKind, msg: Message) -> bool {
        !self.injector.should_drop(kind) && self.ctl_send(w, msg)
    }

    /// Sends a source control message, drop-gated when `kind` names a
    /// droppable kind (view updates and shutdown are never dropped).
    fn send_src(&self, kind: Option<CtlKind>, msg: SourceCtl) -> bool {
        if kind.is_some_and(|k| self.injector.should_drop(k)) {
            return false;
        }
        if self.ctl_tx.send(msg).is_err() {
            self.injector.record(FaultEvent::SendFailed {
                to: SendPeer::Source,
            });
            return false;
        }
        true
    }
}

/// Routes each non-empty state blob to the slot `view` maps its key to.
fn route_states(
    view: RoutingView,
    states: impl IntoIterator<Item = (Key, Bytes)>,
) -> Vec<(Key, TaskId, Bytes)> {
    let mut router = SourceRouter::from_view(view);
    states
        .into_iter()
        .filter(|(_, blob)| !blob.is_empty())
        .map(|(k, blob)| (k, router.route(k), blob))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WordCountOp;
    use streambal_baselines::HashPartitioner;
    use streambal_elastic::{FixedSchedule, ScaleDecision, ScaleEvent};

    fn stats_with_cost(key: u64, cost: u64) -> IntervalStats {
        let mut s = IntervalStats::new();
        s.observe(Key(key), 1, cost, 1);
        s
    }

    fn expect_n(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId::from).collect()
    }

    fn close_all_but(ledger: &mut StatsLedger, interval: u64, workers: &[usize]) {
        for &w in workers {
            assert!(ledger
                .on_stats(
                    TaskId::from(w),
                    interval,
                    stats_with_cost(w as u64, 10),
                    &Histogram::new(),
                )
                .is_none());
        }
    }

    #[test]
    fn round_closes_when_all_expected_report() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![5, 0, 2]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 30), &Histogram::new())
            .expect("third report closes");
        assert_eq!(closed.loads, vec![10, 10, 30]);
        assert_eq!(closed.queues, vec![5, 0, 2]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The seed's first panic path: a report for a round the ledger
    /// already closed (a retiring worker answering late) must fold into
    /// an open round instead of crashing.
    #[test]
    fn late_report_folds_into_oldest_open_round() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .is_some());
        // Round 0 is gone. Rounds 1 and 2 are open; a late report for
        // round 0 lands in round 1 (the oldest), clamped to its slots.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.open(2, 2, expect_n(2), vec![0, 0]);
        assert!(ledger
            .on_stats(TaskId(7), 0, stats_with_cost(9, 55), &Histogram::new())
            .is_none());
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes");
        assert_eq!(closed.loads, vec![10, 65], "late load folded, clamped");
        assert_eq!(ledger.outstanding(), 1);
    }

    /// With no round open at all, a late report carries into the next
    /// round issued — the retired-victim residue path.
    #[test]
    fn late_report_with_no_open_round_carries_forward() {
        let mut ledger = StatsLedger::new();
        assert!(ledger
            .on_stats(TaskId(3), 9, stats_with_cost(4, 40), &Histogram::new())
            .is_none());
        ledger.open(10, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 10, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 10, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 50], "carry lands on the tail slot");
    }

    /// The seed's second hazard: a duplicate report must not close a
    /// round early (a distinct worker's report is still in flight) and
    /// must not lose the duplicated load.
    #[test]
    fn duplicate_report_merges_without_advancing_completion() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        // Worker 1 reports again: still waiting on worker 2.
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 7), &Histogram::new())
            .is_none());
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 10), &Histogram::new())
            .expect("real third report closes");
        assert_eq!(closed.loads, vec![10, 17, 10]);
    }

    #[test]
    fn residue_folds_into_oldest_round_or_carry() {
        let mut ledger = StatsLedger::new();
        // No round open: residue carries into the next open().
        ledger.on_residue(TaskId(2), &stats_with_cost(5, 21));
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 31]);
        // Round open: residue folds straight in, slot clamped.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.on_residue(TaskId(6), &stats_with_cost(5, 9));
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 19]);
    }

    #[test]
    fn latency_summary_merges_across_reporters() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        let mut h0 = Histogram::new();
        h0.record(100);
        let mut h1 = Histogram::new();
        h1.record(300);
        assert!(ledger
            .on_stats(TaskId(0), 0, stats_with_cost(0, 1), &h0)
            .is_none());
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 1), &h1)
            .expect("closes");
        assert_eq!(closed.mean_latency_us, 200.0);
        assert!(closed.p99_latency_us >= 250.0, "{}", closed.p99_latency_us);
    }

    /// A reporter that dies mid-round must not wedge the round: striking
    /// it off closes every round that was only waiting on it, and its
    /// already-merged load stays in the closed totals.
    #[test]
    fn dead_reporter_closes_waiting_rounds() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
        ledger.open(1, 3, expect_n(3), vec![0, 0, 0]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        close_all_but(&mut ledger, 1, &[0]);
        // Worker 2 dies. Round 0 was only waiting on it → closes with
        // the two real reports; round 1 still waits on worker 1.
        let closed = ledger.on_worker_dead(TaskId(2));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 1);
        let done = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes without the dead worker");
        assert_eq!(done.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The satellite regression: a permanently-silent reporter (alive
    /// but never answering) delays a round only until the deadline, then
    /// the round closes with whoever answered and names the missing
    /// worker — instead of holding `outstanding()` (and shutdown, which
    /// gates on it) hostage forever.
    #[test]
    fn silent_reporter_round_closes_by_deadline() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        // Worker 1 never reports. Not enough intervals elapsed: no expiry.
        assert!(ledger
            .expire_rounds(1, 2, Duration::from_millis(0))
            .is_empty());
        // Interval clock satisfied but wall deadline not yet: no expiry.
        assert!(ledger
            .expire_rounds(5, 2, Duration::from_secs(3600))
            .is_empty());
        let expired = ledger.expire_rounds(5, 2, Duration::from_millis(0));
        assert_eq!(expired.len(), 1);
        let (iv, round, missing) = &expired[0];
        assert_eq!(*iv, 0);
        assert_eq!(round.loads, vec![10, 0]);
        assert_eq!(missing, &vec![1], "the silent worker is named");
        assert_eq!(ledger.outstanding(), 0, "shutdown is no longer gated");
    }

    /// The hand-computed worker-seconds trace for a queued scale-in: a
    /// scale-out at t=2 (3→4), two queued victims whose retirements
    /// complete at t=5 (4→3) and t=6 (3→2), shutdown at t=10. Each span
    /// bills the parallelism that was actually live:
    /// 3·2 + 4·3 + 3·1 + 2·4 = 29 — exactly, so double- or
    /// under-counting can never regress silently.
    #[test]
    fn worker_seconds_bills_queued_scale_ins_exactly() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 3);
        ws.set_active(at(2), 4); // scale-out decided and spawned
        ws.set_active(at(5), 3); // first queued victim retires
        ws.set_active(at(6), 2); // second victim (queued behind the first)
        assert_eq!(ws.finish(at(10)), 29.0);
    }

    /// Back-to-back changes at the same instant (a scale-out landing in
    /// the same event-loop turn as a retirement) bill zero-length spans,
    /// not negative or doubled ones.
    #[test]
    fn worker_seconds_zero_length_spans_are_free() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 2);
        ws.set_active(at(3), 3);
        ws.set_active(at(3), 2);
        ws.set_active(at(3), 3);
        assert_eq!(ws.finish(at(4)), 2.0 * 3.0 + 3.0);
    }

    // ---- the controller, driven without threads -----------------------

    type OpFactory = fn(TaskId) -> Box<dyn Operator>;

    /// A controller over channels the test holds: the source's control
    /// receiver and every provisioned worker's input receiver.
    struct Rig {
        ctl: Controller<OpFactory>,
        src: Receiver<SourceCtl>,
        workers: FxHashMap<usize, Receiver<Message>>,
        sink: Arc<TraceSink>,
    }

    impl Rig {
        fn new(n: usize, max: usize, schedule: Vec<(u64, ScaleDecision)>) -> Self {
            let config = EngineConfig {
                n_workers: n,
                max_workers: max,
                elasticity: Box::new(FixedSchedule::new(schedule)),
                ..EngineConfig::default()
            };
            let (ctl_tx, src) = crossbeam::channel::unbounded();
            let sink = TraceSink::new(true);
            let factory: OpFactory = |_| Box::new(WordCountOp::new());
            let ctl = Controller::new(
                &config,
                Box::new(HashPartitioner::new(n)),
                factory,
                ctl_tx,
                &sink,
                Arc::new(Counter::new()),
                Instant::now(),
            );
            let mut rig = Rig {
                ctl,
                src,
                workers: FxHashMap::default(),
                sink,
            };
            rig.collect_spawns();
            rig
        }

        fn collect_spawns(&mut self) -> Vec<usize> {
            let spawns = self.ctl.take_spawns();
            let slots = spawns.iter().map(|w| w.slot).collect();
            for w in spawns {
                self.workers.insert(w.slot, w.rx);
            }
            slots
        }

        fn source_msgs(&self) -> Vec<SourceCtl> {
            pending(&self.src)
        }

        fn worker_msgs(&self, w: usize) -> Vec<Message> {
            pending(&self.workers[&w])
        }

        /// Closes `interval`'s statistics round: every worker asked for
        /// stats answers with an empty report, and the tick decides.
        fn close_round(&mut self, interval: u64) {
            self.ctl.on_source(SourceEvent::IntervalDone { interval });
            let mut asked: Vec<usize> = Vec::new();
            for (&w, rx) in &self.workers {
                if pending(rx)
                    .iter()
                    .any(|m| matches!(m, Message::StatsRequest { .. }))
                {
                    asked.push(w);
                }
            }
            for w in asked {
                self.ctl.on_worker(WorkerEvent::Stats {
                    worker: TaskId::from(w),
                    interval,
                    stats: IntervalStats::new(),
                    latency: Box::new(Histogram::new()),
                });
            }
            self.ctl.tick();
        }

        /// The epoch of the single pause the source was sent.
        fn paused_epoch(&self) -> u64 {
            match self.source_msgs().as_slice() {
                [SourceCtl::Pause { epoch, .. }] | [SourceCtl::PauseDest { epoch, .. }] => *epoch,
                other => panic!("expected one pause, got {other:?}"),
            }
        }

        /// Worker `w`'s death, its receiver handed over as a dying
        /// worker's is.
        fn killed(&mut self, w: usize) -> WorkerEvent {
            WorkerEvent::Killed {
                worker: TaskId::from(w),
                lost: Vec::new(),
                stats: IntervalStats::new(),
                processed: 0,
                latency: Box::new(Histogram::new()),
                first_interval: None,
                rx: self.workers.remove(&w).expect("provisioned"),
            }
        }
    }

    fn pending<T>(rx: &Receiver<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Ok(m) = rx.try_recv() {
            out.push(m);
        }
        out
    }

    fn retired(worker: usize, epoch: u64) -> WorkerEvent {
        WorkerEvent::Retired {
            worker: TaskId::from(worker),
            epoch,
            states: Vec::new(),
            stats: IntervalStats::new(),
            processed: 0,
            latency: Box::new(Histogram::new()),
            first_interval: None,
        }
    }

    /// A rig whose epoch 1 — a scale-in of worker 2 — ran to completion.
    fn rig_with_closed_epoch() -> Rig {
        let mut rig = Rig::new(3, 3, vec![(0, ScaleDecision::ScaleIn)]);
        rig.close_round(0);
        let epoch = rig.paused_epoch();
        assert_eq!(epoch, 1);
        rig.ctl.on_source(SourceEvent::PauseAck { epoch });
        assert!(rig
            .worker_msgs(2)
            .iter()
            .any(|m| matches!(m, Message::Retire { epoch: 1 })));
        rig.ctl.on_worker(retired(2, epoch));
        assert_eq!(rig.ctl.width.active, 2);
        assert!(matches!(
            rig.source_msgs().as_slice(),
            [SourceCtl::Resume { epoch: 1, .. }]
        ));
        assert!(rig.ctl.pending.is_none());
        rig.ctl.injector.take_ledger();
        rig
    }

    /// An answer for an epoch with no op in flight is one of two things:
    /// the late echo of a closed epoch, absorbed into the ledger, or a
    /// stray, recorded as the matching protocol error.
    #[test]
    fn stale_or_stray_epochs_for_every_answer() {
        type Make = fn(u64) -> Result<SourceEvent, WorkerEvent>;
        let cases: [(&str, Make, ProtocolError); 4] = [
            (
                "pause ack",
                |epoch| Ok(SourceEvent::PauseAck { epoch }),
                ProtocolError::StrayPauseAck { epoch: 9 },
            ),
            (
                "state out",
                |epoch| {
                    Err(WorkerEvent::StateOut {
                        worker: TaskId(0),
                        epoch,
                        states: Vec::new(),
                    })
                },
                ProtocolError::StrayStateOut {
                    worker: 0,
                    epoch: 9,
                    dropped_keys: 0,
                },
            ),
            (
                "install ack",
                |epoch| {
                    Err(WorkerEvent::InstallAck {
                        worker: TaskId(0),
                        epoch,
                    })
                },
                ProtocolError::StrayInstallAck {
                    worker: 0,
                    epoch: 9,
                },
            ),
            (
                "retired",
                |epoch| Err(retired(0, epoch)),
                ProtocolError::StrayRetired {
                    worker: 0,
                    epoch: 9,
                },
            ),
        ];
        for (what, make, stray) in cases {
            let mut rig = rig_with_closed_epoch();
            let feed = |rig: &mut Rig, epoch| match make(epoch) {
                Ok(ev) => rig.ctl.on_source(ev),
                Err(ev) => rig.ctl.on_worker(ev),
            };
            feed(&mut rig, 1);
            assert_eq!(rig.ctl.width.active, 2, "{what}: no slot retires");
            assert_eq!(
                rig.ctl.injector.take_ledger(),
                vec![FaultEvent::StaleEpochAbsorbed { epoch: 1, what }],
                "{what}: a closed epoch is absorbed"
            );
            assert!(rig.ctl.report.protocol_errors.is_empty(), "{what}");
            feed(&mut rig, 9);
            assert_eq!(
                rig.ctl.report.protocol_errors,
                vec![stray],
                "{what}: an unknown epoch is a stray"
            );
            assert!(rig.ctl.injector.take_ledger().is_empty(), "{what}");
        }
    }

    /// A migration whose last awaited holder dies forwards what the other
    /// holders shipped, installs it, and resumes under the plan's view;
    /// the span closes once, completed.
    #[test]
    fn killed_last_holder_completes_the_migration_under_the_plan_view() {
        let mut rig = Rig::new(3, 3, Vec::new());
        let (k0, k1) = (Key(10), Key(11));
        let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
        by_source.insert(TaskId(0), vec![(k0, TaskId(2))]);
        by_source.insert(TaskId(1), vec![(k1, TaskId(2))]);
        let view = RoutingView::TableDelta {
            n_tasks: 3,
            moves: vec![(k0, TaskId(2)), (k1, TaskId(2))],
        };
        rig.ctl.queue_moves(
            by_source,
            vec![k0, k1],
            Some(view.clone()),
            false,
            OpLabel::Rebalance,
        );
        rig.ctl.tick();
        let epoch = rig.paused_epoch();
        rig.ctl.on_source(SourceEvent::PauseAck { epoch });
        for w in [0, 1] {
            assert!(
                rig.worker_msgs(w)
                    .iter()
                    .any(|m| matches!(m, Message::MigrateOut { epoch: e, .. } if *e == epoch)),
                "holder {w} asked to extract"
            );
        }
        let blob = Bytes::from(b"state of k0".to_vec());
        rig.ctl.on_worker(WorkerEvent::StateOut {
            worker: TaskId(0),
            epoch,
            states: vec![(k0, TaskId(2), blob.clone())],
        });
        assert!(rig.ctl.pending.is_some(), "holder 1 is still awaited");
        let killed = rig.killed(1);
        rig.ctl.on_worker(killed);
        match rig.worker_msgs(2).as_slice() {
            [Message::StateInstall { epoch: e, states }] => {
                assert_eq!(*e, epoch);
                assert_eq!(states, &vec![(k0, blob)]);
            }
            other => panic!("expected the forwarded install, got {other:?}"),
        }
        assert!(matches!(
            rig.source_msgs().as_slice(),
            [SourceCtl::DeadDest {
                dest: TaskId(1),
                ..
            }]
        ));
        rig.ctl.on_worker(WorkerEvent::InstallAck {
            worker: TaskId(2),
            epoch,
        });
        match rig.source_msgs().as_slice() {
            [SourceCtl::Resume { epoch: e, view: v }] => {
                assert_eq!(*e, epoch);
                assert_eq!(format!("{v:?}"), format!("{view:?}"));
            }
            other => panic!("expected the resume, got {other:?}"),
        }
        assert!(rig.ctl.pending.is_none());
        rig.ctl.on_source(SourceEvent::ResumeAck { epoch });
        let (report, rec, leftover) = rig.ctl.into_report(Instant::now());
        assert!(leftover.is_empty());
        assert!(report.protocol_errors.is_empty());
        drop(rec);
        let log = rig.sink.take_log();
        assert!(
            log.check_integrity().is_empty(),
            "{:?}",
            log.check_integrity()
        );
        let spans = log.span_summaries();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, Some(Outcome::Completed));
    }

    /// A retire whose victim dies before draining finishes like a queued
    /// retire with a dead victim: the slot leaves the dead set and the
    /// width, so the next scale-out widens onto it — on a fresh channel
    /// the source is handed before any view routes there.
    #[test]
    fn a_dead_victim_finishes_its_retire_and_the_tail_is_reprovisioned() {
        let mut rig = Rig::new(
            3,
            3,
            vec![(0, ScaleDecision::ScaleIn), (1, ScaleDecision::ScaleOut)],
        );
        rig.close_round(0);
        let epoch = rig.paused_epoch();
        // The victim dies before the pause is acknowledged.
        let killed = rig.killed(2);
        rig.ctl.on_worker(killed);
        assert_eq!(rig.ctl.width.active, 2);
        assert!(rig.ctl.width.dead.is_empty());
        assert!(rig.ctl.pending.is_none());
        let msgs = rig.source_msgs();
        assert!(matches!(
            msgs.as_slice(),
            [SourceCtl::DeadDest { dest: TaskId(2), .. }, SourceCtl::Resume { epoch: e, .. }]
                if *e == epoch
        ));
        rig.ctl.on_source(SourceEvent::ResumeAck { epoch });
        rig.ctl
            .on_source(SourceEvent::DeadDestAck { dest: TaskId(2) });

        rig.close_round(1);
        assert_eq!(
            rig.collect_spawns(),
            vec![2],
            "the tail slot is provisioned"
        );
        assert_eq!(rig.ctl.width.active, 3);
        assert_eq!(
            rig.ctl.report.scale_events,
            vec![
                ScaleEvent {
                    interval: 0,
                    from: 3,
                    to: 2
                },
                ScaleEvent {
                    interval: 1,
                    from: 2,
                    to: 3
                },
            ]
        );
        let msgs = rig.source_msgs();
        let SourceCtl::ProvisionDest { dest, tx } = &msgs[0] else {
            panic!("the source must get the new sender first: {msgs:?}");
        };
        assert_eq!(*dest, TaskId(2));
        tx.send(Message::Shutdown)
            .expect("fresh channel is connected");
        assert!(matches!(rig.worker_msgs(2).as_slice(), [Message::Shutdown]));
        assert!(matches!(msgs[1], SourceCtl::UpdateView { .. }));
    }
}
