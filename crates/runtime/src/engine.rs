//! Engine wiring: source, workers, collector, and the event loop of the
//! Fig. 5 controller (whose state machine lives in `controller.rs`).
//!
//! The data plane is batched end-to-end: the source routes and ships
//! tuples as [`Message::TupleBatch`]es from per-destination fan-out
//! accumulators (one channel send per destination per routed batch),
//! workers drain whole batches, and drained buffers recycle to the
//! source over a pool channel. Consistency: batches and migration
//! markers share each worker's FIFO channel, and the source only
//! acknowledges `Pause`/`Resume` between routed batches when its
//! accumulators are flushed, so every marker the controller sends after
//! an ack lands behind every batch the ack covered — the per-tuple
//! FIFO argument (see the crate docs) carries over verbatim with
//! "tuple" replaced by "batch".

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender};
use streambal_core::{Key, Partitioner, RoutingView, TaskId};
use streambal_elastic::{ElasticityPolicy, HoldPolicy, SplitPolicy};
use streambal_hashring::FxHashSet;
use streambal_metrics::{Counter, Histogram, TimeSeries};
use streambal_trace::{Outcome, ThreadLabel, ThreadRecorder, TraceLog, TraceSink};

use crate::controller::{Controller, Spawn};
use crate::fault::{next_live, CtlKind, FaultEvent, FaultInjector, FaultPlan};
use crate::message::{Message, SourceCtl, SourceEvent, WorkerEvent};
use crate::operator::{Collector, Operator};
use crate::router::SourceRouter;
use crate::tuple::Tuple;
use crate::worker::{run_worker, WorkerCtx};

/// Engine sizing and behaviour knobs.
///
/// `Clone` but not `Copy`: the elasticity policy is a boxed, stateful
/// object (cloned with its state via `ElasticityPolicy::box_clone`).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Initial downstream parallelism `N_D`.
    pub n_workers: usize,
    /// Pre-provisioned worker slots (≥ `n_workers`; extra slots allow
    /// scale-out).
    pub max_workers: usize,
    /// Source → worker channel depth in *tuples*; a full channel
    /// backpressures the source (the paper's "backpushing effect").
    /// Batched sends are weighted by their tuple count
    /// (`send_weighted`), so the bound stays exactly tuple-denominated
    /// at any batch size and any fan-out fill — control markers weigh 1,
    /// as they did when every message was one tuple.
    pub channel_capacity: usize,
    /// Worker → collector channel depth in *tuples* (PKG's max-pending
    /// analogue), weighted like [`EngineConfig::channel_capacity`].
    pub collector_capacity: usize,
    /// Tuples staged per routed batch on the source thread — the
    /// data-plane batch. Each routed batch fans out into per-destination
    /// buffers shipped as one [`Message::TupleBatch`] per destination
    /// touched. The source drains pause/resume/view updates every
    /// `max(batch_size, 256)` staged tuples, bounding how many tuples can
    /// be routed under a stale view. `1` ships one-tuple batches through
    /// the same pooled path: there is one data plane at every batch size.
    pub batch_size: usize,
    /// Busy-work iterations per tuple — calibrates per-tuple CPU cost so
    /// the workers saturate, as the paper's experiments arrange.
    pub spin_work: u32,
    /// State window `w` in intervals.
    pub window: usize,
    /// The elasticity policy consulted after every interval's statistics
    /// round: it decides `ScaleOut` / `ScaleIn` / `Hold`, and the
    /// controller executes the decision (spawn + state pre-placement for
    /// out — see [`EngineConfig::preplace`]; the drain → migrate → retire
    /// protocol for in — see `streambal-elastic` crate docs). Decisions
    /// are clamped to `[1, max_workers]`; scale-ins may queue up
    /// (multi-step re-provisioning executes them in order), while a
    /// scale-out arriving before queued retires finish is skipped,
    /// because the spawn slot must be the contiguous physical tail.
    /// Default: [`HoldPolicy`] (the static engine).
    pub elasticity: Box<dyn ElasticityPolicy>,
    /// The hot-key split policy consulted after every interval's
    /// statistics round, alongside [`EngineConfig::elasticity`]: it sees
    /// the merged per-key costs and the current split set and decides
    /// `Split` / `Unsplit` / `Hold`. The controller executes a split as
    /// a degenerate migration (routing-view change under a pause window,
    /// no state moved) and an unsplit as a real one (replica partials
    /// extracted and merged into the primary), both as first-class
    /// protocol ops with epochs, spans, and deadline/abort handling.
    /// Decisions the routing layer cannot honour (fewer than two tasks,
    /// an already-split key, a degenerate replica set) are skipped, not
    /// deferred. Default: `None` (never splits).
    pub split: Option<Box<dyn SplitPolicy>>,
    /// Pre-place state at scale-out (default `true`): the controller asks
    /// the partitioner for a migration plan
    /// (`Partitioner::scale_out_plan`) at provision time and executes it
    /// through the drain → migrate → resume machinery inside the
    /// scale-out quiescence window, so the new worker owns its keys — and
    /// takes their traffic — in the decision interval itself. `false`
    /// reproduces the seed behaviour (`Partitioner::scale_out` pins
    /// churned keys back to their old homes), where the new slot sits
    /// empty until the next rebalance migrates keys onto it — exactly the
    /// intervals the policy scaled out for.
    pub preplace: bool,
    /// Deterministic fault schedule for this run (default: none). See
    /// [`crate::fault`] — every fired fault and recovery action lands in
    /// [`EngineReport::faults`], and unrecoverable tuples are accounted
    /// per key in [`EngineReport::lost_tuples`].
    pub fault_plan: FaultPlan,
    /// Protocol-op deadline, interval-denominated: an in-flight
    /// `Pause`/`MigrateOut`/`StateInstall`/`Retire` phase showing no
    /// progress for this many source intervals *and*
    /// [`EngineConfig::op_deadline`] of wall time is retried once, then
    /// aborted with rollback. Intervals are the primary clock (they are
    /// deterministic per run); the wall bound keeps healthy-but-slow
    /// runs from spurious expiry and takes over alone once the source
    /// has finished and intervals stop.
    pub op_deadline_intervals: u64,
    /// Wall-clock component of the op deadline (see above).
    pub op_deadline: Duration,
    /// Stats-round deadline, interval-denominated: a round still
    /// missing reporters after this many further intervals *and*
    /// [`EngineConfig::round_deadline`] of wall time closes with what
    /// it has (the missing reporters are recorded in the fault ledger),
    /// so a dead or wedged worker cannot hold statistics — or shutdown,
    /// which waits on open rounds — hostage.
    pub round_deadline_intervals: u64,
    /// Wall-clock component of the round deadline (see above).
    pub round_deadline: Duration,
    /// Flight recorder on/off (default `true`). When on, every thread
    /// carries a [`streambal_trace::ThreadRecorder`]: the controller
    /// records protocol-phase spans and per-interval telemetry
    /// snapshots, the source records routing-table shape and interval
    /// totals, and workers roll batch counters into one `DataFlush`
    /// per interval — nothing per tuple, no locks or clock reads on the
    /// data plane. The merged log lands in [`EngineReport::trace`].
    /// `false` makes every recording call a no-op (the overhead
    /// benchmark's baseline).
    pub trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_workers: 4,
            max_workers: 4,
            channel_capacity: 1024,
            collector_capacity: 256,
            batch_size: 256,
            spin_work: 500,
            window: 5,
            elasticity: Box::new(HoldPolicy),
            split: None,
            preplace: true,
            fault_plan: FaultPlan::none(),
            op_deadline_intervals: 4,
            op_deadline: Duration::from_secs(5),
            round_deadline_intervals: 4,
            round_deadline: Duration::from_secs(5),
            trace: true,
        }
    }
}

pub use streambal_elastic::{ScaleEvent, SplitEvent};

/// A survivable violation of the pause → migrate → resume protocol.
///
/// Each variant pins the event the controller observed with no matching
/// in-flight op (or the auxiliary thread that died), plus what was
/// dropped or skipped as a result. `Display` renders the exact
/// diagnostic strings these carried when [`EngineReport::protocol_errors`]
/// was a `Vec<String>`, so log scrapers and test messages are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A source `PauseAck` arrived with nothing in flight and no closed
    /// epoch to absorb it.
    StrayPauseAck {
        /// The ack's epoch.
        epoch: u64,
    },
    /// A worker shipped extracted state for an epoch with no migration
    /// in flight; the blobs were dropped.
    StrayStateOut {
        /// The shipping worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
        /// How many key states were dropped with it.
        dropped_keys: usize,
    },
    /// A worker acknowledged a `StateInstall` for an epoch with no
    /// pending op.
    StrayInstallAck {
        /// The acking worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
    },
    /// A worker completed retirement for an epoch with no pending
    /// scale-in.
    StrayRetired {
        /// The retiring worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
    },
    /// An auxiliary thread (source or collector) panicked; the run
    /// completed without it.
    ThreadPanicked {
        /// Which thread: `"source"` or `"collector"`.
        thread: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::StrayPauseAck { epoch } => {
                write!(f, "PauseAck for epoch {epoch} with no pending op")
            }
            ProtocolError::StrayStateOut {
                worker,
                epoch,
                dropped_keys,
            } => write!(
                f,
                "StateOut from worker {worker} for epoch {epoch} with no \
                 migration in flight; {dropped_keys} key states dropped"
            ),
            ProtocolError::StrayInstallAck { worker, epoch } => write!(
                f,
                "InstallAck from worker {worker} for epoch {epoch} with no pending op"
            ),
            ProtocolError::StrayRetired { worker, epoch } => write!(
                f,
                "Retired from worker {worker} for epoch {epoch} with no pending scale-in"
            ),
            ProtocolError::ThreadPanicked { thread } => {
                write!(f, "{thread} thread panicked")
            }
        }
    }
}

/// Everything one engine run measured.
#[derive(Debug)]
pub struct EngineReport {
    /// Partitioner name.
    pub name: String,
    /// Total tuples processed by all workers.
    pub processed: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Mean throughput, tuples/second.
    pub mean_throughput: f64,
    /// Per-interval throughput series (interval, tuples/s).
    pub interval_throughput: TimeSeries,
    /// End-to-end tuple latency distribution (µs), merged over workers.
    pub latency_us: Histogram,
    /// Rebalances executed.
    pub rebalances: usize,
    /// Keys migrated across all rebalances.
    pub migrated_keys: u64,
    /// State bytes migrated across all rebalances.
    pub migrated_bytes: u64,
    /// Tuples processed per worker slot (summed across respawns when a
    /// slot is retired and later re-provisioned).
    pub per_worker_processed: Vec<u64>,
    /// All key state at shutdown (sorted by key) for validation.
    pub final_states: Vec<(Key, Bytes)>,
    /// The collector's result rows, if a collector ran.
    pub collector_result: Vec<(u64, u64)>,
    /// Executed elasticity decisions, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Executed hot-key split/unsplit decisions, in order (empty when
    /// [`EngineConfig::split`] is `None`). Comparable `==` against the
    /// simulator's trace, like [`EngineReport::scale_events`].
    pub split_events: Vec<SplitEvent>,
    /// Integral of live workers over wall time (the provisioning cost an
    /// elastic policy saves against a static peak-sized deployment).
    pub worker_seconds: f64,
    /// Per slot: the earliest interval a worker on that slot processed a
    /// tuple (`None` if the slot never saw traffic). For a scaled-out
    /// slot, `first − decision_interval` is its time-to-first-tuple in
    /// intervals — the cold-start lag pre-placement closes.
    pub first_tuple_interval: Vec<Option<u64>>,
    /// Violations of the pause→migrate→resume protocol the controller
    /// observed and survived: an ack or state transfer arriving with no
    /// matching in-flight op, or an auxiliary thread that panicked. Each entry names the event and
    /// what was dropped or skipped. The controller used to panic on
    /// these (poisoning every channel and deadlocking the topology
    /// mid-protocol); now the run completes and the report carries the
    /// evidence — **empty on every healthy run**, and tests assert so.
    /// Each [`ProtocolError`]'s `Display` is the diagnostic string this
    /// field used to carry verbatim.
    pub protocol_errors: Vec<ProtocolError>,
    /// The fault ledger: every injected fault that fired and every
    /// recovery action the controller took (deaths, re-routes, op
    /// retries/aborts, timed-out stats rounds). Structural entries only
    /// — replaying the same [`EngineConfig::fault_plan`] yields the
    /// same ledger (see [`crate::fault`]). Empty on every healthy run.
    pub faults: Vec<FaultEvent>,
    /// Per-key tuple counts irrecoverably lost to worker deaths (held
    /// state, un-flushed partials, and in-flight messages drained from
    /// a dead worker's channel), sorted by key. The accounting
    /// invariant chaos tests assert: `fed − lost == observed`. Empty on
    /// every healthy run.
    pub lost_tuples: Vec<(Key, u64)>,
    /// The flight-recorder log (empty when [`EngineConfig::trace`] is
    /// off): protocol-phase spans keyed by op epoch, per-interval
    /// telemetry snapshots, per-worker data-flush counters, and a
    /// mirror of every fault-ledger entry. Deterministic modulo
    /// wall-clock — [`TraceLog::skeleton`] of a seeded run reproduces
    /// exactly across replays, like [`EngineReport::faults`].
    pub trace: TraceLog,
}

impl EngineReport {
    /// Folds one exiting worker's totals into slot `w`: counts add up
    /// across a slot's successive occupants (a retired slot can be
    /// re-provisioned mid-run), and the earliest first-tuple interval
    /// wins.
    pub(crate) fn absorb_worker(
        &mut self,
        w: usize,
        processed: u64,
        latency: &Histogram,
        first_interval: Option<u64>,
    ) {
        self.per_worker_processed[w] += processed;
        self.processed += processed;
        self.latency_us.merge(latency);
        let slot = &mut self.first_tuple_interval[w];
        *slot = match (*slot, first_interval) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }
}

/// Shared ingredients for spawning worker threads (initially and on
/// scale-out).
struct WorkerSpawner {
    event_tx: Sender<WorkerEvent>,
    col_tx: Option<Sender<Vec<Tuple>>>,
    pool_tx: Sender<Vec<Vec<Tuple>>>,
    spin_work: u32,
    window: u64,
    emit_batch: usize,
    counter: Arc<Counter>,
    epoch: Instant,
    injector: Arc<FaultInjector>,
    sink: Arc<TraceSink>,
}

impl WorkerSpawner {
    fn spawn<'scope>(&self, s: &'scope std::thread::Scope<'scope, '_>, w: Spawn) {
        let ctx = WorkerCtx {
            id: TaskId::from(w.slot),
            rx: w.rx,
            events: self.event_tx.clone(),
            collector: self.col_tx.clone(),
            op: w.op,
            spin_work: self.spin_work,
            window: self.window,
            processed_counter: Arc::clone(&self.counter),
            epoch: self.epoch,
            start_interval: w.start_interval,
            pool: self.pool_tx.clone(),
            emit_batch: self.emit_batch,
            injector: Arc::clone(&self.injector),
            recorder: self.sink.recorder(ThreadLabel::Worker(w.slot as u32)),
        };
        s.spawn(move || run_worker(ctx));
    }
}

/// The engine: call [`Engine::run`].
pub struct Engine;

impl Engine {
    /// Runs a topology to completion and returns the report.
    ///
    /// * `partitioner` — the routing strategy under test (owned by the
    ///   controller, which runs on the calling thread).
    /// * `op_factory` — builds the keyed operator for each worker slot.
    /// * `feeder` — called with the interval index on the source thread;
    ///   returns that interval's tuples, or `None` to finish.
    /// * `collector` — optional downstream stage receiving operator
    ///   emissions (PKG merger, Q5 aggregation).
    ///
    /// This is the event loop around the thread-free controller state
    /// machine (`controller.rs`): it opens the channels, starts
    /// the source, the merge stage and every worker the controller
    /// provisions, hands the controller each source and worker event as
    /// it arrives plus a `tick` on every wake-up (at least every 10 ms),
    /// and tears the topology down once all workers drained.
    pub fn run<F, OF>(
        config: EngineConfig,
        partitioner: Box<dyn Partitioner>,
        op_factory: OF,
        feeder: F,
        collector: Option<Box<dyn Collector>>,
    ) -> EngineReport
    where
        F: FnMut(u64) -> Option<Vec<Tuple>> + Send,
        OF: FnMut(TaskId) -> Box<dyn Operator>,
    {
        let t0 = Instant::now();
        assert!(config.n_workers >= 1, "need at least one worker");
        assert_eq!(
            partitioner.n_tasks(),
            config.n_workers,
            "partitioner and engine must agree on initial parallelism"
        );

        // Channels. Worker channels belong to the controller, which
        // opens a fresh one whenever it provisions a slot. Capacities are
        // tuple-denominated: batch sends are weighted by their tuple
        // count, so the in-flight bound — the backpushing effect — is
        // exactly what the config documents at any batch size.
        let (event_tx, event_rx) = unbounded::<WorkerEvent>();
        let (ctl_tx, ctl_rx) = unbounded::<SourceCtl>();
        let (src_evt_tx, src_evt_rx) = unbounded::<SourceEvent>();
        let (col_tx, col_rx) = bounded::<Vec<Tuple>>(config.collector_capacity);
        // Batch-buffer free list: workers (and the collector) return
        // drained `Vec<Tuple>`s here in groups, and the source reuses
        // them, so the steady-state data plane allocates nothing per
        // batch.
        let (pool_tx, pool_rx) = unbounded::<Vec<Vec<Tuple>>>();
        let counter = Arc::new(Counter::new());
        let initial_view = partitioner.routing_view();

        // One flight-recorder sink per run; every thread gets its own
        // lock-free ThreadRecorder view of it. One fault injector per
        // run, shared by the controller, the source and every worker:
        // drop ordinals are global (each kind is sent from one thread).
        let sink = TraceSink::new(config.trace);
        let mut ctl = Controller::new(
            &config,
            partitioner,
            op_factory,
            ctl_tx.clone(),
            &sink,
            Arc::clone(&counter),
            t0,
        );
        let injector = Arc::clone(ctl.injector());

        let mut report = std::thread::scope(|s| {
            // The source starts first, with its plane built here, so its
            // first feed waits neither for worker start-up nor for the
            // allocator. Batches it ships meanwhile queue in the
            // already-open worker channels.
            let plane = SourcePlane::new(
                initial_view,
                ctl.worker_txs().to_vec(),
                src_evt_tx,
                pool_rx,
                config.batch_size,
                Arc::clone(&injector),
            );
            let src_rec = sink.recorder(ThreadLabel::Source);
            let src_handle = s.spawn(move || source_loop(feeder, plane, ctl_rx, t0, src_rec));

            let spawner = WorkerSpawner {
                event_tx: event_tx.clone(),
                col_tx: collector.is_some().then(|| col_tx.clone()),
                pool_tx: pool_tx.clone(),
                spin_work: config.spin_work,
                window: config.window as u64,
                emit_batch: config.batch_size.max(1),
                counter: Arc::clone(&counter),
                epoch: t0,
                injector: Arc::clone(&injector),
                sink: Arc::clone(&sink),
            };
            for w in ctl.take_spawns() {
                spawner.spawn(s, w);
            }

            // The merge stage (the downstream operator).
            let col_handle = collector.map(|c| {
                let stage = crate::merge::MergeStage::new(
                    c,
                    col_rx,
                    pool_tx.clone(),
                    sink.recorder(ThreadLabel::Collector),
                );
                s.spawn(move || stage.run())
            });

            // The controller, on this thread. The bounded wait lets the
            // bottom half (deadlines, round expiry, the shutdown gate)
            // run even when no event arrives.
            let mut select = Select::new();
            let src_idx = select.recv(&src_evt_rx);
            let _evt_idx = select.recv(&event_rx);
            while !ctl.done() {
                if let Ok(ready) = select.select_timeout(Duration::from_millis(10)) {
                    if ready.index() == src_idx {
                        if let Ok(ev) = ready.recv(&src_evt_rx) {
                            ctl.on_source(ev);
                        }
                    } else if let Ok(ev) = ready.recv(&event_rx) {
                        ctl.on_worker(ev);
                    }
                    if ctl.done() {
                        break;
                    }
                }
                ctl.tick();
                for w in ctl.take_spawns() {
                    spawner.spawn(s, w);
                }
            }

            // All workers drained. Tear down the auxiliaries. The spawner
            // holds a collector-sender clone; it must drop before the
            // collector join, or the collector never observes closure.
            let (mut report, mut rec, leftover) = ctl.into_report(Instant::now());
            // Disconnect here means the source already exited (it only
            // does so on Shutdown or panic; a panic is surfaced by the
            // join below) — nothing to tell it.
            let _ = ctl_tx.send(SourceCtl::Shutdown);
            drop(spawner);
            drop(col_tx);
            // Join the source before taking the ledger: it records (drop
            // ordinals, send failures) until it exits.
            if src_handle.join().is_err() {
                report
                    .protocol_errors
                    .push(ProtocolError::ThreadPanicked { thread: "source" });
            }
            report.faults = injector.take_ledger();
            if let Some(h) = col_handle {
                match h.join() {
                    Ok(r) => report.collector_result = r,
                    Err(_) => report.protocol_errors.push(ProtocolError::ThreadPanicked {
                        thread: "collector",
                    }),
                }
            }
            // Every thread's recorder has flushed by now. Force-close any
            // span still open — an op the teardown outran — as Abandoned,
            // then merge the run's trace into the report.
            for epoch in leftover {
                rec.span_close(epoch, Outcome::Abandoned);
            }
            drop(rec);
            report.trace = sink.take_log();
            report
        });

        report.final_states.sort_unstable_by_key(|&(k, _)| k);
        report.wall = t0.elapsed();
        report.mean_throughput = report.processed as f64 / report.wall.as_secs_f64().max(1e-9);
        report
    }
}

/// What the source is holding back during an in-flight control op.
enum PauseFilter {
    /// Migration: the affected key set `Δ(F, F′)`.
    Keys(FxHashSet<Key>),
    /// Scale-in: everything routed to the retiring destination. Evaluated
    /// *after* routing (in [`SourcePlane::ship`]), because membership is a
    /// property of the route, not the key.
    Dest(TaskId),
}

/// The source-thread data plane: router, fan-out accumulators, pause
/// buffer, and the batch-buffer free list.
///
/// Every `batch_size` staged tuples are routed with one
/// [`SourceRouter::route_batch`] call, scattered into per-destination
/// buffers, and shipped as one [`Message::TupleBatch`] per destination
/// touched. Every routed batch is flushed whole before control messages
/// are drained (polling happens only between routed batches), so the
/// accumulators are empty at every poll point: a `PauseAck` never races
/// unsent data and the FIFO consistency argument (see crate docs)
/// carries over from the per-tuple protocol unchanged.
struct SourcePlane {
    router: SourceRouter,
    worker_txs: Vec<Sender<Message>>,
    events: Sender<SourceEvent>,
    /// In-flight control op: epoch and the pause filter.
    paused: Option<(u64, PauseFilter)>,
    /// Tuples of paused keys, held until `Resume`.
    buffer: Vec<Tuple>,
    /// Per-destination batch accumulators (indexed by worker slot).
    fan: Vec<Vec<Tuple>>,
    /// Destinations with a non-empty accumulator, in first-touch order.
    touched: Vec<usize>,
    /// Grouped drained-buffer returns from workers and the collector.
    pool: Receiver<Vec<Vec<Tuple>>>,
    /// Local free list fed from the pool.
    free: Vec<Vec<Tuple>>,
    /// The batch being staged for [`SourcePlane::ship`]; empty at every
    /// control-poll point.
    staged: Vec<Tuple>,
    /// Routing scratch, reused across batches.
    keys: Vec<Key>,
    dests: Vec<TaskId>,
    batch: usize,
    /// Dead worker slots (`DeadDest`, or a send failure observed first-
    /// hand): routed tuples divert past them in [`SourcePlane::send_msg`]
    /// until a `ProvisionDest` swaps in a fresh channel.
    dead: FxHashSet<usize>,
    /// Shared fault injector: ack sends honour injected control drops.
    injector: Arc<FaultInjector>,
}

impl SourcePlane {
    fn new(
        view: RoutingView,
        worker_txs: Vec<Sender<Message>>,
        events: Sender<SourceEvent>,
        pool: Receiver<Vec<Vec<Tuple>>>,
        batch_size: usize,
        injector: Arc<FaultInjector>,
    ) -> Self {
        let batch = batch_size.max(1);
        let n_slots = worker_txs.len();
        SourcePlane {
            router: SourceRouter::from_view(view),
            worker_txs,
            events,
            paused: None,
            buffer: Vec::new(),
            fan: (0..n_slots).map(|_| Vec::with_capacity(batch)).collect(),
            touched: Vec::with_capacity(n_slots),
            pool,
            free: Vec::new(),
            staged: Vec::with_capacity(batch),
            keys: Vec::with_capacity(batch),
            dests: Vec::with_capacity(batch),
            batch,
            dead: FxHashSet::default(),
            injector,
        }
    }

    /// A buffer from the free list (refilled from the pool channel), or a
    /// fresh one on a miss (only until enough buffers circulate).
    fn take_buf(&mut self) -> Vec<Tuple> {
        if let Some(buf) = self.free.pop() {
            return buf;
        }
        if let Ok(group) = self.pool.try_recv() {
            self.free.extend(group);
            if let Some(buf) = self.free.pop() {
                return buf;
            }
        }
        Vec::with_capacity(self.batch)
    }

    /// Drains every pending pool return into the free list and bounds
    /// it (excess capacity is just dropped). Called at control-poll
    /// points: workers and the collector return buffers in groups, and
    /// whatever `ship` does not consume must not pile up in the
    /// unbounded pool channel for the whole run.
    fn reclaim(&mut self) {
        while let Ok(group) = self.pool.try_recv() {
            self.free.extend(group);
        }
        let cap = self.fan.len() * 4 + 8;
        self.free.truncate(cap);
    }

    /// Routes the staged batch and ships it downstream: one channel send
    /// per destination touched. Drains it, preserving per-destination
    /// tuple order. Under a destination pause (scale-in), tuples routed
    /// to the quiesced worker divert to the pause buffer instead — in
    /// arrival order, so the Resume flush replays them FIFO under the new
    /// view.
    fn ship(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        self.keys.clear();
        self.keys.extend(self.staged.iter().map(|t| t.key));
        let mut dests = std::mem::take(&mut self.dests);
        self.router.route_batch(&self.keys, &mut dests);
        let pause_dest = match &self.paused {
            Some((_, PauseFilter::Dest(d))) => Some(*d),
            _ => None,
        };
        for (t, d) in self.staged.drain(..).zip(&dests) {
            if pause_dest == Some(*d) {
                self.buffer.push(t);
                continue;
            }
            let slot = &mut self.fan[d.index()];
            if slot.is_empty() {
                self.touched.push(d.index());
            }
            slot.push(t);
        }
        for i in 0..self.touched.len() {
            let d = self.touched[i];
            let next = self.take_buf();
            let batch = std::mem::replace(&mut self.fan[d], next);
            let weight = batch.len();
            self.send_msg(d, Message::TupleBatch(batch), weight);
        }
        self.touched.clear();
        self.dests = dests;
    }

    /// Ships one message to `dest`, diverting past dead slots (the slot
    /// index cycled to the next live one — the same rule the controller's
    /// re-route pins into the table, so a divert under a stale view lands
    /// where the re-route will). A send failure means the worker died
    /// under us before the controller could say so: mark the slot,
    /// report it once, and re-divert — the message is recovered from the
    /// failed send, so nothing is silently dropped.
    fn send_msg(&mut self, dest: usize, msg: Message, weight: usize) {
        let mut d = dest;
        let mut msg = msg;
        loop {
            if self.dead.contains(&d) {
                let n = self.router.n_tasks();
                let nd = next_live(d, n, |x| self.dead.contains(&x));
                if self.dead.contains(&nd) {
                    // Every slot is dead — unreachable in practice
                    // (worker 0 is never fault-injected), and with no
                    // live channel there is nowhere to account it either.
                    return;
                }
                d = nd;
            }
            match self.worker_txs[d].send_weighted(msg, weight) {
                Ok(()) => return,
                Err(e) => {
                    if self.dead.insert(d) {
                        // The event channel outlives the source (the
                        // controller joins it before dropping the
                        // receiver), so this send cannot disconnect.
                        let _ = self.events.send(SourceEvent::SendFailed {
                            dest: TaskId::from(d),
                        });
                    }
                    msg = e.0;
                }
            }
        }
    }

    /// Sends a controller-bound ack, honouring an injected control drop.
    /// The event channel outlives the source (see `send_msg`), so the
    /// discarded send result can only ever be `Ok`.
    fn ack(&self, ev: SourceEvent, kind: CtlKind) {
        if !self.injector.is_passive() && self.injector.should_drop(kind) {
            return;
        }
        let _ = self.events.send(ev);
    }

    /// Handles one control message; returns false on Shutdown.
    fn handle_ctl(&mut self, msg: SourceCtl) -> bool {
        match msg {
            SourceCtl::Pause { epoch, affected } => {
                // Re-arming an identical pause (a deadline-retried Pause
                // whose ack was dropped) is idempotent: overwrite and
                // re-ack.
                self.paused = Some((epoch, PauseFilter::Keys(affected.into_iter().collect())));
                self.ack(SourceEvent::PauseAck { epoch }, CtlKind::PauseAck);
            }
            SourceCtl::PauseDest { epoch, dest } => {
                // The ack is valid here for the same reason as a key-set
                // pause: control runs only between routed batches, when
                // the fan-out accumulators are empty — everything routed
                // to `dest` so far is already in its channel.
                self.paused = Some((epoch, PauseFilter::Dest(dest)));
                self.ack(SourceEvent::PauseAck { epoch }, CtlKind::PauseAck);
            }
            SourceCtl::Resume { epoch, view } => {
                if let Some((cur, _)) = &self.paused {
                    if *cur != epoch {
                        // A deadline-retried Resume for an op that
                        // already finished must not clear a newer op's
                        // pause: ack it (the controller absorbs the
                        // duplicate by epoch) and keep holding.
                        self.ack(SourceEvent::ResumeAck { epoch }, CtlKind::ResumeAck);
                        return true;
                    }
                }
                // Clear the pause *before* flushing: the flush below runs
                // through ship(), which must not divert tuples back into
                // the buffer it is draining.
                self.paused = None;
                self.router.update(view);
                // Flush the pause buffer under the new view, batched like
                // the main path (order within each key is the buffer's
                // arrival order, which scatter preserves per destination).
                // The flush goes through ship() in batch-sized chunks, so
                // the tuple-denominated channel bound holds even for a
                // buffer that grew far beyond one batch during the pause
                // (an unchunked flush would also recycle an oversized
                // buffer into the pool, pinning its capacity for the
                // rest of the run).
                let mut buffered = std::mem::take(&mut self.buffer);
                for t in buffered.drain(..) {
                    self.staged.push(t);
                    if self.staged.len() >= self.batch {
                        self.ship();
                    }
                }
                self.ship();
                // Drained; keeps its capacity.
                self.buffer = buffered;
                // Flush complete: only now may the controller shut workers
                // down (message ordering across two senders is otherwise
                // unconstrained, and a Shutdown overtaking the flushed
                // tuples would drop them).
                self.ack(SourceEvent::ResumeAck { epoch }, CtlKind::ResumeAck);
            }
            SourceCtl::UpdateView { view } => self.router.update(view),
            SourceCtl::DeadDest { dest, moves } => {
                // Pin the controller's re-route into the local table (a
                // delta keeps both sides in lockstep; key-oblivious
                // routers ship no moves and rely on the divert alone),
                // then ack: the ack tells the controller no further
                // tuple can enter the dead channel, so its backlog can
                // be drained and accounted.
                self.dead.insert(dest.index());
                if !moves.is_empty() {
                    let n_tasks = self.router.n_tasks();
                    self.router
                        .update(RoutingView::TableDelta { n_tasks, moves });
                }
                let _ = self.events.send(SourceEvent::DeadDestAck { dest });
            }
            SourceCtl::ProvisionDest { dest, tx } => {
                self.worker_txs[dest.index()] = tx;
                self.dead.remove(&dest.index());
            }
            SourceCtl::Shutdown => return false,
        }
        true
    }
}

/// The source thread: feeds tuples, honours pause/resume, reports
/// interval boundaries. Staging, routing, and shipping all happen per
/// batch of `config.batch_size` tuples; emission timestamps are taken
/// once per staged batch.
fn source_loop<F>(
    mut feeder: F,
    mut plane: SourcePlane,
    ctl: Receiver<SourceCtl>,
    epoch: Instant,
    mut recorder: ThreadRecorder,
) where
    F: FnMut(u64) -> Option<Vec<Tuple>> + Send,
{
    let batch = plane.batch;
    // Control-poll granularity: at least every CTL_POLL staged tuples,
    // decoupled from the batch size so tiny batches do not pay a control
    // channel probe per send. 256 matches the pre-batching loop's bound
    // on tuples routed under a stale view.
    const CTL_POLL: usize = 256;
    let ctl_every = batch.max(CTL_POLL);
    let mut since_ctl = usize::MAX; // poll before the first batch

    let mut interval = 0u64;
    'feed: loop {
        let Some(tuples) = feeder(interval) else {
            break 'feed;
        };
        let fed = tuples.len() as u64;
        let mut pending = tuples.into_iter();
        loop {
            if since_ctl >= ctl_every {
                since_ctl = 0;
                plane.reclaim();
                while let Ok(msg) = ctl.try_recv() {
                    if !plane.handle_ctl(msg) {
                        return;
                    }
                }
            }
            // Stage the next batch, holding back keys paused for an
            // in-flight migration. One clock read stamps the whole batch.
            // The loop is bounded by tuples *consumed*, not staged: under
            // a pause that covers the hot keys, nearly everything goes to
            // the pause buffer, and a staged-only bound would starve the
            // control poll (and the Resume that empties that buffer) for
            // the rest of the interval.
            plane.staged.clear();
            let mut consumed = 0usize;
            let batch_us = epoch.elapsed().as_micros() as u64;
            while plane.staged.len() < batch && consumed < batch {
                let Some(mut t) = pending.next() else {
                    break;
                };
                consumed += 1;
                t.emitted_us = batch_us;
                if let Some((_, PauseFilter::Keys(affected))) = &plane.paused {
                    if affected.contains(&t.key) {
                        plane.buffer.push(t);
                        continue;
                    }
                }
                plane.staged.push(t);
            }
            if consumed == 0 && pending.len() == 0 {
                break;
            }
            since_ctl += consumed;
            plane.ship();
        }
        since_ctl = usize::MAX; // interval boundary: poll immediately
        while let Ok(msg) = ctl.try_recv() {
            if !plane.handle_ctl(msg) {
                return;
            }
        }
        // Interval telemetry: routing-table shape (live entries vs.
        // tombstone debris), pool occupancy, and the interval's fed
        // total — all deterministic per seeded feed, all
        // batch-granularity.
        let (entries, tombstones) = plane.router.table_stats();
        recorder.router_snapshot(
            interval,
            entries as u64,
            tombstones as u64,
            plane.free.len() as u64,
        );
        recorder.interval_end(interval, fed);
        let _ = plane.events.send(SourceEvent::IntervalDone { interval });
        interval += 1;
    }
    let _ = plane.events.send(SourceEvent::Finished);

    // Stay responsive to control traffic (in-flight migrations) until the
    // controller says shutdown.
    while let Ok(msg) = ctl.recv() {
        if !plane.handle_ctl(msg) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WordCountOp;
    use streambal_baselines::CoreBalancer;
    use streambal_baselines::HashPartitioner;
    use streambal_core::{BalanceParams, RebalanceStrategy};
    use streambal_elastic::{FixedSchedule, ScaleDecision};
    use streambal_hashring::FxHashMap;
    use streambal_workloads::FluctuatingWorkload;

    /// Reference word counts for a tuple sequence.
    fn reference_counts(tuples: &[Vec<Key>]) -> FxHashMap<Key, u64> {
        let mut m = FxHashMap::default();
        for iv in tuples {
            for &k in iv {
                *m.entry(k).or_insert(0) += 1;
            }
        }
        m
    }

    fn decode_counts(states: &[(Key, Bytes)]) -> FxHashMap<Key, u64> {
        let mut m = FxHashMap::default();
        for (k, blob) in states {
            let total: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *m.entry(*k).or_insert(0) += total;
        }
        m
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            n_workers: 3,
            max_workers: 3,
            channel_capacity: 256,
            collector_capacity: 64,
            batch_size: 32, // small batches: more batch boundaries under test
            spin_work: 10,
            window: 100, // keep everything: exact count validation
            elasticity: Box::new(HoldPolicy),
            split: None,
            preplace: true,
            fault_plan: FaultPlan::none(),
            op_deadline_intervals: 4,
            op_deadline: Duration::from_secs(5),
            round_deadline_intervals: 4,
            round_deadline: Duration::from_secs(5),
            trace: true,
        }
    }

    #[test]
    fn word_count_exact_under_hash() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 3_000, 0.0, 11);
        let intervals: Vec<Vec<Key>> = (0..3).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(HashPartitioner::new(3)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(
            report.processed,
            intervals.iter().map(|v| v.len() as u64).sum()
        );
        assert_eq!(decode_counts(&report.final_states), expect);
        assert_eq!(report.rebalances, 0);
    }

    #[test]
    fn word_count_exact_under_mixed_with_migrations() {
        // Skewed + fluctuating: Mixed must fire migrations, and the final
        // counts must still be exact (no tuple lost or double-counted, no
        // state lost in flight).
        let mut w = FluctuatingWorkload::new(300, 1.0, 5_000, 0.8, 23);
        let mut intervals: Vec<Vec<Key>> = Vec::new();
        for _ in 0..5 {
            intervals.push(w.tuples());
            w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
        }
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(report.rebalances > 0, "skew must trigger migration");
        assert!(report.migrated_keys > 0);
        assert_eq!(decode_counts(&report.final_states), expect, "exactly-once");
    }

    #[test]
    fn latency_and_throughput_recorded() {
        let report = Engine::run(
            small_config(),
            Box::new(HashPartitioner::new(3)),
            |_| Box::new(WordCountOp::new()),
            |iv| (iv < 2).then(|| (0..2000u64).map(|i| Tuple::keyed(Key(i % 50))).collect()),
            None,
        );
        assert_eq!(report.processed, 4000);
        assert!(report.latency_us.count() == 4000);
        assert!(report.latency_us.mean() > 0.0);
        assert!(report.mean_throughput > 0.0);
        assert_eq!(report.interval_throughput.len(), 2);
    }

    #[test]
    fn pkg_partials_merge_to_exact_counts() {
        use crate::operator::SumCollector;
        use streambal_baselines::PkgPartitioner;
        let mut w = FluctuatingWorkload::new(100, 0.9, 4_000, 0.0, 7);
        let intervals: Vec<Vec<Key>> = (0..3)
            .map(|_| {
                let t = w.tuples();
                w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
                t
            })
            .collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(PkgPartitioner::new(3)),
            |_| Box::new(WordCountOp::with_partial_emission(16)),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            Some(Box::new(SumCollector::new())),
        );
        // The merged partial counts must equal the reference exactly.
        let merged: FxHashMap<Key, u64> = report
            .collector_result
            .iter()
            .map(|&(k, v)| (Key(k), v))
            .collect();
        assert_eq!(merged, expect, "partial/merge must reconstruct counts");
    }

    #[test]
    fn scale_out_adds_worker_and_keeps_counts_exact() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 4_000, 0.0, 31);
        let intervals: Vec<Vec<Key>> = (0..6).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::scale_out_at(2)),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                2,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.1,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        // The third worker processed something after joining.
        assert!(
            report.per_worker_processed[2] > 0,
            "new worker got traffic: {:?}",
            report.per_worker_processed
        );
        assert_eq!(decode_counts(&report.final_states), expect);
        assert_eq!(
            report.scale_events,
            vec![ScaleEvent {
                interval: 2,
                from: 2,
                to: 3
            }]
        );
    }

    /// A full scale-out → scale-in cycle mid-run: the retired worker's
    /// state is re-homed losslessly (exact counts), its slot stops
    /// receiving traffic, and the report pins both events.
    #[test]
    fn scale_cycle_is_lossless_and_retires_the_worker() {
        let mut w = FluctuatingWorkload::new(250, 0.9, 4_000, 0.0, 57);
        let intervals: Vec<Vec<Key>> = (0..8).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::cycle(1, 4, 1)),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                2,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.1,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(
            report.scale_events,
            vec![
                ScaleEvent {
                    interval: 1,
                    from: 2,
                    to: 3
                },
                ScaleEvent {
                    interval: 4,
                    from: 3,
                    to: 2
                },
            ]
        );
        assert_eq!(report.processed, total, "tuples lost or duplicated");
        // Counts are summed per key: scale-out without state movement may
        // split a key across workers; the sum must still be exact.
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "exactly-once across the cycle");
        assert!(
            report.per_worker_processed[2] > 0,
            "the transient worker processed traffic"
        );
        assert!(report.worker_seconds > 0.0);
    }

    /// Retiring into a re-provision: 2 → 3 → 2 → 3 reuses the retired
    /// slot's channel for a fresh worker, and counts stay exact.
    #[test]
    fn slot_reuse_after_scale_in_stays_exact() {
        let mut w = FluctuatingWorkload::new(150, 0.8, 3_000, 0.0, 71);
        let intervals: Vec<Vec<Key>> = (0..10).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::new([
                (1, ScaleDecision::ScaleOut),
                (3, ScaleDecision::ScaleIn),
                (5, ScaleDecision::ScaleOut),
                (7, ScaleDecision::ScaleIn),
            ])),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(HashPartitioner::new(2)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(report.scale_events.len(), 4, "{:?}", report.scale_events);
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "exactly-once across two cycles");
    }

    /// A threshold policy on a ramp-up/ramp-down workload scales out at
    /// the burst and back in after it, and worker-seconds reflect the
    /// shorter high-parallelism span.
    #[test]
    fn threshold_policy_tracks_a_burst() {
        use streambal_elastic::ThresholdPolicy;
        // Interval volumes: 2 quiet, 4 burst (4×), 4 quiet; round-robin
        // over 200 keys, which hashing spreads evenly enough.
        let volumes = [800u64, 800, 3200, 3200, 3200, 3200, 800, 800, 800, 800];
        let intervals: Vec<Vec<Key>> = volumes
            .iter()
            .map(|&v| (0..v).map(|i| Key(i % 200)).collect())
            .collect();
        let expect = reference_counts(&intervals);
        // Worker cost per tuple = spin_work + 1 = 11: quiet total
        // Q = 8 800, burst total R = 35 200. On a one-core box the OS can
        // merge adjacent intervals into one stats round, so the
        // watermarks are placed to survive that blur: budget = 20 000,
        // high·budget = 14 000 — a burst round at 2 workers (mean 17 600)
        // fires, a double-merged quiet round (mean 8 800) cannot — and
        // low·budget = 12 000, below which no spreading of the 4-interval
        // quiet tail (4Q = 35 200 total) can keep *every* round's
        // survivors-mean: all ≥ 12 000 at 3 tasks needs ≥ 24 000 cost per
        // round, i.e. ≥ 96 000 in the tail. Mass conservation guarantees
        // the scale-in.
        let mut policy = ThresholdPolicy::new(21_600.0, 2, 4);
        policy.high = 0.7;
        policy.low = 0.6;
        policy.up_after = 1;
        policy.down_after = 1;
        policy.cooldown = 0;
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 4,
            elasticity: Box::new(policy),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(HashPartitioner::new(2)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(
            report.scale_events.iter().any(|e| e.to > e.from),
            "burst must trigger scale-out: {:?}",
            report.scale_events
        );
        assert!(
            report.scale_events.iter().any(|e| e.to < e.from),
            "quiet tail must trigger scale-in: {:?}",
            report.scale_events
        );
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "elastic run stays exact");
    }

    /// The cold scale-out lag, pinned from both sides. With the rebalance
    /// trigger damped (so no migration can mask the effect), a *seed*
    /// (`preplace: false`) scale-out pins every churned key back to its
    /// old home: the new slot never receives a tuple for the rest of the
    /// run. Pre-placement (the default) migrates the churned keys' state
    /// into the new worker inside the scale-out quiescence window, so it
    /// takes their traffic within an interval or two of the decision —
    /// and the run stays exact either way.
    #[test]
    fn preplacement_feeds_the_new_worker_seed_never_does() {
        use streambal_core::TriggerPolicy;
        let intervals: Vec<Vec<Key>> = (0..8)
            .map(|_| (0..3_000u64).map(|i| Key(i % 300)).collect())
            .collect();
        let expect = reference_counts(&intervals);
        let damped = || {
            CoreBalancer::new(3, 100, RebalanceStrategy::Mixed, BalanceParams::default())
                .with_trigger_policy(TriggerPolicy {
                    cooldown: 0,
                    consecutive: 100, // never fires within this run
                })
        };
        let decision = 1u64;
        let run = |preplace: bool| {
            let feed = intervals.clone();
            Engine::run(
                EngineConfig {
                    max_workers: 4,
                    elasticity: Box::new(FixedSchedule::scale_out_at(decision)),
                    preplace,
                    // Small channels keep stats rounds close to interval
                    // boundaries, so the decision lands promptly.
                    channel_capacity: 64,
                    ..small_config()
                },
                Box::new(damped()),
                |_| Box::new(WordCountOp::new()),
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                None,
            )
        };

        let pre = run(true);
        assert_eq!(pre.rebalances, 0, "trigger must stay damped");
        assert!(
            pre.migrated_keys > 0,
            "pre-placement must move the churned keys' state"
        );
        let first = pre.first_tuple_interval[3].expect("new worker fed");
        assert!(
            first <= decision + 2,
            "pre-placed worker cold for {} intervals",
            first - decision
        );
        assert!(pre.per_worker_processed[3] > 0);
        assert_eq!(decode_counts(&pre.final_states), expect, "pre-place exact");

        let seed = run(false);
        assert_eq!(seed.rebalances, 0);
        assert_eq!(
            seed.first_tuple_interval[3], None,
            "seed scale-out pins churn away: the slot must starve until a \
             rebalance that never comes"
        );
        assert_eq!(seed.per_worker_processed[3], 0);
        assert_eq!(decode_counts(&seed.final_states), expect, "seed exact");
    }

    /// One-tuple batches (batch size 1) and larger batches must all be
    /// observationally identical: exact counts, exact processed totals,
    /// exact latency sample counts.
    #[test]
    fn per_tuple_and_batched_shapes_agree() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 3_000, 0.0, 19);
        let intervals: Vec<Vec<Key>> = (0..3).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
        for batch_size in [1, 3, 256] {
            let config = EngineConfig {
                batch_size,
                ..small_config()
            };
            let feed = intervals.clone();
            let report = Engine::run(
                config,
                Box::new(HashPartitioner::new(3)),
                |_| Box::new(WordCountOp::new()),
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                None,
            );
            let label = format!("batch={batch_size}");
            assert_eq!(report.processed, total, "{label}");
            assert_eq!(report.latency_us.count(), total, "{label}");
            assert_eq!(decode_counts(&report.final_states), expect, "{label}");
        }
    }

    /// Migration consistency under batching with the channels squeezed to
    /// almost nothing: batch flushes must never reorder around
    /// `MigrateOut`/`Shutdown` markers even when every send blocks.
    #[test]
    fn tiny_channels_with_migrations_stay_exact() {
        let mut w = FluctuatingWorkload::new(300, 1.0, 4_000, 0.8, 29);
        let mut intervals: Vec<Vec<Key>> = Vec::new();
        for _ in 0..4 {
            intervals.push(w.tuples());
            w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
        }
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            channel_capacity: 4,
            collector_capacity: 2,
            batch_size: 16,
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(report.rebalances > 0, "skew must trigger migration");
        assert_eq!(decode_counts(&report.final_states), expect, "exactly-once");
    }

    #[test]
    fn backpressure_with_tiny_channels_terminates() {
        let config = EngineConfig {
            channel_capacity: 4,
            collector_capacity: 2,
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(HashPartitioner::new(3)),
            |_| Box::new(WordCountOp::new()),
            |iv| (iv < 2).then(|| (0..500u64).map(|i| Tuple::keyed(Key(i % 7))).collect()),
            None,
        );
        assert_eq!(report.processed, 1000);
    }

    /// A retire whose victim dies mid-drain still finishes the retire:
    /// the slot leaves the dead set and the physical width shrinks to
    /// the planned one, so a later `ScaleOut` widens (and records a
    /// scale event) instead of reviving a slot outside the routing
    /// width. The dropped `PauseAck` keeps the retire in flight; the
    /// feeder holds interval 2 back until the policy has decided the
    /// scale-in, so the victim's kill at interval 2 lands while the
    /// retire is pending.
    #[test]
    fn retire_whose_victim_dies_mid_drain_shrinks_the_width() {
        use crate::fault::{CtlKind, FaultSpec};
        use std::sync::atomic::{AtomicBool, Ordering};
        use streambal_elastic::IntervalObservation;

        #[derive(Debug, Clone)]
        struct SignalScaleIn {
            inner: FixedSchedule,
            decided: Arc<AtomicBool>,
        }
        impl ElasticityPolicy for SignalScaleIn {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
                let d = self.inner.decide(obs);
                if d == ScaleDecision::ScaleIn {
                    self.decided.store(true, Ordering::SeqCst);
                }
                d
            }
            fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
                Box::new(self.clone())
            }
        }

        let mut w = FluctuatingWorkload::new(150, 0.8, 2_000, 0.0, 83);
        let intervals: Vec<Vec<Key>> = (0..8).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let decided = Arc::new(AtomicBool::new(false));
        let policy = SignalScaleIn {
            inner: FixedSchedule::new([(1, ScaleDecision::ScaleIn), (5, ScaleDecision::ScaleOut)]),
            decided: Arc::clone(&decided),
        };
        let config = EngineConfig {
            elasticity: Box::new(policy),
            fault_plan: FaultPlan::new(vec![
                FaultSpec::DropCtl {
                    kind: CtlKind::PauseAck,
                    nth: 1,
                },
                FaultSpec::KillWorker {
                    worker: 2,
                    at_interval: 2,
                },
            ]),
            ..small_config()
        };
        let feed = intervals.clone();
        let report = Engine::run(
            config,
            Box::new(HashPartitioner::new(3)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                if iv == 2 {
                    let t = Instant::now();
                    while !decided.load(Ordering::SeqCst) && t.elapsed() < Duration::from_secs(60) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(
            report
                .faults
                .contains(&FaultEvent::WorkerDead { worker: 2 }),
            "the victim did not die: {:?}",
            report.faults
        );
        assert_eq!(
            report.scale_events,
            vec![
                ScaleEvent {
                    interval: 1,
                    from: 3,
                    to: 2
                },
                ScaleEvent {
                    interval: 5,
                    from: 2,
                    to: 3
                },
            ],
            "the later scale-out must widen (faults: {:?})",
            report.faults
        );
        assert!(
            !report
                .faults
                .contains(&FaultEvent::SlotRevived { worker: 2 }),
            "a slot outside the routing width was revived: {:?}",
            report.faults
        );
        assert!(
            report.protocol_errors.is_empty(),
            "{:?}",
            report.protocol_errors
        );
        let mut got = decode_counts(&report.final_states);
        for &(k, n) in &report.lost_tuples {
            *got.entry(k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "fed == observed + lost");
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_parallelism_panics() {
        let _ = Engine::run(
            small_config(), // 3 workers
            Box::new(HashPartitioner::new(2)),
            |_| Box::new(WordCountOp::new()),
            |_| None,
            None,
        );
    }
}
