//! The three workloads: seeded feeds, the engine topology each runs on,
//! and the reference every run is checked against.

use bytes::Bytes;
use streambal_baselines::{CoreBalancer, HashPartitioner};
use streambal_core::{BalanceParams, Key, Partitioner, RebalanceStrategy};
use streambal_elastic::HotKeyPolicy;
use streambal_hashring::FxHashMap;
use streambal_runtime::{Collector, EngineConfig, EngineReport, SumCollector, Tuple, WordCountOp};
use streambal_workloads::{ChurnWorkload, FluctuatingWorkload};

/// Workers in every timed run (the host has two cores).
pub const N_WORKERS: usize = 2;

/// `hot_split`: churn-domain size; the dominant key sits outside it.
const CHURN_KEYS: usize = 2_000;
/// `hot_split`: fresh hot keys per interval and their share of volume.
const CHURN_HOT_N: usize = 40;
const CHURN_HOT_SHARE: f64 = 0.1;
/// `hot_split`: the dominant key's share of every burst interval, and
/// the burst's half-open interval range.
const DOM_SHARE: f64 = 0.6;
const BURST: (u64, u64) = (3, 8);
/// `hot_split`: operator partial-emission period (tuples).
const PARTIAL_PERIOD: u64 = 64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's scenario: Zipf K=1e5, z=0.85, fluctuation f=1.0.
    PaperDrift,
    /// A wide static key space: Zipf K=1e6, z=0.6, no fluctuation.
    WideStatic,
    /// Churning hot set plus a 0.6-share dominant-key burst, split by
    /// `HotKeyPolicy` and merged in the collector.
    HotSplit,
}

/// The sizing of one workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    tuples: u64,
    intervals: usize,
    spin: u32,
    window: usize,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDrift,
        Workload::WideStatic,
        Workload::HotSplit,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDrift => "paper_drift",
            Workload::WideStatic => "wide_static",
            Workload::HotSplit => "hot_split",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::PaperDrift => Shape {
                tuples: 70_000,
                intervals: 10,
                spin: 1_000,
                window: 5,
            },
            Workload::WideStatic => Shape {
                tuples: 700_000,
                intervals: 4,
                spin: 300,
                window: 5,
            },
            // The window outlives the run, so the final states hold every
            // tuple and the merged counts are exact.
            Workload::HotSplit => Shape {
                tuples: 100_000,
                intervals: 10,
                spin: 1_000,
                window: 100,
            },
        }
    }
}

/// A workload's pre-generated key sequence, one `Vec<Key>` per interval.
#[derive(Debug, Clone)]
pub struct Feed {
    pub workload: Workload,
    pub intervals: Vec<Vec<Key>>,
    /// Tuples in the whole feed.
    pub fed: u64,
}

impl Feed {
    /// Generates the feed for `seed`; the same seed gives the same feed.
    pub fn generate(workload: Workload, seed: u64) -> Feed {
        let shape = workload.shape();
        let intervals = match workload {
            Workload::PaperDrift => zipf_intervals(100_000, 0.85, 1.0, shape, seed),
            Workload::WideStatic => zipf_intervals(1_000_000, 0.6, 0.0, shape, seed),
            Workload::HotSplit => churn_intervals(shape, seed),
        };
        let fed = intervals.iter().map(|iv| iv.len() as u64).sum();
        Feed {
            workload,
            intervals,
            fed,
        }
    }

    /// The `index`-th feed drawn from `seed`, generated from its own
    /// sub-seed; the same seed and index give the same feed.
    pub fn draw(workload: Workload, seed: u64, index: u64) -> Feed {
        Feed::generate(workload, seed.wrapping_mul(1_000_003).wrapping_add(index))
    }

    /// The feed as ready tuples, built before a run's clock starts.
    pub fn materialize(&self) -> Vec<Vec<Tuple>> {
        self.intervals
            .iter()
            .map(|keys| keys.iter().map(|&k| Tuple::keyed(k)).collect())
            .collect()
    }

    /// The state window, in intervals.
    pub fn window(&self) -> usize {
        self.workload.shape().window
    }

    /// The engine configuration for `n_workers` workers.
    pub fn config(&self, n_workers: usize) -> EngineConfig {
        let shape = self.workload.shape();
        let split = (self.workload == Workload::HotSplit).then(|| {
            // A task's capacity is 0.6 of its fair share of one interval's
            // cost, so the 0.6-share dominant key crosses the high
            // watermark and nothing else does. Two hot rounds in a row
            // before acting: the first can straddle the burst's start.
            let interval_cost = shape.tuples as f64 * (shape.spin as f64 + 1.0);
            let mut policy = HotKeyPolicy::new(0.6 * interval_cost / n_workers as f64);
            policy.up_after = 2;
            Box::new(policy) as Box<dyn streambal_elastic::SplitPolicy>
        });
        EngineConfig {
            n_workers,
            max_workers: n_workers,
            spin_work: shape.spin,
            window: shape.window,
            split,
            ..EngineConfig::default()
        }
    }

    /// The partitioner under test: Mixed with the paper's defaults.
    pub fn partitioner(&self, n_workers: usize) -> Box<dyn Partitioner> {
        Box::new(CoreBalancer::new(
            n_workers,
            self.window(),
            RebalanceStrategy::Mixed,
            BalanceParams::default(),
        ))
    }

    /// A fresh keyed operator for one worker.
    pub fn operator(&self) -> WordCountOp {
        match self.workload {
            Workload::HotSplit => WordCountOp::with_partial_emission(PARTIAL_PERIOD),
            Workload::PaperDrift | Workload::WideStatic => WordCountOp::new(),
        }
    }

    /// The merge stage's collector, for the workload that has one.
    pub fn collector(&self) -> Option<Box<dyn Collector>> {
        (self.workload == Workload::HotSplit)
            .then(|| Box::new(SumCollector::new()) as Box<dyn Collector>)
    }
}

/// The paper's interval generator, with the static hash map as the
/// fluctuation process's destination oracle.
fn zipf_intervals(k: usize, z: f64, f: f64, shape: Shape, seed: u64) -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(k, z, shape.tuples, f, seed);
    let mut hash = HashPartitioner::new(N_WORKERS);
    (0..shape.intervals)
        .map(|i| {
            if i > 0 {
                w.advance(N_WORKERS, |key| hash.route(key));
            }
            w.tuples()
        })
        .collect()
}

fn churn_intervals(shape: Shape, seed: u64) -> Vec<Vec<Key>> {
    let dominant = Key(CHURN_KEYS as u64 + 7);
    let mut w = ChurnWorkload::new(CHURN_KEYS, shape.tuples, CHURN_HOT_N, CHURN_HOT_SHARE, seed)
        .with_dominant_burst(dominant, DOM_SHARE, BURST.0, BURST.1);
    (0..shape.intervals)
        .map(|i| {
            if i > 0 {
                w.advance();
            }
            w.tuples()
        })
        .collect()
}

/// Per-key counts a correct run must end with.
///
/// A worker files each tuple under its own current interval, which
/// advances when the controller's statistics marker for the source's
/// interval arrives. Batches the source ships after an interval boundary
/// but before that marker land in the previous interval, and tuples held
/// back by a migration's pause land in a later one. So once the window
/// evicts, a key's final state lies between its counts over the source
/// intervals the window surely keeps (`≥ n − w + 1`) and those it may
/// keep (`≥ n − w − 1`). Without eviction (`n ≤ w`) the two bounds are
/// the same exact count.
#[derive(Debug)]
pub struct Reference {
    /// Per key: `(least, most)` tuples the final states may hold.
    state_bounds: FxHashMap<Key, (u64, u64)>,
    /// Counts over the whole feed, which the collector must sum to.
    total: FxHashMap<Key, u64>,
    merges: bool,
}

impl Reference {
    /// Counts the feed.
    pub fn of(feed: &Feed) -> Reference {
        let (n, w) = (feed.intervals.len(), feed.window());
        let (surely_from, maybe_from) = if n <= w {
            (0, 0)
        } else {
            (n - w + 1, (n - w).saturating_sub(1))
        };
        let mut state_bounds: FxHashMap<Key, (u64, u64)> = FxHashMap::default();
        let mut total = FxHashMap::default();
        for (i, keys) in feed.intervals.iter().enumerate() {
            for &k in keys {
                *total.entry(k).or_insert(0) += 1;
                if i >= maybe_from {
                    let b = state_bounds.entry(k).or_default();
                    b.1 += 1;
                    if i >= surely_from {
                        b.0 += 1;
                    }
                }
            }
        }
        Reference {
            state_bounds,
            total,
            merges: feed.workload == Workload::HotSplit,
        }
    }

    /// Checks one run: every tuple processed, no protocol error, loss or
    /// span violation, and per-key counts within the reference's bounds.
    /// Returns the tuples lost or miscounted and a description of each
    /// problem.
    pub fn check(&self, fed: u64, report: &EngineReport) -> (u64, Vec<String>) {
        let mut problems = Vec::new();
        if report.processed != fed {
            problems.push(format!("processed {} of {fed} fed", report.processed));
        }
        if report.latency_us.count() != fed {
            problems.push(format!(
                "latency recorded for {} of {fed} fed",
                report.latency_us.count()
            ));
        }
        if !report.protocol_errors.is_empty() {
            problems.push(format!("protocol errors: {:?}", report.protocol_errors));
        }
        if !report.lost_tuples.is_empty() {
            problems.push(format!("lost tuples on {} keys", report.lost_tuples.len()));
        }
        if !report.faults.is_empty() {
            problems.push(format!("fault ledger: {:?}", report.faults));
        }
        problems.extend(report.trace.check_integrity());

        let states = state_counts(&report.final_states);
        let mut miscounted = outside(&self.state_bounds, &states);
        if miscounted > 0 {
            problems.push(format!(
                "final states miss the reference by {miscounted} tuples"
            ));
        }
        if self.merges {
            let merged: FxHashMap<Key, u64> = report
                .collector_result
                .iter()
                .map(|&(k, v)| (Key(k), v))
                .collect();
            let exact = self.total.iter().map(|(&k, &c)| (k, (c, c))).collect();
            let off = outside(&exact, &merged);
            if off > 0 {
                problems.push(format!("merged sums miss the reference by {off} tuples"));
            }
            miscounted = miscounted.max(off);
        }
        let lost = fed.saturating_sub(report.processed);
        (lost.max(miscounted), problems)
    }
}

/// Per-key tuple counts in the final states, replica partials summed.
fn state_counts(states: &[(Key, Bytes)]) -> FxHashMap<Key, u64> {
    let mut m = FxHashMap::default();
    for (k, blob) in states {
        let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
        *m.entry(*k).or_insert(0) += n;
    }
    m
}

/// Tuples by which `got` falls outside the per-key `(least, most)`
/// bounds, summed over keys; a key without bounds must be absent.
fn outside(bounds: &FxHashMap<Key, (u64, u64)>, got: &FxHashMap<Key, u64>) -> u64 {
    let short: u64 = bounds
        .iter()
        .map(|(k, &(lo, hi))| {
            let g = got.get(k).copied().unwrap_or(0);
            lo.saturating_sub(g) + g.saturating_sub(hi)
        })
        .sum();
    let extra: u64 = got
        .iter()
        .filter(|(k, _)| !bounds.contains_key(k))
        .map(|(_, &g)| g)
        .sum();
    short + extra
}
