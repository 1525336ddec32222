//! The engine benchmark: `Engine::run` (2 workers, Mixed with the
//! paper's defaults) over three seeded workloads, timed from outside the
//! engine and checked against a per-key reference on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_drift --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, `--workload all` runs every workload in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted` and
//! `failed` (fed tuples, and those lost or miscounted) and each metric's
//! value over the measured runs. The line before it carries the host
//! and each metric's quartiles. The exit code is 0 only when every run
//! was correct. See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod report;
mod run;
mod workload;

use std::time::{Duration, Instant};

use report::{quote, Host, Metric};
use run::{Logs, Run};
use streambal_core::RoutingView;
use workload::{Feed, Reference, Workload, N_WORKERS};

const USAGE: &str =
    "usage: streambal-perfbench --workload <paper_drift|wide_static|hot_split|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Untimed runs before measuring: the first runs in a process pay for
/// page faults and allocator growth the later ones do not.
const WARMUPS: usize = 2;
/// Measured runs at least, however long they take.
const MIN_RUNS: usize = 3;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("want whole seconds"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Correctness over every run of an invocation, warm-ups included.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, feed: &Feed, run: &Run) {
        self.attempted += feed.fed;
        self.failed += run.failed;
        for p in &run.problems {
            self.problems.push(format!("{}: {p}", feed.workload.name()));
        }
    }
}

/// One feed drawn from the seed, with its reference.
struct Draw {
    feed: Feed,
    reference: Reference,
}

impl Draw {
    /// Generates the `index`-th draw, timing the generation into `gen_s`.
    fn new(workload: Workload, seed: u64, index: usize, gen_s: &mut Vec<f64>) -> Draw {
        let gen = Instant::now();
        let feed = Feed::draw(workload, seed, index as u64);
        gen_s.push(gen.elapsed().as_secs_f64());
        let reference = Reference::of(&feed);
        Draw { feed, reference }
    }

    /// Runs the draw once, bare or traced, and tallies the check. Final
    /// states are dropped once checked.
    fn run(&self, n_workers: usize, logs: Option<&Logs>, tally: &mut Tally) -> Run {
        let mut run = run::run(&self.feed, &self.reference, n_workers, logs);
        tally.add(&self.feed, &run);
        run.report.final_states = Vec::new();
        run
    }
}

/// The measured runs the hypervisor disturbed least: those whose stolen
/// CPU share is at most the median run's. On a shared virtual machine
/// the steal during a run explains most of its spread from the next
/// (every 1% stolen cost the engine 2–3% of its throughput), so the
/// reported values describe the engine, not the neighbours.
fn least_disturbed(runs: &[Run]) -> Vec<&Run> {
    let cut = report::median(&runs.iter().map(|r| r.steal_pct).collect::<Vec<_>>());
    runs.iter().filter(|r| r.steal_pct <= cut).collect()
}

/// The end-to-end metrics, one sample per measured run.
fn end_to_end(runs: &[&Run]) -> Vec<Metric> {
    let col = |f: fn(&Run) -> f64| runs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    vec![
        Metric::new("throughput_tps", "tuples/s", col(|r| r.tps)),
        Metric::new("latency_p50_ms", "ms", col(|r| r.latency_p50_ms)),
        Metric::new("setup_s", "s", col(|r| r.setup_s)),
        Metric::new("wall_s", "s", col(|r| r.wall_s)),
        Metric::new("peak_rss_mb", "MB", col(|r| r.peak_rss_mb)),
    ]
}

/// The p99 latency of the bare runs. Shown beside the end-to-end
/// metrics but not bounded: its spread across runs on a shared 2-core
/// host is wider than a bound can be. A per-layer metric.
fn latency_p99(runs: &[&Run]) -> Metric {
    Metric::new(
        "latency_p99_ms",
        "ms",
        runs.iter().map(|r| r.latency_p99_ms).collect(),
    )
}

/// What the controller achieved. Shown beside the end-to-end metrics but
/// not bounded: zero on some workload (`migrated_mb`, `table_entries`)
/// or set by the draw more than by the engine (`imbalance_theta`). The
/// traced run reports them as per-layer metrics.
fn controller_outcome(runs: &[&Run]) -> Vec<Metric> {
    let col = |f: fn(&Run) -> f64| runs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    vec![
        Metric::new("imbalance_theta", "ratio", col(|r| r.imbalance_theta)),
        Metric::new("migrated_mb", "MB", col(|r| r.migrated_mb)),
        Metric::new("table_entries", "count", col(|r| r.table_entries)),
    ]
}

/// What the measured runs of one invocation gave.
struct Measured {
    /// The bare runs.
    runs: Vec<Run>,
    /// Per-layer values of each traced run, and its throughput.
    samples: Vec<layers::LayerSample>,
    traced_tps: Vec<f64>,
    /// The last traced run's draw and final routing view (traced only).
    last: Option<(Draw, RoutingView)>,
    /// Generation time of each draw (s).
    gen_s: Vec<f64>,
}

/// Runs untimed warm-ups, then measured runs until `seconds` have
/// passed (and at least `MIN_RUNS`). Every run takes the next draw
/// from the seed, so a result does not hang on one draw of the
/// workload; generating a draw is outside the runs' stamps. With
/// `traced`, every bare run is followed by a traced one on its draw.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured {
        runs: Vec::new(),
        samples: Vec::new(),
        traced_tps: Vec::new(),
        last: None,
        gen_s: Vec::new(),
    };
    for i in 0..WARMUPS {
        Draw::new(workload, seed, i, &mut m.gen_s).run(N_WORKERS, None, tally);
    }
    let clock = Instant::now();
    while m.runs.len() < MIN_RUNS || clock.elapsed() < seconds {
        let draw = Draw::new(workload, seed, WARMUPS + m.runs.len(), &mut m.gen_s);
        m.runs.push(draw.run(N_WORKERS, None, tally));
        if traced {
            let logs = Logs::default();
            let run = draw.run(N_WORKERS, Some(&logs), tally);
            m.traced_tps.push(run.tps);
            m.samples.push(layers::traced_sample(&run, &logs));
            let view = logs.plan.lock().expect("run finished").last_view.take();
            m.last = view.map(|v| (draw, v));
        }
    }
    m
}

/// Per-layer metrics: values over the traced runs, replays of the last
/// traced run's draw, the wall split of the bare runs and a one-worker
/// run.
fn per_layer(m: &Measured, tally: &mut Tally) -> Vec<Metric> {
    let (draw, view) = m
        .last
        .as_ref()
        .expect("a traced run asks for the routing view when it starts");
    let w1 = draw.run(1, None, tally);
    let quiet = least_disturbed(&m.runs);
    let bare_tps = report::middle_mean(&m.runs.iter().map(|r| r.tps).collect::<Vec<_>>());
    let traced_tps = report::middle_mean(&m.traced_tps);
    let feed = &draw.feed;
    let mut out = vec![
        Metric::new(
            "route.ns_per_tuple",
            "ns",
            vec![layers::route_ns_per_tuple(feed, view)],
        ),
        Metric::new(
            "op.process_ns_per_tuple",
            "ns",
            vec![layers::op_process_ns_per_tuple(feed)],
        ),
        Metric::new(
            "channel.ns_per_batch",
            "ns",
            vec![layers::channel_ns_per_batch()],
        ),
        latency_p99(&quiet),
        Metric::new(
            "engine.active_s",
            "s",
            quiet.iter().map(|r| r.active_s).collect(),
        ),
        Metric::new(
            "engine.teardown_ms",
            "ms",
            quiet.iter().map(|r| r.teardown_s * 1e3).collect(),
        ),
        Metric::new("engine.w1_tps", "tuples/s", vec![w1.tps]),
        Metric::new(
            "bench.traced_overhead",
            "ratio",
            vec![traced_tps / bare_tps],
        ),
        Metric::new("bench.feed_gen_s", "s", m.gen_s.clone()),
    ];
    // Every traced run yields the same names in the same order.
    let mut traced: Vec<Metric> = m.samples[0]
        .iter()
        .map(|(name, unit, _)| Metric::new(name.clone(), unit, Vec::new()))
        .collect();
    for sample in &m.samples {
        for (metric, (_, _, v)) in traced.iter_mut().zip(sample) {
            metric.samples.push(*v);
        }
    }
    out.extend(traced);
    out
}

/// Benchmarks one workload, prints its metrics for a reader, and
/// returns them.
fn bench_workload(workload: Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let (failed_before, attempted_before) = (tally.failed, tally.attempted);
    let clock = Instant::now();
    let measured = measure(workload, args.seed, args.seconds, args.trace, tally);
    let measured_s = clock.elapsed().as_secs_f64();
    let (metrics, shown) = if args.trace {
        let m = per_layer(&measured, tally);
        (m.clone(), m)
    } else {
        let quiet = least_disturbed(&measured.runs);
        let m = end_to_end(&quiet);
        let mut shown = m.clone();
        shown.push(latency_p99(&quiet));
        shown.extend(controller_outcome(&quiet));
        (m, shown)
    };

    let runs = &measured.runs;
    let steal: Vec<f64> = runs.iter().map(|r| r.steal_pct).collect();
    println!(
        "== {} seed {} trace {}: {} runs after {WARMUPS} warm-ups in {measured_s:.1} s, \
         each on its own draw (median generation {:.3} s); values from the {} runs with \
         at most {:.1}% of CPU time stolen (median run)",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        runs.len(),
        report::median(&measured.gen_s),
        least_disturbed(runs).len(),
        report::median(&steal),
    );
    for m in &shown {
        let (q1, q3) = report::quartiles(&m.samples);
        println!(
            "   {:<40} {:>16.6} {:<9} q1 {:.6} q3 {:.6} n {}",
            m.name,
            m.value(),
            m.unit,
            q1,
            q3,
            m.samples.len()
        );
    }
    let failed = tally.failed - failed_before;
    let attempted = tally.attempted - attempted_before;
    println!(
        "   {:<40} {:>16} {:<9} ({failed} of {attempted} fed tuples lost or miscounted)",
        "failed_fraction",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let mid_wall = report::median(&walls);
    if let Some(mid) = runs.iter().min_by(|a, b| {
        (a.wall_s - mid_wall)
            .abs()
            .total_cmp(&(b.wall_s - mid_wall).abs())
    }) {
        println!(
            "   wall split of the median run: setup {:.6} s + active {:.6} s + teardown {:.6} s \
             = wall {:.6} s",
            mid.setup_s, mid.active_s, mid.teardown_s, mid.wall_s
        );
    }
    metrics
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let ticks = report::cpu_ticks();
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let mut ms = bench_workload(w, &args, &mut tally);
        if args.workloads.len() > 1 {
            for m in &mut ms {
                m.name = format!("{}.{}", w.name(), m.name);
            }
        }
        metrics.extend(ms);
    }
    for p in tally.problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    let steal = report::steal_pct(ticks, report::cpu_ticks());
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let names: Vec<String> = args.workloads.iter().map(|w| quote(w.name())).collect();
    println!(
        "{{\"detail\": {{\"host\": {}, \"steal_pct\": {}, \"workloads\": [{}], \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"metrics\": {}}}}}",
        host.json(),
        steal.map_or("null".into(), report::num),
        names.join(", "),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        report::spread_json(&metrics)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        report::metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
