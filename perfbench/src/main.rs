//! The repository benchmark. One invocation runs one workload for one
//! seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quote-steady --seed 1 --seconds 25 --trace 0
//! ```
//!
//! It prints provenance and every metric with its sample count, then,
//! as the last line, one JSON object: `--trace 0` reports the bounded
//! end-to-end metrics, `--trace 1` the per-layer and the unbounded
//! end-to-end ones (and prints a per-layer span table). See
//! `perfbench/README.md`.

mod fleet;
mod layers;
mod rng;
mod spans;
mod stats;
mod wire;
mod workload;

use stats::{beyond, Samples, Window};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use wire::{Kind, Mode};
use workload::{Inputs, Plan, Probe, Stack, Tally};

/// The end-to-end metrics `BENCHMARK.json` bounds: those steady enough
/// run to run on this host (CPU time rather than wall time where the
/// host's contention moves wall time). The run prints every other
/// metric too, and the traced run reports them.
const BOUNDED: [&str; 4] = ["setup_s", "batch_cpu_s", "serve_cpu_us", "peak_rss_mb"];

/// Batch-round clusters and serve segments the window alternates. Host
/// contention comes and goes over seconds, and under it the program
/// handles queued requests in batches and spends less CPU on each, so
/// `serve_cpu_us` is the median over short segments.
const SEGMENTS: usize = 8;

/// Requests per chunk behind a reported percentile: enough for ten
/// beyond a p99.
const CHUNK: usize = 1000;

/// Consecutive batch rounds averaged into one `batch_solve_s` sample.
const ROUND_CHUNK: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The metrics of one run, with the sample count behind each.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str, usize)>,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name, (value, unit, samples));
    }

    /// A percentile of `s` in `unit` (divisor from ns): the median of
    /// that percentile over consecutive 1000-request chunks, each with
    /// ten or more samples beyond it. Refused below one full chunk.
    fn pct(&mut self, name: &'static str, s: &Samples, q: f64, unit: &'static str, div: f64) {
        let n = s.len();
        if n < CHUNK {
            self.problems.push(format!(
                "{name}: {n} samples, fewer than one {CHUNK}-request chunk"
            ));
        }
        self.put(
            name,
            s.chunked_quantile(q, CHUNK).unwrap_or(0) as f64 / div,
            unit,
            n,
        );
    }

    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

/// Iterations of the calibration loop: about 1 ms of CPU on this host
/// in its fast state.
const CALIBRATION_ITERS: usize = 700;

/// The speed the CPU-time metrics are expressed at: a host on which one
/// calibration sample takes 1 ms.
const CALIBRATION_REF_NS: f64 = 1e6;

/// Thread CPU time of a fixed compute loop: how fast the host runs this
/// process right now. Its speed swings by about 1.5x over seconds to
/// tens of minutes (neighbours on shared cores), which moves every CPU
/// time by the same factor. The loop is a dependent min/multiply-add
/// chain over a 2 KiB row, the shape of the kernels' backward
/// induction. It touches no memory beyond that row, so what the program
/// leaves in the caches does not change its time.
#[derive(Default)]
struct Calibration(Samples);

impl Calibration {
    fn sample(&mut self) {
        let start = wire::thread_cpu_ns();
        let mut row = [0f64; 256];
        for _ in 0..CALIBRATION_ITERS {
            for i in 1..row.len() {
                row[i] = (row[i - 1] * 0.999 + i as f64).min(row[i] + 1.0);
            }
            std::hint::black_box(&mut row);
        }
        self.0.push(wire::thread_cpu_ns() - start);
    }

    /// The factor that expresses a CPU time at the reference speed.
    fn scale(&self) -> f64 {
        CALIBRATION_REF_NS / self.0.quantile(0.5).unwrap_or(1).max(1) as f64
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(plan) = Plan::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    println!(
        "# workload={} seed={} window_s={} trace={} nproc={} rustc=\"{}\" commit={}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    let (report, attempted, failed) = run(&plan, &args);
    for (name, (value, unit, n)) in &report.metrics {
        println!("{name:<36} {value:>14.4} {unit:<8} n={n}");
    }
    for p in &report.problems {
        println!("# FAILED: {p}");
    }
    let correct = report.problems.is_empty() && failed == 0;
    // The end-to-end run reports the bounded metrics; the traced run
    // everything else (see BENCHMARK.json).
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, _)| BOUNDED.contains(name) != args.trace)
        .map(|(name, (value, unit, _))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run(plan: &Plan, args: &Args) -> (Report, u64, u64) {
    let mut report = Report::default();
    let window_ns = (args.seconds * 1e9) as u64;
    let replica = plan.replica();
    let mut inputs = Inputs::new(plan, Arc::clone(&replica));

    // Calibration samples are taken before every setup and batch round
    // and around every serve segment, so that they follow the host
    // through the run; their median scales every CPU time.
    let mut calibration = Calibration::default();

    // Setup, repeated; the last stack serves. `setup_s` is its process
    // CPU time (all threads), which a host that takes the vCPUs away
    // does not inflate; the wall time is reported beside it.
    let mut setup = Samples::default();
    let mut setup_wall = Samples::default();
    let mut stack = None;
    for _ in 0..workload::SETUPS {
        if let Some(old) = stack.take() {
            Stack::shutdown(old);
        }
        calibration.sample();
        let started = Instant::now();
        let cpu_before = wire::process_cpu_ns();
        stack = Some(Stack::spawn(plan));
        setup.push(wire::process_cpu_ns() - cpu_before);
        setup_wall.push(started.elapsed().as_nanos() as u64);
    }
    let stack = stack.expect("at least one setup");
    let bench_plane = Arc::new(ft_metrics::MetricsRegistry::new());
    ft_exec::register_metrics(&bench_plane);
    let exec_before = (
        bench_plane.counter("ft_exec_steals_total").get(),
        bench_plane.counter("ft_exec_deque_overflow_total").get(),
    );

    // The window: SEGMENTS × (batch rounds, then a serve segment), then
    // the knee. Interleaving spreads both measurements over the whole
    // window, so a few seconds of host noise land in one segment of
    // each instead of all of one.
    let knee_ns = (window_ns as f64 * workload::KNEE_SHARE) as u64;
    let batch_ns = (window_ns as f64 * plan.batch_share) as u64;
    let serve_ns = window_ns
        .saturating_sub(batch_ns + knee_ns)
        .max(SEGMENTS as u64 * 250_000_000);
    let solve_window = Window::open(&[stack.planes[0].histogram("ft_core_solve_ns")]);
    let server_windows = layers::ServerWindows::open(&stack);
    let mut rounds = Samples::default();
    let mut rounds_cpu = Samples::default();
    let mut round_objectives = Vec::new();
    let mut tally = Tally::default();
    let mut traced = spans::TracedRun::default();
    let (mut untraced_price, mut traced_price) = (Samples::default(), Samples::default());
    // Program CPU per answered request, one sample per serve segment.
    let (mut serve_cpu, mut serve_wall_ns) = (Samples::default(), 0u64);
    let mut behind = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS {
        let started = Instant::now();
        let mut n = 0;
        while n < workload::MIN_ROUNDS.div_ceil(SEGMENTS)
            || (started.elapsed().as_nanos() as u64) < batch_ns / SEGMENTS as u64
        {
            calibration.sample();
            let cpu_before = wire::process_cpu_ns();
            let (secs, objectives) = workload::batch_round(plan, &stack.planes[0]);
            rounds_cpu.push(wire::process_cpu_ns() - cpu_before);
            rounds.push((secs * 1e9) as u64);
            round_objectives.push(objectives);
            n += 1;
        }
        // The traced run tags 1 request in 16; the price p50s of the
        // tagged and the untagged requests, sent interleaved on the same
        // connection, give the tracing overhead.
        let trace_every = if args.trace { 16 } else { 0 };
        let span = serve_ns / SEGMENTS as u64;
        let (a, b) = inputs.phase(
            plan,
            100 + segment as u64,
            span,
            plan.price_rate,
            trace_every,
        );
        calibration.sample();
        let (started, cpu_before) = (Instant::now(), wire::process_cpu_ns());
        let phase = workload::run_phase(stack.addr, &a, &b, Mode::Open, Mode::Open);
        serve_wall_ns += started.elapsed().as_nanos() as u64;
        // The program's CPU: the process's, less the generator threads'.
        let cpu_ns = (wire::process_cpu_ns() - cpu_before).saturating_sub(phase.generator_cpu_ns);
        calibration.sample();
        let (oa, ob) = (phase.a, phase.b);
        inputs.mark_applied(&b, &ob);
        let (sends_before, answered_before) = (tally.sends.len(), tally.answered_total());
        tally.add(&a, &oa, false);
        tally.add(&b, &ob, false);
        behind.push(tally.late_head_tail(sends_before));
        serve_cpu.push(cpu_ns / (tally.answered_total() - answered_before).max(1));
        if args.trace {
            for o in oa.iter().filter(|o| o.ok() && a[o.op].kind == Kind::Price) {
                if a[o.op].trace_id != 0 {
                    traced_price.push(o.latency_ns());
                } else {
                    untraced_price.push(o.latency_ns());
                }
            }
            traced.record_requests(&a, &oa);
            traced.record_requests(&b, &ob);
        }
    }
    // Setup and CPU costs, expressed at the reference host speed.
    report.put(
        "host.calib_us",
        calibration.0.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
        calibration.0.len(),
    );
    report.put(
        "setup_s",
        setup.quantile(0.5).unwrap_or(0) as f64 / 1e9 * calibration.scale(),
        "s",
        setup.len(),
    );
    report.put(
        "setup_wall_s",
        setup_wall.quantile(0.5).unwrap_or(0) as f64 / 1e9,
        "s",
        setup_wall.len(),
    );
    report.put(
        "serve_cpu_us",
        serve_cpu.quantile(0.5).unwrap_or(0) as f64 / 1e3 * calibration.scale(),
        "us",
        tally.answered_total() as usize,
    );
    if args.trace {
        report.put(
            "trace.overhead.price_p50",
            traced_price.quantile(0.5).unwrap_or(0) as f64
                / untraced_price.quantile(0.5).unwrap_or(1).max(1) as f64,
            "ratio",
            traced_price.len(),
        );
    }
    let solves = solve_window.close();
    report.put(
        "batch_solve_s",
        rounds.median_of_chunk_means(ROUND_CHUNK) / 1e9,
        "s",
        rounds.len(),
    );
    report.put(
        "batch_cpu_s",
        rounds_cpu.median_of_chunk_means(ROUND_CHUNK) / 1e9 * calibration.scale(),
        "s",
        rounds_cpu.len(),
    );
    if beyond(solves.count as usize, 0.5) < 10 {
        report.fail(format!("solve_p50_ms: only {} solves", solves.count));
    }
    report.put(
        "solve_p50_ms",
        solves.quantile(0.5).unwrap_or(0) as f64 / 1e6,
        "ms",
        solves.count as usize,
    );
    let serve_layers = server_windows.close(&stack);
    // Handler seconds per second of serving spent on observations: on
    // recal-storm, the share of a core its inline re-solves keep busy.
    report.put(
        "server.observe_busy",
        serve_layers.observe.sum as f64 / serve_wall_ns.max(1) as f64,
        "s/s",
        serve_layers.observe.count as usize,
    );
    // A host stall makes the generator late for a while, within one
    // segment; a generator that cannot keep pace falls behind in each.
    if behind
        .iter()
        .all(|&(head, tail)| tail > head + workload::BEHIND_NS)
    {
        report.fail(format!(
            "generator fell behind its schedule in every serve segment (median lateness of \
             the first and last fifth, ns: {behind:.0?}; p99 {} ns)",
            tally.late.quantile(0.99).unwrap_or(0)
        ));
    }

    // Knee. A probe's requests are a capacity search: refused or late
    // ones fail the probe, not the run. A failed probe is repeated once,
    // so one host stall does not steer the bisection.
    let mut probes: Vec<Probe> = Vec::new();
    let mut knee_tally = Tally::default();
    if knee_ns > 0 {
        let mut tag = 200;
        let mut probe = |rate: f64| {
            tag += 1;
            let span = workload::KNEE_PROBE_NS.max((workload::KNEE_SAMPLES / rate * 1e9) as u64);
            let (a, b) = inputs.phase(plan, tag, span, rate, 0);
            let probe_mode = Mode::Probe {
                give_up_ns: workload::SLO_NS,
            };
            let phase = workload::run_phase(stack.addr, &a, &b, probe_mode, probe_mode);
            let (oa, ob) = (phase.a, phase.b);
            inputs.mark_applied(&b, &ob);
            let mut t = Tally::default();
            t.add(&a, &oa, true);
            t.add(&b, &ob, true);
            let stopped = oa.iter().chain(&ob).any(|o| !o.sent);
            let p99 = t.price.quantile(0.99).unwrap_or(u64::MAX);
            let pass = !stopped
                && t.failed == 0
                && beyond(t.price.len(), 0.99) >= 10
                && p99 <= workload::SLO_NS
                && !t.fell_behind(0);
            knee_tally.answered_from(&t);
            probes.push(Probe {
                rate,
                price_p99_ns: if stopped { u64::MAX } else { p99 },
                samples: t.price.len(),
                pass,
            });
            pass
        };
        workload::bisect(
            workload::KNEE_LO,
            workload::KNEE_HI,
            workload::KNEE_STEPS,
            |rate| probe(rate) || probe(rate),
        );
        report.put("knee_rps", workload::knee(&probes), "req/s", probes.len());
        for p in &probes {
            println!(
                "# knee probe {:>9.1} req/s: price p99 {:>9} ns over {} samples -> {}",
                p.rate,
                p.price_p99_ns,
                p.samples,
                if p.pass { "pass" } else { "fail" }
            );
        }
    }

    // End-to-end latencies from the serve phase.
    report.pct("price_p50_us", &tally.price, 0.5, "us", 1e3);
    report.pct("price_p99_us", &tally.price, 0.99, "us", 1e3);
    report.pct("observe_p50_us", &tally.observe, 0.5, "us", 1e3);
    report.pct("observe_p99_us", &tally.observe, 0.99, "us", 1e3);
    report.pct("bulk_quote_p99_us", &tally.bulk, 0.99, "us", 1e3);
    for (label, samples) in [
        ("price", &tally.price),
        ("observe", &tally.observe),
        ("bulk", &tally.bulk),
    ] {
        println!(
            "# {label}: p90 {:.1} us, p99 over all {:.1} us, n={}",
            samples.quantile(0.9).unwrap_or(0) as f64 / 1e3,
            samples.quantile(0.99).unwrap_or(0) as f64 / 1e3,
            samples.len()
        );
    }
    println!(
        "# generator lateness: p99 {} ns, max {} ns over {} sends; serve phase {:.2} s",
        tally.late.quantile(0.99).unwrap_or(0),
        tally.late.max(),
        tally.late.len(),
        serve_ns as f64 / 1e9
    );

    // Correctness.
    let mut all = Tally::default();
    all.merge_counts(&tally);
    all.answered_from(&knee_tally);
    if all.failed > 0 {
        report.fail(format!(
            "{} of {} requests failed ({} refused with 503, {} answered wrongly)",
            all.failed, all.attempted, all.rejected, all.incorrect
        ));
    }
    layers::check_counts(plan, &stack, &all, &mut report.problems);
    let serial = workload::serial_objectives(plan);
    if let Some(bad) = round_objectives.iter().position(|r| *r != serial) {
        report.fail(format!(
            "batch round {bad}: a policy objective differs from the serial solve"
        ));
    }
    if plan.storm {
        layers::check_storm(plan, &stack, &inputs, &mut report.problems);
    }

    if args.trace {
        let mut per_layer = Report::default();
        layers::per_layer(
            plan,
            &replica,
            &inputs,
            &tally,
            &serve_layers,
            &bench_plane,
            exec_before,
            &mut traced,
            &solves,
            &mut per_layer,
        );
        report.problems.append(&mut per_layer.problems);
        report.metrics.append(&mut per_layer.metrics);
        spans::table_and_export(plan, args.seed, &traced);
    }
    report.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    Stack::shutdown(stack);
    (report, all.attempted, all.failed)
}
