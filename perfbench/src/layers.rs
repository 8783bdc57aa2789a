//! Per-layer measurement from outside the program: window deltas of
//! the program's own metrics plane, timed calls into each layer's public
//! functions, and the correctness checks that read the same plane.

use crate::spans::{Span, TracedRun};
use crate::stats::{Samples, Window};
use crate::workload::{Inputs, Plan, Stack, Tally};
use crate::Report;
use ft_core::kernel::deadline::solve_deadline_with_cache;
use ft_core::kernel::{SharedPmfCache, TruncationTable};
use ft_core::registry::{CampaignRegistry, CampaignSpec, ObservedState, DEFAULT_EPS};
use ft_core::{BudgetProblem, CampaignId, DeadlineProblem, KernelConfig, Sweep};
use ft_metrics::{HistogramSnapshot, MetricsRegistry};
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

fn endpoint(name: &str, label: &str) -> String {
    format!("{name}{{endpoint=\"{label}\"}}")
}

/// Window deltas over the serve phase, summed across nodes.
pub struct ServerWindows {
    queue_wait: Window,
    price: Window,
    observe: Window,
    bulk: Window,
    router_price: Window,
    router_bulk: Window,
    counters_before: Vec<u64>,
    sched_before: (u64, u64, u64),
}

/// What the serve phase did inside the program.
pub struct ServerLayers {
    pub queue_wait: HistogramSnapshot,
    pub price: HistogramSnapshot,
    pub observe: HistogramSnapshot,
    pub bulk: HistogramSnapshot,
    pub router_price: HistogramSnapshot,
    pub router_bulk: HistogramSnapshot,
    pub retries: u64,
    pub recalibrations: u64,
    pub waves: u64,
    pub lookups: u64,
    pub hits: u64,
}

fn counters(stack: &Stack) -> Vec<u64> {
    let sum = |name: &str| {
        stack
            .planes
            .iter()
            .map(|p| p.counter(name).get())
            .sum::<u64>()
    };
    let retries = stack
        .router
        .as_ref()
        .map_or(0, |(h, _)| h.fleet().telemetry.retries.get());
    vec![retries, sum("ft_core_recalibrations_total")]
}

fn scheduler(stack: &Stack) -> (u64, u64, u64) {
    stack.registries.iter().fold((0, 0, 0), |acc, r| {
        let s = r.scheduler().stats();
        (acc.0 + s.waves, acc.1 + s.lookups, acc.2 + s.hits)
    })
}

impl ServerWindows {
    pub fn open(stack: &Stack) -> Self {
        let node = |name: &str| -> Window {
            Window::open(
                &stack
                    .planes
                    .iter()
                    .map(|p| p.histogram(name))
                    .collect::<Vec<_>>(),
            )
        };
        let router = |label: &str| -> Window {
            let hists: Vec<_> = stack
                .router
                .iter()
                .map(|(h, _)| {
                    h.fleet()
                        .telemetry
                        .registry()
                        .histogram(&endpoint("ft_router_request_ns", label))
                })
                .collect();
            Window::open(&hists)
        };
        Self {
            queue_wait: node("ft_server_queue_wait_ns"),
            price: node(&endpoint("ft_server_request_ns", "campaign_price")),
            observe: node(&endpoint("ft_server_request_ns", "campaign_observe")),
            bulk: node(&endpoint("ft_server_request_ns", "campaigns_quotes")),
            router_price: router("campaign_price"),
            router_bulk: router("campaigns_quotes"),
            counters_before: counters(stack),
            sched_before: scheduler(stack),
        }
    }

    pub fn close(&self, stack: &Stack) -> ServerLayers {
        let after = counters(stack);
        let sched = scheduler(stack);
        ServerLayers {
            queue_wait: self.queue_wait.close(),
            price: self.price.close(),
            observe: self.observe.close(),
            bulk: self.bulk.close(),
            router_price: self.router_price.close(),
            router_bulk: self.router_bulk.close(),
            retries: after[0] - self.counters_before[0],
            recalibrations: after[1] - self.counters_before[1],
            waves: sched.0 - self.sched_before.0,
            lookups: sched.1 - self.sched_before.1,
            hits: sched.2 - self.sched_before.2,
        }
    }
}

fn scrape(stack: &Stack) -> Result<Vec<(String, Value)>, String> {
    let (status, body) = ft_server::client::request(stack.addr, "GET", "/metrics", None)
        .map_err(|e| format!("final /metrics scrape: {e}"))?;
    if status != 200 {
        return Err(format!("final /metrics scrape answered {status}"));
    }
    match serde_json::from_str::<Value>(&body) {
        Ok(Value::Map(entries)) => Ok(entries),
        _ => Err("final /metrics scrape is not a JSON object".into()),
    }
}

fn number(entries: &[(String, Value)], name: &str) -> u64 {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_num())
        .map_or(0, |x| x as u64)
}

/// A program count agrees with the client's when they are equal, or when
/// the difference is no more than the requests whose answers were lost
/// (only a knee probe past capacity loses any).
fn agrees(served: u64, answered: u64, unanswered: u64) -> bool {
    served >= answered && served - answered <= unanswered
}

/// The program's own counts, read back over `/metrics`, must equal the
/// client's: requests by endpoint, and recalibrations.
pub fn check_counts(plan: &Plan, stack: &Stack, client: &Tally, problems: &mut Vec<String>) {
    let entries = match scrape(stack) {
        Ok(e) => e,
        Err(e) => return problems.push(e),
    };
    let prefix = if plan.routed {
        "ft_router_requests_total"
    } else {
        "ft_server_requests_total"
    };
    for (label, count) in [
        ("campaign_price", client.answered[0]),
        ("campaigns_quotes", client.answered[1]),
        ("campaign_observe", client.answered[2]),
        ("metrics", client.answered[3]),
    ] {
        let served = number(&entries, &endpoint(prefix, label));
        if !agrees(served, count, client.unanswered) {
            problems.push(format!(
                "{prefix}{{{label}}} = {served}, client counted {count}"
            ));
        }
    }
    if plan.routed {
        // Single-id routes proxy one-to-one onto the owning node.
        for (label, count) in [
            ("campaign_price", client.answered[0]),
            ("campaign_observe", client.answered[2]),
        ] {
            let served = number(&entries, &endpoint("ft_server_requests_total", label));
            if !agrees(served, count, client.unanswered) {
                problems.push(format!(
                    "nodes' ft_server_requests_total{{{label}}} = {served}, client counted {count}"
                ));
            }
        }
    }
    let recalibrations = number(&entries, "ft_core_recalibrations_total");
    if !agrees(recalibrations, client.recalibrated, client.unanswered) {
        problems.push(format!(
            "ft_core_recalibrations_total = {recalibrations}, client saw {} recalibrated responses",
            client.recalibrated
        ));
    }
    if !plan.storm && recalibrations != 0 {
        problems.push(format!(
            "{recalibrations} recalibrations in a workload that must have none"
        ));
    }
}

/// After a storm: feed a replica each campaign's observation sequence;
/// a fixed probe quote per campaign must then agree bit for bit.
pub fn check_storm(plan: &Plan, stack: &Stack, inputs: &Inputs, problems: &mut Vec<String>) {
    let replica = plan.registry(&Arc::new(MetricsRegistry::new()));
    for spec in &plan.fleet {
        replica.register(spec.clone());
    }
    for (id, solved) in replica.solve_many(&plan.ids()) {
        if let Err(e) = solved {
            return problems.push(format!("storm replica solve of {id}: {e}"));
        }
    }
    let mut per_campaign = vec![Vec::new(); plan.fleet.len()];
    for (&(c, obs), _) in inputs
        .sent_observations
        .iter()
        .zip(&inputs.applied)
        .filter(|(_, &a)| a)
    {
        per_campaign[c].push(obs);
    }
    let errors: Vec<String> = ft_exec::par_map(plan.fleet.len(), 1, 0, |c| {
        per_campaign[c]
            .iter()
            .filter_map(|obs| replica.observe(c as CampaignId + 1, *obs).err())
            .map(|e| format!("replica observe on campaign {}: {e}", c + 1))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    problems.extend(errors.into_iter().take(3));
    let mut client = ft_server::Client::new(stack.addr);
    for (c, spec) in plan.fleet.iter().enumerate() {
        let id = c as CampaignId + 1;
        let state = ObservedState::Deadline {
            remaining: crate::fleet::shape(spec).0 / 2,
            interval: per_campaign[c].len(),
        };
        let expected = replica.quote(id, state).map(|q| q.price.to_bits());
        let served = client
            .request("GET", &crate::fleet::price_path(id, state), None)
            .ok()
            .filter(|(status, _)| *status == 200)
            .map(|(_, body)| crate::wire::prices(body.as_bytes()));
        if served.as_deref() != expected.as_ref().ok().map(std::slice::from_ref) {
            problems.push(format!(
                "campaign {id}: probe quote after the storm differs from the replica ({served:?} vs {expected:?})"
            ));
        }
    }
}

/// Median wall time of `f` over `reps` calls, in ns, recording one span
/// per call.
fn time_calls(
    name: &'static str,
    reps: usize,
    spans: &mut Vec<Span>,
    mut f: impl FnMut(),
) -> Samples {
    let mut s = Samples::default();
    for _ in 0..reps {
        let start = ft_trace::now_ns();
        f();
        let end = ft_trace::now_ns();
        s.push(end - start);
        spans.push(Span::bench(name, start, end));
    }
    s
}

fn deadline_problems(plan: &Plan, limit: usize) -> Vec<(DeadlineProblem, f64)> {
    plan.fleet
        .iter()
        .filter_map(|s| match s {
            CampaignSpec::Deadline { problem, eps } => {
                Some((problem.clone(), eps.unwrap_or(DEFAULT_EPS)))
            }
            CampaignSpec::Budget { .. } => None,
        })
        .take(limit)
        .collect()
}

fn budget_problems(plan: &Plan) -> Vec<BudgetProblem> {
    let own: Vec<BudgetProblem> = plan
        .fleet
        .iter()
        .filter_map(|s| match s {
            CampaignSpec::Budget { problem } => Some(problem.clone()),
            CampaignSpec::Deadline { .. } => None,
        })
        .take(2)
        .collect();
    if own.is_empty() {
        vec![ft_core::testkit::paper_budget_problem()]
    } else {
        own
    }
}

/// Every per-layer metric for this workload. A layer the workload
/// bypasses reads 0.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    plan: &Plan,
    replica: &Arc<CampaignRegistry>,
    inputs: &Inputs,
    tally: &Tally,
    serve: &ServerLayers,
    bench_plane: &MetricsRegistry,
    exec_before: (u64, u64),
    traced: &mut TracedRun,
    solves: &HistogramSnapshot,
    out: &mut Report,
) {
    let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    let n = |h: &HistogramSnapshot| h.count as usize;

    // server
    out.put(
        "server.queue_wait_us.p50",
        us(serve.queue_wait.quantile(0.5)),
        "us",
        n(&serve.queue_wait),
    );
    out.put(
        "server.queue_wait_us.p99",
        us(serve.queue_wait.quantile(0.99)),
        "us",
        n(&serve.queue_wait),
    );
    out.put(
        "server.handler_us.price.p99",
        us(serve.price.quantile(0.99)),
        "us",
        n(&serve.price),
    );
    out.put(
        "server.handler_us.observe.p99",
        us(serve.observe.quantile(0.99)),
        "us",
        n(&serve.observe),
    );
    out.put(
        "server.handler_us.bulk_quotes.p99",
        us(serve.bulk.quantile(0.99)),
        "us",
        n(&serve.bulk),
    );
    let wire = (tally.price_rtt.mean() - serve.price.mean()).max(0.0) / 1e3;
    out.put(
        "server.wire_us.price.mean",
        wire,
        "us",
        tally.price_rtt.len(),
    );
    out.put(
        "server.rejected",
        tally.rejected as f64,
        "count",
        tally.attempted as usize,
    );
    out.put(
        "server.failed",
        (tally.failed - tally.rejected) as f64,
        "count",
        tally.attempted as usize,
    );

    // router
    out.put(
        "router.request_us.price.p50",
        us(serve.router_price.quantile(0.5)),
        "us",
        n(&serve.router_price),
    );
    out.put(
        "router.request_us.price.p99",
        us(serve.router_price.quantile(0.99)),
        "us",
        n(&serve.router_price),
    );
    out.put(
        "router.request_us.bulk_quotes.p99",
        us(serve.router_bulk.quantile(0.99)),
        "us",
        n(&serve.router_bulk),
    );
    let overhead = if serve.router_price.count > 0 {
        (serve.router_price.mean() - serve.price.mean()).max(0.0) / 1e3
    } else {
        0.0
    };
    out.put(
        "router.overhead_us.price.mean",
        overhead,
        "us",
        n(&serve.router_price),
    );
    out.put(
        "router.retries",
        serve.retries as f64,
        "count",
        n(&serve.router_price),
    );

    // core.registry: the replica replays the serve phase's quoted states.
    let mut quote_ns = Samples::default();
    for &(id, state) in &inputs.priced {
        let start = Instant::now();
        let q = replica.quote(id, state);
        quote_ns.push(start.elapsed().as_nanos() as u64);
        std::hint::black_box(q.ok());
    }
    out.put(
        "registry.quote_ns.p50",
        quote_ns.quantile(0.5).unwrap_or(0) as f64,
        "ns",
        quote_ns.len(),
    );
    out.put(
        "registry.quote_ns.p99",
        quote_ns.quantile(0.99).unwrap_or(0) as f64,
        "ns",
        quote_ns.len(),
    );
    out.put(
        "registry.observe_us.plain.p50",
        us(tally.observe_plain.quantile(0.5)),
        "us",
        tally.observe_plain.len(),
    );
    out.put(
        "registry.observe_ms.recal.p50",
        ms(tally.observe_recal.quantile(0.5)),
        "ms",
        tally.observe_recal.len(),
    );
    out.put(
        "registry.observe_ms.recal.p99",
        ms(tally.observe_recal.quantile(0.99)),
        "ms",
        tally.observe_recal.len(),
    );
    out.put(
        "registry.recalibrations",
        serve.recalibrations as f64,
        "count",
        tally.observe.len(),
    );
    let share = tally.recalibrated as f64 / tally.observe.len().max(1) as f64;
    out.put("registry.recal_share", share, "ratio", tally.observe.len());
    out.put(
        "registry.solve_ms.p50",
        ms(solves.quantile(0.5)),
        "ms",
        solves.count as usize,
    );
    out.put(
        "registry.solve_ms.p99",
        ms(solves.quantile(0.99)),
        "ms",
        solves.count as usize,
    );

    // core.scheduler over the serve phase.
    out.put("scheduler.waves", serve.waves as f64, "count", 1);
    out.put("scheduler.row_lookups", serve.lookups as f64, "count", 1);
    out.put("scheduler.row_hits", serve.hits as f64, "count", 1);
    let hit_rate = if serve.lookups > 0 {
        serve.hits as f64 / serve.lookups as f64
    } else {
        0.0
    };
    out.put(
        "scheduler.hit_rate",
        hit_rate,
        "ratio",
        serve.lookups as usize,
    );

    // exec counters over the window.
    let steals = bench_plane.counter("ft_exec_steals_total").get() - exec_before.0;
    let overflow = bench_plane.counter("ft_exec_deque_overflow_total").get() - exec_before.1;
    out.put("exec.steals", steals as f64, "count", 1);
    out.put("exec.deque_overflow", overflow as f64, "count", 1);

    kernel_probes(plan, traced, out);

    // metrics, trace, generator.
    out.put(
        "metrics.scrape_ms.p50",
        ms(tally.scrape.quantile(0.5)),
        "ms",
        tally.scrape.len(),
    );
    out.put(
        "gen.late_us.p99",
        us(tally.late.quantile(0.99)),
        "us",
        tally.late.len(),
    );
    out.put(
        "gen.late_us.max",
        tally.late.max() as f64 / 1e3,
        "us",
        tally.late.len(),
    );
}

/// Timed calls into the kernel and the executor on this workload's
/// problem shapes.
fn kernel_probes(plan: &Plan, traced: &mut TracedRun, out: &mut Report) {
    let spans = &mut traced.probes;
    let deadlines = deadline_problems(plan, 6);
    let default = KernelConfig::default();
    let serial = KernelConfig::serial();

    let mut trunc = Samples::default();
    for (problem, eps) in &deadlines {
        trunc.extend(&time_calls("bench.kernel.trunc_build", 5, spans, || {
            std::hint::black_box(TruncationTable::with_eps(problem, *eps));
        }));
    }
    out.put(
        "kernel.trunc_build_us",
        trunc.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
        trunc.len(),
    );

    // A recalibration's sub-problem: the first deadline shape with its
    // arrivals at the adaptive clamp, solved Dense-truncated with a
    // fresh and with a pre-filled wave cache.
    let (first, _) = deadlines
        .first()
        .expect("every workload has a deadline campaign")
        .clone();
    let clamp = ft_core::AdaptiveOptions::default();
    let corrected = DeadlineProblem::new(
        first.n_tasks,
        first
            .interval_arrivals
            .iter()
            .map(|l| l * clamp.min_correction)
            .collect(),
        first.actions.clone(),
        first.penalty,
    );
    let cold = time_calls("bench.kernel.dense_cold", 5, spans, || {
        let cache = Arc::new(SharedPmfCache::new());
        std::hint::black_box(
            ft_core::dp::solve_truncated_with_cache(&corrected, clamp.truncation_eps, Some(cache))
                .ok(),
        );
    });
    let warm_cache = Arc::new(SharedPmfCache::new());
    let _ = ft_core::dp::solve_truncated_with_cache(
        &corrected,
        clamp.truncation_eps,
        Some(Arc::clone(&warm_cache)),
    );
    let warm = time_calls("bench.kernel.dense_warm", 5, spans, || {
        std::hint::black_box(
            ft_core::dp::solve_truncated_with_cache(
                &corrected,
                clamp.truncation_eps,
                Some(Arc::clone(&warm_cache)),
            )
            .ok(),
        );
    });
    let (cold_ns, warm_ns) = (
        cold.quantile(0.5).unwrap_or(0),
        warm.quantile(0.5).unwrap_or(0),
    );
    out.put(
        "kernel.dense_solve_ms.cold",
        cold_ns as f64 / 1e6,
        "ms",
        cold.len(),
    );
    out.put(
        "kernel.dense_solve_ms.warm",
        warm_ns as f64 / 1e6,
        "ms",
        warm.len(),
    );
    out.put(
        "kernel.row_share",
        1.0 - warm_ns as f64 / cold_ns.max(1) as f64,
        "ratio",
        cold.len(),
    );

    // MonotoneDivide solves and budget MDPs, on the pool and serially.
    let mut mono = Samples::default();
    let mut pool_ns = 0u64;
    let mut serial_ns = 0u64;
    let mut cells = 0u64;
    let mut bytes = 0u64;
    for (problem, eps) in &deadlines {
        let table = TruncationTable::with_eps(problem, *eps);
        let solve = |cfg: &KernelConfig| {
            std::hint::black_box(
                solve_deadline_with_cache(problem, &table, Sweep::MonotoneDivide, cfg, None).ok(),
            );
        };
        let timed = time_calls("bench.kernel.monotone_solve", 3, spans, || solve(&default));
        pool_ns += timed.mean() as u64 * 3;
        mono.extend(&timed);
        serial_ns +=
            time_calls("bench.exec.serial_solve", 3, spans, || solve(&serial)).mean() as u64 * 3;
        let (n, t) = (u64::from(problem.n_tasks) + 1, problem.n_intervals() as u64);
        cells += 3 * n * t;
        // Computed: an f64 value table over T + 1 layers and a u32
        // policy table over T layers, N + 1 states wide.
        bytes += n * ((t + 1) * 8 + t * 4);
    }
    out.put(
        "kernel.monotone_solve_ms.p50",
        mono.quantile(0.5).unwrap_or(0) as f64 / 1e6,
        "ms",
        mono.len(),
    );
    out.put(
        "kernel.cells_per_s",
        cells as f64 / (pool_ns.max(1) as f64 / 1e9),
        "1/s",
        mono.len(),
    );
    out.put(
        "kernel.table_bytes",
        bytes as f64 / deadlines.len() as f64,
        "B",
        deadlines.len(),
    );
    let mut mdp = Samples::default();
    for problem in budget_problems(plan) {
        let timed = time_calls("bench.kernel.budget_mdp", 3, spans, || {
            std::hint::black_box(ft_core::budget::solve_budget_mdp_with(&problem, &default).ok());
        });
        pool_ns += timed.mean() as u64 * 3;
        mdp.extend(&timed);
        serial_ns += time_calls("bench.exec.serial_solve", 3, spans, || {
            std::hint::black_box(ft_core::budget::solve_budget_mdp_with(&problem, &serial).ok());
        })
        .mean() as u64
            * 3;
    }
    out.put(
        "kernel.budget_mdp_ms.p50",
        mdp.quantile(0.5).unwrap_or(0) as f64 / 1e6,
        "ms",
        mdp.len(),
    );
    out.put(
        "exec.serial_over_pool",
        serial_ns as f64 / pool_ns.max(1) as f64,
        "ratio",
        mono.len() + mdp.len(),
    );

    // One fan-out with no work: the executor's dispatch cost.
    let mut data = [0u8; 64];
    let dispatch = time_calls("bench.exec.dispatch", 2000, spans, || {
        ft_exec::par_chunks_mut(&mut data, 1, 0, |_, chunk| {
            std::hint::black_box(chunk);
        });
    });
    out.put(
        "exec.dispatch_us.p50",
        dispatch.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
        dispatch.len(),
    );
}
