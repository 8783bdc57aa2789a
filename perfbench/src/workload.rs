//! The four workloads and the phases every run goes through:
//!
//! 1. **setup** (repeated, outside the window): spawn the serving stack,
//!    register the fleet, solve it;
//! 2. **batch**: rounds of fresh registry → `register` → `solve_many`
//!    over the workload's batch;
//! 3. **serve**: the open-loop request mix against the last setup's
//!    stack (batch and serve alternate four times over the window);
//! 4. **knee**: bisection on the offered price rate.

use crate::fleet::{self, ObservationStream};
use crate::rng::{poisson_schedule, Rng};
use crate::stats::Samples;
use crate::wire::{self, Check, Kind, Mode, Op, Outcome};
use ft_core::registry::{
    CampaignObservation, CampaignPolicy, CampaignRegistry, CampaignSpec, ObservedState,
};
use ft_core::{AdaptiveOptions, CampaignId, KernelConfig};
use ft_metrics::MetricsRegistry;
use ft_router::{Router, RouterConfig, RouterHandle};
use ft_server::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["quote-steady", "recal-storm", "solve-batch", "fleet-quote"];

/// Items in one bulk quote request.
pub const BULK_ITEMS: usize = 16;
/// The price p99 limit behind `knee_rps`. It sits above this host's
/// noise floor (see the README), so a probe fails when the server stops
/// keeping pace, not when the host hiccups.
pub const SLO_NS: u64 = 20_000_000;
/// Knee bisection bounds (offered price requests per second).
pub const KNEE_LO: f64 = 1_024.0;
pub const KNEE_HI: f64 = 131_072.0;
pub const KNEE_STEPS: usize = 7;
/// Shortest knee probe.
pub const KNEE_PROBE_NS: u64 = 400_000_000;
/// Price requests a knee probe needs for its p99 to have ten samples
/// beyond it, with margin.
pub const KNEE_SAMPLES: f64 = 1_200.0;
/// Batch rounds per run, at least: the median needs ten beyond it.
pub const MIN_ROUNDS: usize = 20;
/// How often connection B scrapes `/metrics`.
pub const SCRAPE_EVERY_NS: u64 = 1_000_000_000;
/// Growth of the generator's median lateness, in ns, that counts as
/// falling behind its schedule.
pub const BEHIND_NS: f64 = 200_000.0;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Share of the window spent in the knee phase.
pub const KNEE_SHARE: f64 = 0.2;

/// Everything that defines one workload.
pub struct Plan {
    pub name: &'static str,
    pub seed: u64,
    pub fleet: Vec<CampaignSpec>,
    pub adaptive: AdaptiveOptions,
    /// Two nodes behind an in-process router, or one node served
    /// directly.
    pub routed: bool,
    pub price_rate: f64,
    pub bulk_rate: f64,
    pub observe_rate: f64,
    /// Observations under-deliver to force re-solves.
    pub storm: bool,
    /// Campaigns (from the front of the fleet) one batch round solves.
    pub batch: usize,
    /// Share of the window spent in batch rounds; the serve phase gets
    /// what the batch rounds and the knee leave.
    pub batch_share: f64,
}

/// Registry options under which an observation never triggers a
/// re-solve: the recalibration schedule lies beyond every horizon.
fn no_recalibration() -> AdaptiveOptions {
    AdaptiveOptions {
        resolve_every: 1_000,
        ..AdaptiveOptions::default()
    }
}

impl Plan {
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let mut rng = Rng::new(seed);
        let plan = match name {
            "quote-steady" | "fleet-quote" => Plan {
                name: if name == "quote-steady" {
                    "quote-steady"
                } else {
                    "fleet-quote"
                },
                seed,
                fleet: fleet::marketplace(&mut rng, 240, 60),
                adaptive: no_recalibration(),
                routed: name == "fleet-quote",
                price_rate: if name == "fleet-quote" {
                    1000.0
                } else {
                    2000.0
                },
                bulk_rate: if name == "fleet-quote" { 250.0 } else { 500.0 },
                observe_rate: if name == "fleet-quote" { 250.0 } else { 500.0 },
                storm: false,
                batch: 96,
                batch_share: 0.25,
            },
            "recal-storm" => Plan {
                name: "recal-storm",
                seed,
                fleet: fleet::storm(192, 200, 48),
                // Every third observation re-solves, so the observe p50
                // stays on plain reports and the p99 on re-solves.
                adaptive: AdaptiveOptions {
                    resolve_every: 3,
                    ..AdaptiveOptions::default()
                },
                routed: false,
                price_rate: 2000.0,
                bulk_rate: 500.0,
                // About 50 re-solves a second: enough to keep about half
                // a core busy (`server.observe_busy`, see the README).
                observe_rate: 150.0,
                storm: true,
                batch: 96,
                batch_share: 0.25,
            },
            "solve-batch" => Plan {
                name: "solve-batch",
                seed,
                fleet: fleet::batch(&mut rng, 14, 2),
                adaptive: no_recalibration(),
                routed: false,
                price_rate: 2000.0,
                bulk_rate: 500.0,
                observe_rate: 500.0,
                storm: false,
                batch: 16,
                batch_share: 0.45,
            },
            _ => return None,
        };
        Some(plan)
    }

    pub fn ids(&self) -> Vec<CampaignId> {
        (1..=self.fleet.len() as CampaignId).collect()
    }

    /// A fresh registry with this workload's options, reporting into
    /// `plane`.
    pub fn registry(&self, plane: &Arc<MetricsRegistry>) -> Arc<CampaignRegistry> {
        Arc::new(CampaignRegistry::with_metrics(
            KernelConfig::default(),
            self.adaptive,
            Arc::clone(plane),
        ))
    }

    /// The in-process replica: the same specs under the same ids,
    /// solved outside any window.
    pub fn replica(&self) -> Arc<CampaignRegistry> {
        let r = self.registry(&Arc::new(MetricsRegistry::new()));
        for spec in &self.fleet {
            r.register(spec.clone());
        }
        for (_, solved) in r.solve_many(&self.ids()) {
            solved.expect("replica solve");
        }
        r
    }
}

/// The servers' sizing: the defaults, with a ready-queue deep enough
/// that a host stall of a few hundred milliseconds shows as latency
/// rather than as `503`s (the default 128 overflows after 64 ms at this
/// workload's 2000 req/s).
fn server_config() -> ServerConfig {
    ServerConfig {
        queue_depth: 4096,
        ..ServerConfig::default()
    }
}

/// The program under test, as one setup built it.
pub struct Stack {
    /// Where the generator connects: the router, or the single node.
    pub addr: SocketAddr,
    pub registries: Vec<Arc<CampaignRegistry>>,
    pub planes: Vec<Arc<MetricsRegistry>>,
    servers: Vec<(ServerHandle, JoinHandle<()>)>,
    pub router: Option<(RouterHandle, JoinHandle<()>)>,
}

impl Stack {
    /// Spawn, create and solve: the work `setup_s` times.
    pub fn spawn(plan: &Plan) -> Stack {
        let nodes = if plan.routed { 2 } else { 1 };
        let planes: Vec<_> = (0..nodes)
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect();
        let registries: Vec<_> = planes.iter().map(|p| plan.registry(p)).collect();
        let servers: Vec<_> = registries
            .iter()
            .map(|r| {
                Server::spawn_with("127.0.0.1:0", Arc::clone(r), server_config())
                    .expect("spawn server")
            })
            .collect();
        let ids = plan.ids();
        let (addr, router, owners) = if plan.routed {
            let backends = servers.iter().map(|(h, _)| h.addr()).collect();
            let router = Router::bind("127.0.0.1:0", backends, RouterConfig::default())
                .expect("bind router")
                .spawn()
                .expect("spawn router");
            let owners: Vec<usize> = ids
                .iter()
                .map(|&id| router.0.fleet().owner(id).expect("a live owner"))
                .collect();
            (router.0.addr(), Some(router), owners)
        } else {
            (servers[0].0.addr(), None, vec![0; ids.len()])
        };
        for (node, registry) in registries.iter().enumerate() {
            let mine: Vec<CampaignId> = ids
                .iter()
                .zip(&owners)
                .filter(|(_, &o)| o == node)
                .map(|(&id, _)| id)
                .collect();
            for &id in &mine {
                let spec = plan.fleet[id as usize - 1].clone();
                if plan.routed {
                    registry.register_at(id, spec);
                } else {
                    assert_eq!(registry.register(spec), id, "sequential ids");
                }
            }
            for (id, solved) in registry.solve_many(&mine) {
                solved.unwrap_or_else(|e| panic!("setup solve of campaign {id}: {e}"));
            }
        }
        Stack {
            addr,
            registries,
            planes,
            servers,
            router,
        }
    }

    pub fn shutdown(self) {
        if let Some((handle, join)) = self.router {
            handle.shutdown();
            join.join().expect("router thread");
        }
        for (handle, join) in self.servers {
            handle.shutdown();
            join.join().expect("server thread");
        }
    }
}

/// The request streams of a run, drawn from the seed.
pub struct Inputs {
    rng: Rng,
    observations: ObservationStream,
    /// Every observation scheduled so far: `(campaign index, report)`.
    pub sent_observations: Vec<(usize, CampaignObservation)>,
    /// Whether the program accepted each of them.
    pub applied: Vec<bool>,
    /// Every priced state scheduled so far (singles and bulk items).
    pub priced: Vec<(CampaignId, ObservedState)>,
    replica: Arc<CampaignRegistry>,
    /// Bit-check quotes against the replica (off when recalibrations
    /// move generations during the run).
    check_prices: bool,
}

impl Inputs {
    pub fn new(plan: &Plan, replica: Arc<CampaignRegistry>) -> Self {
        let rng = Rng::new(plan.seed).fork(0x1_4e75);
        Self {
            observations: ObservationStream::new(&rng, &plan.fleet, plan.storm),
            rng,
            sent_observations: Vec::new(),
            applied: Vec::new(),
            priced: Vec::new(),
            replica,
            check_prices: !plan.storm,
        }
    }

    fn state(&self, rng: &mut Rng, plan: &Plan) -> (CampaignId, ObservedState, u64) {
        let c = rng.range(0, plan.fleet.len() as u64 - 1) as usize;
        let id = c as CampaignId + 1;
        let state = fleet::random_state(rng, &plan.fleet[c]);
        let expected = self
            .replica
            .quote(id, state)
            .unwrap_or_else(|e| panic!("generated an unquotable state for campaign {id}: {e}"));
        (id, state, expected.price.to_bits())
    }

    /// Record which of a phase's observations the program accepted.
    pub fn mark_applied(&mut self, ops: &[Op], outcomes: &[Outcome]) {
        for o in outcomes {
            let op = &ops[o.op];
            if op.kind == Kind::Observe && o.ok() {
                self.applied[op.observation] = true;
            }
        }
    }

    /// The ops of one phase: connection A carries price and bulk quotes,
    /// connection B observations, scrapes and (traced) trace exports.
    /// Every `trace_every`-th request of A and B carries `x-ft-trace`.
    pub fn phase(
        &mut self,
        plan: &Plan,
        tag: u64,
        span_ns: u64,
        price_rate: f64,
        trace_every: u64,
    ) -> (Vec<Op>, Vec<Op>) {
        let mut rng = self.rng.fork(tag);
        let mut tracer = 0u64;
        let mut trace_id = |on: bool| {
            tracer += 1;
            if on && trace_every > 0 && tracer.is_multiple_of(trace_every) {
                ft_trace::next_trace_id()
            } else {
                0
            }
        };
        let mut a: Vec<Op> = Vec::new();
        for due in poisson_schedule(&mut rng.fork(1), price_rate, span_ns) {
            let (id, state, bits) = self.state(&mut rng, plan);
            self.priced.push((id, state));
            let t = trace_id(true);
            a.push(Op {
                observation: usize::MAX,
                due_ns: due,
                kind: Kind::Price,
                request: wire::request("GET", &fleet::price_path(id, state), "", t),
                check: if self.check_prices {
                    Check::Price(bits)
                } else {
                    Check::Status
                },
                trace_id: t,
            });
        }
        for due in poisson_schedule(&mut rng.fork(2), plan.bulk_rate, span_ns) {
            let mut items = Vec::with_capacity(BULK_ITEMS);
            let mut bits = Vec::with_capacity(BULK_ITEMS);
            for _ in 0..BULK_ITEMS {
                let (id, state, b) = self.state(&mut rng, plan);
                self.priced.push((id, state));
                items.push(fleet::quote_item(id, state));
                bits.push(b);
            }
            let body = format!("{{\"quotes\":[{}]}}", items.join(","));
            let t = trace_id(true);
            a.push(Op {
                observation: usize::MAX,
                due_ns: due,
                kind: Kind::Bulk,
                request: wire::request("POST", "/campaigns/quotes", &body, t),
                check: if self.check_prices {
                    Check::Bulk(bits)
                } else {
                    Check::Status
                },
                trace_id: t,
            });
        }
        a.sort_by_key(|op| op.due_ns);

        let mut b: Vec<Op> = Vec::new();
        for due in poisson_schedule(&mut rng.fork(3), plan.observe_rate, span_ns) {
            let Some((c, obs)) = self.observations.next(&plan.fleet) else {
                break;
            };
            self.sent_observations.push((c, obs));
            self.applied.push(false);
            let t = trace_id(true);
            b.push(Op {
                observation: self.sent_observations.len() - 1,
                due_ns: due,
                kind: Kind::Observe,
                request: wire::request(
                    "POST",
                    &format!("/campaigns/{}/observations", c + 1),
                    &fleet::observation_body(&obs),
                    t,
                ),
                check: Check::Observe,
                trace_id: t,
            });
        }
        let mut due = SCRAPE_EVERY_NS / 2;
        while due < span_ns {
            b.push(Op {
                due_ns: due,
                observation: usize::MAX,
                kind: Kind::Scrape,
                request: wire::request("GET", "/metrics", "", 0),
                check: Check::Status,
                trace_id: 0,
            });
            due += SCRAPE_EVERY_NS;
        }
        if trace_every > 0 {
            // The trace store keeps the newest 256 traces; export often
            // enough that none roll off between exports.
            let mut due = 250_000_000;
            while due < span_ns + 250_000_000 {
                b.push(Op {
                    due_ns: due.min(span_ns),
                    observation: usize::MAX,
                    kind: Kind::TraceExport,
                    request: wire::request("GET", "/trace/export", "", 0),
                    check: Check::Keep,
                    trace_id: 0,
                });
                due += 250_000_000;
            }
        }
        b.sort_by_key(|op| op.due_ns);
        (a, b)
    }
}

/// One phase's outcomes on connections A and B, and the CPU time the
/// two generator threads spent driving them.
pub struct PhaseOutcome {
    pub a: Vec<Outcome>,
    pub b: Vec<Outcome>,
    pub generator_cpu_ns: u64,
}

/// Run one phase: connection A on this thread, B on one more.
pub fn run_phase(addr: SocketAddr, a: &[Op], b: &[Op], mode_a: Mode, mode_b: Mode) -> PhaseOutcome {
    let start = ft_trace::now_ns() + 2_000_000;
    std::thread::scope(|s| {
        let conn_b = s.spawn(|| wire::drive(addr, b, start, mode_b));
        let (a, cpu_a) = wire::drive(addr, a, start, mode_a);
        let (b, cpu_b) = conn_b.join().expect("connection B thread");
        PhaseOutcome {
            a,
            b,
            generator_cpu_ns: cpu_a + cpu_b,
        }
    })
}

/// Client-side accounting of one or more phases.
#[derive(Default)]
pub struct Tally {
    pub price: Samples,
    pub price_rtt: Samples,
    pub bulk: Samples,
    pub observe: Samples,
    pub observe_plain: Samples,
    pub observe_recal: Samples,
    pub scrape: Samples,
    pub late: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub incorrect: u64,
    pub recalibrated: u64,
    /// Requests the program answered, by kind: price, bulk, observe,
    /// scrape.
    pub answered: [u64; 4],
    /// Requests sent whose answer never came (a dropped connection):
    /// the program may or may not have counted them.
    pub unanswered: u64,
    /// `(scheduled, lateness)` of every send, for the growth check.
    pub sends: Vec<(u64, u64)>,
}

impl Tally {
    /// Count a phase's outcomes. Requests a knee probe never sent are
    /// not attempted; everywhere else an unsent request failed.
    pub fn add(&mut self, ops: &[Op], outcomes: &[Outcome], probe: bool) {
        for o in outcomes {
            let op = &ops[o.op];
            if op.kind == Kind::TraceExport || (probe && !o.sent) {
                continue;
            }
            self.attempted += 1;
            // The reactor answers a full ready-queue with 503 before any
            // handler runs, so the program counts no request for it.
            if o.status != 0 && o.status != 503 {
                self.answered[match op.kind {
                    Kind::Price => 0,
                    Kind::Bulk => 1,
                    Kind::Observe => 2,
                    _ => 3,
                }] += 1;
            }
            if o.sent && o.status == 0 {
                self.unanswered += 1;
            }
            if o.status != 0 {
                self.late.push(o.late_ns());
                self.sends.push((o.due_ns, o.late_ns()));
            }
            if !o.ok() {
                self.failed += 1;
                if o.status == 503 {
                    self.rejected += 1;
                } else if (200..300).contains(&o.status) {
                    self.incorrect += 1;
                }
                continue;
            }
            match op.kind {
                Kind::Price => {
                    self.price.push(o.latency_ns());
                    self.price_rtt.push(o.rtt_ns());
                }
                Kind::Bulk => self.bulk.push(o.latency_ns()),
                Kind::Observe => {
                    self.observe.push(o.latency_ns());
                    if o.recalibrated {
                        self.recalibrated += 1;
                        self.observe_recal.push(o.latency_ns());
                    } else {
                        self.observe_plain.push(o.latency_ns());
                    }
                }
                Kind::Scrape => self.scrape.push(o.latency_ns()),
                Kind::TraceExport => {}
            }
        }
    }

    /// Requests the program answered, all kinds.
    pub fn answered_total(&self) -> u64 {
        self.answered.iter().sum()
    }

    /// Median lateness of the first and of the last fifth of the sends
    /// from index `from` on (medians, so a short host stall does not read
    /// as a growing backlog).
    pub fn late_head_tail(&self, from: usize) -> (f64, f64) {
        let mut sends = self.sends[from..].to_vec();
        sends.sort_unstable();
        let fifth = sends.len() / 5;
        if fifth == 0 {
            return (0.0, 0.0);
        }
        let median = |s: &[(u64, u64)]| {
            let mut l: Vec<u64> = s.iter().map(|&(_, l)| l).collect();
            l.sort_unstable();
            l[l.len() / 2] as f64
        };
        (
            median(&sends[..fifth]),
            median(&sends[sends.len() - fifth..]),
        )
    }

    /// Fold in what another tally's requests did to the program
    /// (answers by kind, recalibrations), for the count checks.
    pub fn answered_from(&mut self, other: &Tally) {
        self.recalibrated += other.recalibrated;
        self.unanswered += other.unanswered;
        for (mine, theirs) in self.answered.iter_mut().zip(other.answered) {
            *mine += theirs;
        }
    }

    /// Fold another tally's counts into this one (its latencies stay out
    /// of this tally's percentiles).
    pub fn merge_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.incorrect += other.incorrect;
        self.answered_from(other);
    }

    /// The generator ran behind its schedule over the sends from index
    /// `from` on: its median lateness grew by more than 0.2 ms.
    pub fn fell_behind(&self, from: usize) -> bool {
        let (head, tail) = self.late_head_tail(from);
        tail > head + BEHIND_NS
    }
}

/// One knee probe: whether the offered rate met the limit.
#[derive(Debug, Clone)]
pub struct Probe {
    pub rate: f64,
    pub price_p99_ns: u64,
    pub samples: usize,
    pub pass: bool,
}

/// Bisect the offered rate between the fixed bounds in log space:
/// `probe(rate)` says whether `rate` meets the limit. Returns the
/// highest passing rate seen (the lower bound when none passed).
pub fn bisect(lo: f64, hi: f64, steps: usize, mut probe: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (lo.ln(), hi.ln());
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if probe(mid.exp()) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo.exp()
}

/// The knee from the probes: the bisection's highest passing rate,
/// refined by interpolating log p99 against log rate up to the limit
/// when the next probe above it failed with a measured p99.
pub fn knee(probes: &[Probe]) -> f64 {
    let best = probes
        .iter()
        .filter(|p| p.pass)
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(best) = best else {
        return KNEE_LO;
    };
    let above = probes
        .iter()
        .filter(|p| !p.pass && p.rate > best.rate && p.price_p99_ns != u64::MAX)
        .min_by(|a, b| a.rate.total_cmp(&b.rate));
    match above {
        Some(f) if f.price_p99_ns > best.price_p99_ns => {
            let (lp, lf) = (
                (best.price_p99_ns.max(1) as f64).ln(),
                (f.price_p99_ns as f64).ln(),
            );
            let frac = (((SLO_NS as f64).ln() - lp) / (lf - lp)).clamp(0.0, 1.0);
            (best.rate.ln() + frac * (f.rate.ln() - best.rate.ln())).exp()
        }
        _ => best.rate,
    }
}

/// Wall time of one batch round: fresh registry, register the fleet,
/// `solve_many`. Returns the round's seconds and, per campaign, the
/// bits of its policy's objective.
pub fn batch_round(plan: &Plan, plane: &Arc<MetricsRegistry>) -> (f64, Vec<u64>) {
    let started = Instant::now();
    let registry = plan.registry(plane);
    let ids: Vec<CampaignId> = plan.fleet[..plan.batch]
        .iter()
        .map(|s| registry.register(s.clone()))
        .collect();
    let solved = registry.solve_many(&ids);
    let secs = started.elapsed().as_secs_f64();
    let objectives = solved
        .into_iter()
        .map(|(id, r)| {
            let generation = r.unwrap_or_else(|e| panic!("batch solve of campaign {id}: {e}"));
            objective_bits(&generation.policy)
        })
        .collect();
    (secs, objectives)
}

/// The objective a solved policy promises, as bits: expected total cost
/// (deadline) or expected arrivals to finish (budget).
pub fn objective_bits(policy: &CampaignPolicy) -> u64 {
    match policy {
        CampaignPolicy::Deadline(p) => p.expected_total_cost().to_bits(),
        CampaignPolicy::Budget(p) => p.expected_arrivals().to_bits(),
    }
}

/// Reference objectives from single-threaded solves of the same specs.
pub fn serial_objectives(plan: &Plan) -> Vec<u64> {
    let registry = Arc::new(CampaignRegistry::with_metrics(
        KernelConfig::serial(),
        plan.adaptive,
        Arc::new(MetricsRegistry::new()),
    ));
    plan.fleet[..plan.batch]
        .iter()
        .map(|spec| {
            let id = registry.register(spec.clone());
            let generation = registry.solve(id).expect("serial reference solve");
            objective_bits(&generation.policy)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(ops: &[Op]) -> Vec<(u64, Vec<u8>)> {
        ops.iter()
            .map(|op| (op.due_ns, op.request.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let run = |seed: u64| {
            let plan = Plan::new("quote-steady", seed).unwrap();
            let mut inputs = Inputs::new(&plan, plan.replica());
            let (a, b) = inputs.phase(&plan, 7, 200_000_000, 2000.0, 0);
            (digest(&a), digest(&b), format!("{:?}", plan.fleet))
        };
        let first = run(11);
        assert!(!first.0.is_empty() && !first.1.is_empty());
        assert_eq!(first, run(11), "same seed must give identical inputs");
        let other = run(12);
        assert_ne!(first.0, other.0);
        assert_ne!(first.1, other.1);
        assert_ne!(first.2, other.2);
    }

    #[test]
    fn knee_bisection_is_monotone_in_capacity() {
        // Synthetic latency curve: p99 = base / (1 - rate / capacity),
        // unbounded past capacity. More capacity must never lower the
        // knee, and the knee never passes capacity.
        let knee_of = |capacity: f64| {
            let mut probes = Vec::new();
            bisect(KNEE_LO, KNEE_HI, KNEE_STEPS, |rate| {
                let rho = rate / capacity;
                let p99 = if rho < 1.0 {
                    (2_000_000.0 / (1.0 - rho)) as u64
                } else {
                    u64::MAX
                };
                let pass = p99 <= SLO_NS;
                probes.push(Probe {
                    rate,
                    price_p99_ns: p99,
                    samples: 2000,
                    pass,
                });
                pass
            });
            knee(&probes)
        };
        let mut last = 0.0;
        for capacity in [
            2_000.0, 5_000.0, 12_000.0, 30_000.0, 70_000.0, 150_000.0, 400_000.0,
        ] {
            let k = knee_of(capacity);
            assert!(
                k >= last,
                "knee fell from {last} to {k} at capacity {capacity}"
            );
            assert!(k <= capacity, "knee {k} above capacity {capacity}");
            last = k;
        }
        assert_eq!(knee_of(100.0), KNEE_LO, "nothing passes: the lower bound");
    }
}
