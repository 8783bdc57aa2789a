//! The traced run's spans: the benchmark's own (one per tagged request,
//! with the generator's lateness as a child, and one per probe call)
//! joined with the program's span trees from `GET /trace/export`, then
//! summarised as a per-layer table and written out as Chrome
//! trace-event JSON.

use crate::wire::{Kind, Op, Outcome};
use crate::workload::Plan;
use serde::{map_get, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Thread id given to the benchmark's own spans.
const BENCH_TID: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub tid: u64,
}

impl Span {
    /// A root span of the benchmark's own.
    pub fn bench(name: &str, start: u64, end: u64) -> Self {
        Self {
            trace: 0,
            id: 1,
            parent: 0,
            name: name.to_string(),
            start,
            end,
            tid: BENCH_TID,
        }
    }

    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
pub struct TracedRun {
    /// Tagged requests: `(kind, client span, lateness span)`.
    pub client: Vec<(&'static str, Span, Span)>,
    /// `GET /trace/export` bodies.
    pub exports: Vec<String>,
    /// Probe calls into single layers.
    pub probes: Vec<Span>,
}

fn kind_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Price => "price",
        Kind::Bulk => "bulk_quotes",
        Kind::Observe => "observe",
        Kind::Scrape => "scrape",
        Kind::TraceExport => "trace_export",
    }
}

impl TracedRun {
    pub fn record_requests(&mut self, ops: &[Op], outcomes: &[Outcome]) {
        for o in outcomes {
            let op = &ops[o.op];
            if op.kind == Kind::TraceExport {
                if let Some(body) = &o.body {
                    self.exports.push(body.clone());
                }
                continue;
            }
            if op.trace_id == 0 || !o.ok() {
                continue;
            }
            let label = kind_label(op.kind);
            let mut client = Span::bench("bench.client.request", o.due_ns, o.done_ns);
            client.trace = op.trace_id;
            let mut late = Span::bench("bench.gen.late", o.due_ns, o.sent_ns);
            late.trace = op.trace_id;
            late.id = 2;
            late.parent = 1;
            self.client.push((label, client, late));
        }
    }

    /// The program's spans for the tagged requests, deduplicated
    /// across exports.
    fn program_spans(&self, wanted: &HashSet<u64>) -> Vec<Span> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for body in &self.exports {
            let Ok(doc) = serde_json::from_str::<Value>(body) else {
                continue;
            };
            let Some(events) = doc
                .as_map()
                .and_then(|m| map_get(m, "traceEvents").ok())
                .and_then(Value::as_seq)
            else {
                continue;
            };
            for e in events {
                let Some(m) = e.as_map() else { continue };
                let get = |k: &str| map_get(m, k).ok();
                let args = get("args").and_then(Value::as_map);
                let arg = |k: &str| args.and_then(|a| map_get(a, k).ok());
                let Some(trace) = arg("trace_id")
                    .and_then(Value::as_str)
                    .and_then(ft_trace::parse_trace_id)
                else {
                    continue;
                };
                if !wanted.contains(&trace) {
                    continue;
                }
                let num = |v: Option<&Value>| v.and_then(Value::as_num).unwrap_or(0.0);
                let span = Span {
                    trace,
                    id: num(arg("span_id")) as u64,
                    parent: num(arg("parent_id")) as u64,
                    name: get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    start: (num(get("ts")) * 1e3).round() as u64,
                    end: ((num(get("ts")) + num(get("dur"))) * 1e3).round() as u64,
                    tid: num(get("tid")) as u64,
                };
                if seen.insert((span.trace, span.tid, span.id)) {
                    out.push(span);
                }
            }
        }
        out
    }
}

/// Measure of the union of `children` clipped to `[start, end)`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per span name within one request kind: durations and self times.
#[derive(Default)]
struct Row {
    dur: Vec<u64>,
    self_ns: Vec<u64>,
}

fn pct(v: &mut [u64], q: f64) -> f64 {
    v.sort_unstable();
    crate::stats::exact_quantile(v, q).unwrap_or(0) as f64 / 1e3
}

/// Print the per-layer table and write every span as Chrome trace-event
/// JSON under `perfbench/out/`.
pub fn table_and_export(plan: &Plan, seed: u64, run: &TracedRun) {
    let wanted: HashSet<u64> = run.client.iter().map(|(_, c, _)| c.trace).collect();
    let program = run.program_spans(&wanted);
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &program {
        by_trace.entry(s.trace).or_default().push(s);
    }
    // kind → span name → row; kind → total client time.
    let mut rows: BTreeMap<(&str, String), Row> = BTreeMap::new();
    let mut totals: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (kind, client, late) in &run.client {
        let Some(segment_spans) = by_trace.get(&client.trace) else {
            continue;
        };
        // Each thread's spans of a trace form one segment (a trace is
        // thread-local inside the program). Segment roots hang under
        // the router's root when the request crossed the router, else
        // under the client span.
        let router_root = segment_spans
            .iter()
            .find(|s| s.parent == 0 && s.name.starts_with("router."))
            .map(|s| (s.tid, s.id));
        let parent_of = |s: &Span| -> (u64, u64) {
            if s.parent != 0 {
                (s.tid, s.parent)
            } else if s.name.starts_with("router.") {
                (BENCH_TID, 1)
            } else {
                router_root.unwrap_or((BENCH_TID, 1))
            }
        };
        let mut nodes: Vec<&Span> = vec![client, late];
        nodes.extend(segment_spans.iter().copied());
        let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
        children
            .entry((BENCH_TID, 1))
            .or_default()
            .push((late.start, late.end));
        for s in segment_spans {
            children
                .entry(parent_of(s))
                .or_default()
                .push((s.start, s.end));
        }
        for node in nodes {
            let mut kids = children
                .get(&(node.tid, node.id))
                .cloned()
                .unwrap_or_default();
            let self_ns = node.dur() - covered(node.start, node.end, &mut kids).min(node.dur());
            let row = rows.entry((kind, node.name.clone())).or_default();
            row.dur.push(node.dur());
            row.self_ns.push(self_ns);
        }
        let t = totals.entry(kind).or_default();
        t.0 += client.dur();
        t.1 += 1;
    }
    println!(
        "# per-layer table: {} seed {seed} (traced requests only; times in us)",
        plan.name
    );
    println!(
        "# {:<12} {:<34} {:>6} {:>10} {:>10} {:>10} {:>7}",
        "request", "layer (span)", "n", "p50", "p99", "self p50", "share"
    );
    for ((kind, name), row) in rows.iter_mut() {
        let (total, _) = totals[kind];
        let share = row.self_ns.iter().sum::<u64>() as f64 / total.max(1) as f64;
        let n = row.dur.len();
        println!(
            "# {:<12} {:<34} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%",
            kind,
            name,
            n,
            pct(&mut row.dur, 0.5),
            pct(&mut row.dur, 0.99),
            pct(&mut row.self_ns, 0.5),
            100.0 * share
        );
    }
    let mut probe_rows: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for p in &run.probes {
        probe_rows.entry(&p.name).or_default().push(p.dur());
    }
    for (name, durs) in probe_rows.iter_mut() {
        let n = durs.len();
        println!(
            "# {:<12} {:<34} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>7}",
            "probe",
            name,
            n,
            pct(durs, 0.5),
            pct(durs, 0.99),
            pct(durs, 0.5),
            "-"
        );
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{seed}.json", plan.name);
    let mut doc = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let all = run
        .client
        .iter()
        .flat_map(|(_, c, l)| [c, l])
        .chain(&program)
        .chain(&run.probes);
    for (i, s) in all.enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let (pid, tid) = if s.tid == BENCH_TID {
            (2, 0)
        } else {
            (1, s.tid)
        };
        doc.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"ft\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.trace,
            s.id,
            s.parent
        ));
    }
    doc.push_str("]}");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => println!("# could not write {path}: {e}"),
    }
}
