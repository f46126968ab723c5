//! One benchmark run: set-up, interleaved measurement rounds, metrics.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics. A
//! traced run reports the per-layer ledger: counter deltas over the
//! measured phases and self times of the bench-side spans.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::counters::{peak_rss_mb, proc_stats, Counters, TICKS_PER_SEC};
use crate::loadgen::{Driver, Open, Tally, KIND_GET, KIND_SET};
use crate::stack::Net;
use crate::stats::{median, percentile, ratio, tail};
use crate::trace::{self_times, write_json, SpanLog};
use crate::workloads::{build, Built, Workload, DEADLINE, WINDOW};

/// Measurement rounds per run. Each round builds a fresh stack (so thread
/// placement is drawn anew), measures every phase once and tears the
/// stack down; metrics are medians over rounds.
pub const ROUNDS: usize = 30;
/// Rounds per SLO search: one round in this many runs a search, with this
/// many rounds' share of the time, so each probe stays long enough.
pub const SLO_EVERY: usize = 3;
/// Bisection steps of one SLO search.
pub const SLO_STEPS: usize = 6;
/// Parts each SLO probe is split into.
pub const SLO_PARTS: usize = 5;
/// Closed-loop samples per round: enough for a p99 with ten beyond it.
pub const TAIL_SAMPLES: usize = 1000;
/// Calls traced per round of a traced run (bounds the span file).
pub const TRACED_CALLS: usize = 200;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value is taken over (sample count, ratio base, ...).
    pub basis: String,
}

/// A finished run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Calls attempted, every phase.
    pub attempted: u64,
    /// Calls failed, every phase.
    pub failed: u64,
    /// No reply was wrong and no request arrived corrupted.
    pub correct: bool,
    /// Run metadata as `key=value` pairs.
    pub meta: Vec<(String, String)>,
}

impl Report {
    fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                basis: basis.into(),
            },
        );
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Sorted copy of `v`.
fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The git commit of the source tree, read from `.git` without running
/// git; "unknown" outside a repository.
fn git_sha() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(root.join("HEAD")) else {
        return "unknown".to_string();
    };
    let sha = match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(root.join(r)).or_else(|| {
            read(root.join("packed-refs")).and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        }),
    };
    sha.map_or_else(|| "unknown".to_string(), |s| s.chars().take(12).collect())
}

fn metadata(w: &Workload, args: &Args, fabric: &str) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("workload".into(), w.name.into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("git_sha".into(), git_sha()),
        ("fabric".into(), fabric.into()),
        ("window".into(), WINDOW.to_string()),
        (
            "max_batch".into(),
            dagger_types::config::MAX_BATCH.to_string(),
        ),
        ("auto_batch".into(), "true".into()),
        ("offered_rps".into(), w.offered_rps.to_string()),
        ("limit_us".into(), w.limit_us.to_string()),
        ("deadline_ms".into(), DEADLINE.as_millis().to_string()),
    ]
}

/// How far an open-loop probe, run as consecutive parts at one rate, is
/// from the workload's SLO: the larger of the median part's p99 latency
/// (from due time) over the limit and 0.95 over the median part's
/// completion rate per offered rate (a growing backlog). At most 1 when
/// the probe meets the SLO; infinite when a call failed. Judging the median
/// part keeps one host scheduling stall from failing a whole probe.
pub fn slo_score(parts: &[Open], limit_us: f64) -> f64 {
    if parts
        .iter()
        .any(|o| o.failed > 0 || o.latency_ns.is_empty())
    {
        return f64::INFINITY;
    }
    let p99: Vec<f64> = parts
        .iter()
        .map(|o| {
            let lat = sorted(o.latency_ns.clone());
            us(tail(&lat, 99.0).map_or(lat[lat.len() - 1], |t| t.value) as f64)
        })
        .collect();
    let kept_up: Vec<f64> = parts.iter().map(Open::achieved_over_offered).collect();
    (median(&p99) / limit_us).max(0.95 / median(&kept_up))
}

/// Bisects the offered rate in log space over the workload's range, then
/// places the result inside the final bracket where the score, taken as
/// linear in log rate between the bracket's two probes, crosses 1.
fn slo_search(d: &mut Driver, w: &Workload, budget: Duration) -> f64 {
    let part = budget / (SLO_STEPS * SLO_PARTS) as u32;
    let (mut lo, mut hi) = w.slo_range;
    let (mut at_lo, mut at_hi) = (None, None);
    for _ in 0..SLO_STEPS {
        let mid = (lo * hi).sqrt();
        let parts: Vec<Open> = (0..SLO_PARTS).map(|_| d.open(mid, part, WINDOW)).collect();
        let score = slo_score(&parts, w.limit_us);
        if score <= 1.0 {
            (lo, at_lo) = (mid, Some(score));
        } else {
            (hi, at_hi) = (mid, Some(score));
        }
    }
    match (at_lo, at_hi) {
        (Some(a), Some(b)) if a > 0.0 && b.is_finite() => {
            let t = -a.ln() / (b.ln() - a.ln());
            lo * (hi / lo).powf(t.clamp(0.0, 1.0))
        }
        _ => (lo * hi).sqrt(),
    }
}

/// Runs one workload and returns its report; `out_dir` receives the span
/// file of a traced run.
///
/// # Errors
///
/// Returns a message when set-up fails or a required counter is missing.
pub fn run(args: &Args, out_dir: Option<PathBuf>) -> Result<Report, String> {
    let w = crate::workloads::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if args.trace {
        traced(w, args, out_dir)
    } else {
        untraced(w, args)
    }
}

fn split(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share / ROUNDS as f64)
}

/// Builds the workload, timing the build and reading the peak resident
/// set right after it, and warms the stack up (connection caches, buffer
/// pools, reassembly maps).
fn start_round(
    w: &Workload,
    args: &Args,
    log: Option<Arc<SpanLog>>,
) -> Result<(Built, Driver, f64, f64), String> {
    let t0 = std::time::Instant::now();
    let (built, service) = build(w, args.seed, log)?;
    let setup = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;
    let mut d = Driver::new(Arc::clone(&built.stack.client), service, DEADLINE);
    d.window(Duration::from_millis(50), WINDOW);
    d.closed(Duration::from_millis(10), None, usize::MAX);
    Ok((built, d, setup, rss))
}

/// A closed-loop phase of `dur` that runs on, if it must, until it has
/// [`TAIL_SAMPLES`] successful calls, so the round has a p99.
fn closed_with_tail(d: &mut Driver, dur: Duration) -> Vec<(u8, u64)> {
    let mut c = d.closed(dur, None, usize::MAX);
    for _ in 0..10 {
        if c.len() >= TAIL_SAMPLES {
            break;
        }
        let more = TAIL_SAMPLES - c.len();
        c.extend(d.closed(dur, None, more));
    }
    c
}

fn untraced(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut tally = Tally::default();
    let mut handler_errors = 0;
    let mut fabric = String::new();
    let (mut p50, mut tput, mut goodput) = (vec![], vec![], vec![]);
    let (mut lp50, mut slo, mut cpu) = (vec![], vec![], vec![]);
    let (mut n_rtt, mut n_load) = (0usize, 0usize);
    let mut rss = None;
    for round in 0..ROUNDS {
        let (built, mut d, setup, peak) = start_round(w, args, None)?;
        setups.push(setup);
        fabric.clone_from(&built.fabric);
        rss.get_or_insert(peak);

        let c = d.closed(split(args, 0.2), None, usize::MAX);
        let rtt = sorted(c.iter().map(|&(_, r)| r).collect());
        if !rtt.is_empty() {
            n_rtt += rtt.len();
            p50.push(us(percentile(&rtt, 50.0) as f64));
        }

        let before = proc_stats()?;
        let win = d.window(split(args, 0.2), WINDOW);
        let after = proc_stats()?;
        let secs = win.elapsed.as_secs_f64();
        tput.push(win.completed as f64 / secs);
        goodput.push(win.bytes as f64 * 8.0 / secs / 1e6);
        let cpu_us = (after.cpu_ticks - before.cpu_ticks) as f64 * 1e6 / TICKS_PER_SEC as f64;
        cpu.push(cpu_us / win.completed.max(1) as f64);

        let o = d.open(w.offered_rps, split(args, 0.25), WINDOW);
        let lat = sorted(o.latency_ns.clone());
        if !lat.is_empty() {
            n_load += lat.len();
            lp50.push(us(percentile(&lat, 50.0) as f64));
        }

        if round % SLO_EVERY == 0 {
            slo.push(slo_search(&mut d, w, split(args, 0.35) * SLO_EVERY as u32));
        }
        tally.add(&d.tally);
        handler_errors += built.stack.server.stats().handler_errors;
        built.stack.stop();
    }

    let mut r = Report {
        attempted: tally.attempted,
        failed: tally.failed(),
        correct: tally.incorrect() == 0 && handler_errors == 0,
        meta: metadata(w, args, &fabric),
        ..Report::default()
    };
    let rounds = format!("median of {ROUNDS} rounds");
    r.put(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {ROUNDS} set-ups"),
    );
    r.put(
        "rtt_p50_us",
        median(&p50),
        "us",
        format!("{rounds}, {n_rtt} calls"),
    );
    r.put(
        "throughput_rps",
        median(&tput),
        "1/s",
        format!("{rounds}, window {WINDOW}"),
    );
    r.put(
        "goodput_mbps",
        median(&goodput),
        "Mbit/s",
        format!("{rounds}, window {WINDOW}"),
    );
    r.put(
        "load_p50_us",
        median(&lp50),
        "us",
        format!("{rounds}, {n_load} calls at {} 1/s", w.offered_rps),
    );
    r.put(
        "slo_rate_rps",
        median(&slo),
        "1/s",
        format!(
            "median of {} searches, median-part p99 <= {} us, {SLO_STEPS}-step bisection",
            slo.len(),
            w.limit_us
        ),
    );
    r.put(
        "ok_permille",
        1000.0 * ratio(tally.ok, tally.attempted),
        "permille",
        format!("{} of {} calls", tally.ok, tally.attempted),
    );
    r.put(
        "cpu_us_per_call",
        median(&cpu),
        "us",
        format!("{rounds}, window phase"),
    );
    r.put(
        "rss_mb",
        rss.unwrap_or(0.0),
        "MiB",
        "peak resident set through the first set-up",
    );
    Ok(r)
}

fn traced(w: &Workload, args: &Args, out_dir: Option<PathBuf>) -> Result<Report, String> {
    let log = Arc::new(SpanLog::new());
    let mut tally = Tally::default();
    let mut ledger = Counters::default();
    let (mut found, mut looked) = (0, 0);
    let (mut plain, mut traced_rtts) = (Vec::new(), Vec::new());
    let (mut late, mut achieved, mut lp99, mut p99) = (vec![], vec![], vec![], vec![]);
    let (mut fabric, mut reliable, mut udp) = (String::new(), false, false);
    for _ in 0..ROUNDS {
        let (built, mut d, _, _) = start_round(w, args, Some(Arc::clone(&log)))?;
        fabric.clone_from(&built.fabric);
        reliable = built.stack.reliable;
        udp = matches!(built.stack.net, Net::Udp(_));
        let (t0, f0) = (d.tally, d.found());
        let c0 = Counters::read(&built.stack)?;

        let c = closed_with_tail(&mut d, split(args, 0.15));
        let rtt = sorted(c.iter().map(|&(_, r)| r).collect());
        if let Some(t) = tail(&rtt, 99.0) {
            p99.push(us(t.value as f64));
        }
        plain.extend(c);
        let t = d.closed(
            split(args, 0.15),
            Some((&log, &built.server_probe)),
            TRACED_CALLS,
        );
        traced_rtts.extend(t.iter().map(|&(_, r)| r));
        d.window(split(args, 0.35), WINDOW);
        let o = d.open(w.offered_rps, split(args, 0.35), WINDOW);
        if !o.late_ns.is_empty() {
            let l = sorted(o.late_ns.clone());
            late.push(us(tail(&l, 99.0).map_or(l[l.len() - 1], |t| t.value) as f64));
        }
        achieved.push(o.achieved_over_offered());
        let lat = sorted(o.latency_ns.clone());
        if let Some(t) = tail(&lat, 99.0) {
            lp99.push(us(t.value as f64));
        }

        ledger.add(&Counters::read(&built.stack)?.since(&c0));
        tally.add(&d.tally.since(&t0));
        let f1 = d.found();
        found += f1.0 - f0.0;
        looked += f1.1 - f0.1;
        built.stack.stop();
    }
    let spans = log.spans();
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{}.json", w.name));
        write_json(&spans, &metadata(w, args, &fabric), &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let c = |name: &str| ledger.get(name);
    // Counters of a layer the stack does not run are 0 by construction;
    // those of a layer it runs must have been read.
    let when = |on: bool, name: &str| if on { ledger.get(name) } else { Ok(0) };
    let calls = tally.ok;
    let mut r = Report {
        attempted: tally.attempted,
        failed: tally.failed(),
        correct: tally.incorrect() == 0 && c("server.handler_errors")? == 0,
        meta: metadata(w, args, &fabric),
        ..Report::default()
    };
    let per_call = |n: u64| ratio(n, calls);
    let base_calls = format!("per call, {calls} calls");

    // rpc: spans of the traced closed loop, counters of every phase.
    let selfs = self_times(&spans);
    let durations = |name: &str| -> Vec<u64> {
        sorted(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration())
                .collect(),
        )
    };
    let med_us = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            us(percentile(v, 50.0) as f64)
        }
    };
    let issue = durations("rpc.issue");
    let handler = durations("rpc.handler");
    let below = sorted(selfs.get("rpc.wait").cloned().unwrap_or_default());
    r.put(
        "rpc.rtt_p99_us",
        median(&p99),
        "us",
        format!("untraced closed loop, median of {ROUNDS} rounds"),
    );
    r.put(
        "rpc.issue_us",
        med_us(&issue),
        "us",
        format!("p50 of {} spans", issue.len()),
    );
    r.put(
        "rpc.handler_us",
        med_us(&handler),
        "us",
        format!("p50 of {} spans", handler.len()),
    );
    r.put(
        "rpc.below_us",
        med_us(&below),
        "us",
        format!("p50 self time of {} wait spans", below.len()),
    );
    let frames = c("nic.tx_frames")?;
    r.put(
        "rpc.frames_per_call",
        per_call(frames),
        "frames/call",
        &base_calls,
    );
    r.put(
        "rpc.timeouts",
        tally.timeouts as f64,
        "count",
        "calls past deadline",
    );
    r.put(
        "rpc.handler_errors",
        c("server.handler_errors")? as f64,
        "count",
        "server stats",
    );

    // idl: serde spans around to_wire / from_wire.
    for (metric, name) in [
        ("idl.encode_ns_per_kb", "idl.encode"),
        ("idl.decode_ns_per_kb", "idl.decode"),
    ] {
        let (ns, bytes) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, b), s| (n + s.duration(), b + s.bytes));
        r.put(
            metric,
            ratio(ns * 1024, bytes),
            "ns/KiB",
            format!("{bytes} bytes"),
        );
    }

    // nic: both NICs' monitors and gauges.
    let datagrams = c("nic.tx_datagrams")?;
    r.put(
        "nic.frames_per_datagram",
        ratio(frames, datagrams),
        "frames",
        format!("{datagrams} datagrams"),
    );
    for name in [
        "nic.rx_ring_drops",
        "nic.reqbuf_backpressure",
        "nic.tx_window_deferrals",
    ] {
        r.put(name, c(name)? as f64, "count", "both NICs");
    }
    let (ph, pm) = (c("nic.pool.hits")?, c("nic.pool.misses")?);
    r.put(
        "nic.pool_miss_ratio",
        ratio(pm, ph + pm),
        "ratio",
        format!("{} buffer takes", ph + pm),
    );
    let (ch, cm) = (c("nic.conncache.hits")?, c("nic.conncache.misses")?);
    r.put(
        "nic.conncache_hit_ratio",
        ratio(ch, ch + cm),
        "ratio",
        format!("{} lookups", ch + cm),
    );
    let (cached, direct) = (c("nic.cached_polls")?, c("nic.direct_polls")?);
    r.put(
        "nic.cached_poll_ratio",
        ratio(cached, cached + direct),
        "ratio",
        format!("{} polls", cached + direct),
    );

    // reliable: gauges exist only when the transport is on.
    let retx = when(reliable, "nic.reliable.retransmissions")?;
    r.put(
        "reliable.retransmissions",
        retx as f64,
        "count",
        "both NICs",
    );
    r.put(
        "reliable.retransmit_ratio",
        ratio(retx, datagrams),
        "ratio",
        format!("{datagrams} tx datagrams"),
    );
    for (metric, name) in [
        ("reliable.duplicate_drops", "nic.reliable.duplicate_drops"),
        (
            "reliable.out_of_order_drops",
            "nic.reliable.out_of_order_drops",
        ),
        ("reliable.wire_drops", "nic.reliable.wire_drops"),
    ] {
        r.put(metric, when(reliable, name)? as f64, "count", "both NICs");
    }

    // fabric: in-memory switch counters.
    let (fwd, dropped) = (
        when(!udp, "fabric.forwarded")?,
        when(!udp, "fabric.dropped")?,
    );
    r.put(
        "fabric.forwarded_per_call",
        per_call(fwd),
        "frames/call",
        &base_calls,
    );
    r.put(
        "fabric.dropped_ratio",
        ratio(dropped, fwd),
        "ratio",
        format!("{fwd} frames"),
    );

    // fabric_udp and the process.
    for name in ["udp.tx_errors", "udp.rx_overflow", "udp.rx_malformed"] {
        r.put(name, when(udp, name)? as f64, "count", "UdpFabric");
    }
    r.put(
        "proc.ctx_switches_per_call",
        per_call(c("proc.ctx_switches")?),
        "count/call",
        &base_calls,
    );

    // offload: the server NIC's response cache.
    let (hits, misses) = (c("offload.hits")?, c("offload.misses")?);
    r.put(
        "offload.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        format!("{} lookups", hits + misses),
    );
    for name in [
        "offload.fills",
        "offload.invalidations",
        "offload.evictions",
        "offload.stale_drops",
        "offload.bypass",
    ] {
        r.put(name, c(name)? as f64, "count", "server NIC");
    }

    // kvs: store spans and per-kind closed-loop RTTs.
    let ns = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 50.0) as f64
        }
    };
    let (gets, sets) = (durations("kvs.get"), durations("kvs.set"));
    r.put(
        "kvs.store_get_ns",
        ns(&gets),
        "ns",
        format!("p50 of {} spans", gets.len()),
    );
    r.put(
        "kvs.store_set_ns",
        ns(&sets),
        "ns",
        format!("p50 of {} spans", sets.len()),
    );
    for (metric, kind) in [
        ("kvs.get_rtt_p50_us", KIND_GET),
        ("kvs.set_rtt_p50_us", KIND_SET),
    ] {
        let v = sorted(
            plain
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|&(_, r)| r)
                .collect(),
        );
        r.put(
            metric,
            med_us(&v),
            "us",
            format!("p50 of {} untraced calls", v.len()),
        );
    }
    r.put(
        "kvs.found_ratio",
        ratio(found, looked),
        "ratio",
        format!("{looked} GETs"),
    );

    // loadgen and tracing.
    r.put(
        "loadgen.load_p99_us",
        median(&lp99),
        "us",
        format!("median of {ROUNDS} rounds at {} 1/s", w.offered_rps),
    );
    r.put(
        "loadgen.late_p99_us",
        median(&late),
        "us",
        format!("median of {ROUNDS} rounds"),
    );
    r.put(
        "loadgen.achieved_over_offered",
        median(&achieved),
        "ratio",
        format!("median of {ROUNDS} rounds at {} 1/s", w.offered_rps),
    );
    let plain_rtt = sorted(plain.iter().map(|&(_, r)| r).collect());
    let traced_rtt = sorted(traced_rtts);
    let (a, b) = (med_us(&plain_rtt), med_us(&traced_rtt));
    r.put(
        "trace.overhead_pct",
        if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 },
        "%",
        format!(
            "p50 {b:.2} us traced ({}) vs {a:.2} us untraced ({})",
            traced_rtt.len(),
            plain_rtt.len()
        ),
    );
    r.put(
        "failed_permille",
        1000.0 * ratio(tally.failed(), tally.attempted),
        "permille",
        format!("{} of {} calls", tally.failed(), tally.attempted),
    );
    Ok(r)
}
