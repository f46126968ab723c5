//! Per-layer counters, read only through public snapshots.
//!
//! Counter banks come from `Nic::monitor().snapshot()`,
//! `Nic::offload_stats()`, `MemFabric::fault_stats()`, the `UdpFabric`
//! error counters and `RpcThreadedServer::stats()`. The buffer-pool,
//! connection-cache and reliable-transport counters are only published as
//! `nic.<addr>.{pool,conncache,reliable}.*` gauges, read through
//! `Telemetry::collect()` and the registry snapshot. A gauge the benchmark
//! needs that is missing is an error, never a silent 0, so a renamed
//! counter cannot blank a layer.

use std::collections::BTreeMap;

use dagger_telemetry::Telemetry;

use crate::stack::{Net, Stack};

/// Gauge suffixes every NIC must publish.
pub const NIC_GAUGES: [&str; 4] = [
    "pool.hits",
    "pool.misses",
    "conncache.hits",
    "conncache.misses",
];

/// Gauge suffixes a NIC with the reliable transport must publish.
pub const RELIABLE_GAUGES: [&str; 4] = [
    "reliable.retransmissions",
    "reliable.duplicate_drops",
    "reliable.out_of_order_drops",
    "reliable.wire_drops",
];

/// Reads the named gauges after a fresh collection.
///
/// # Errors
///
/// Names every requested gauge the registry does not hold.
pub fn read_gauges(
    telemetry: &Telemetry,
    names: &[String],
) -> Result<BTreeMap<String, u64>, String> {
    telemetry.collect();
    let snap = telemetry.registry().snapshot();
    let mut out = BTreeMap::new();
    let mut missing = Vec::new();
    for name in names {
        match snap.gauge(name) {
            Some(v) => {
                out.insert(name.clone(), v);
            }
            None => missing.push(name.as_str()),
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(format!("telemetry gauges missing: {}", missing.join(", ")))
    }
}

/// Process-wide counters from `/proc/self`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// User plus system CPU time, in clock ticks of 10 ms.
    pub cpu_ticks: u64,
    /// Voluntary plus involuntary context switches, summed over threads.
    pub ctx_switches: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`).
pub const TICKS_PER_SEC: u64 = 100;

/// Reads this process's CPU time and context switches.
///
/// # Errors
///
/// Returns a message when `/proc/self` cannot be read or parsed.
pub fn proc_stats() -> Result<ProcStats, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {i}"))
    };
    let cpu_ticks = field(11)? + field(12)?;
    let mut ctx_switches = 0;
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading; skip it.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                ctx_switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Ok(ProcStats {
        cpu_ticks,
        ctx_switches,
    })
}

/// Peak resident set size of this process, in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Every counter of one stack at one instant, by name. Monitor and gauge
/// counters are summed over both NICs; `offload.*` is the server NIC's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Snapshots every counter of `stack`.
    ///
    /// # Errors
    ///
    /// Fails when a required gauge is missing or `/proc` is unreadable.
    pub fn read(stack: &Stack) -> Result<Counters, String> {
        let mut c = BTreeMap::new();
        let mut add = |name: &str, v: u64| *c.entry(name.to_string()).or_insert(0) += v;
        for nic in [&stack.client_nic, &stack.server_nic] {
            let m = nic.monitor().snapshot();
            add("nic.tx_frames", m.tx_frames);
            add("nic.tx_datagrams", m.tx_datagrams);
            add("nic.rx_ring_drops", m.rx_ring_drops);
            add("nic.reqbuf_backpressure", m.reqbuf_backpressure);
            add("nic.tx_window_deferrals", m.tx_window_deferrals);
            add("nic.cached_polls", m.cached_polls);
            add("nic.direct_polls", m.direct_polls);
        }
        let gauges = read_gauges(&stack.telemetry, &stack.required_gauges())?;
        for (name, v) in gauges {
            // `nic.<addr>.<suffix>` summed over addresses as `nic.<suffix>`.
            let suffix = name.splitn(3, '.').nth(2).unwrap_or(&name).to_string();
            add(&format!("nic.{suffix}"), v);
        }
        let o = stack.server_nic.offload_stats();
        add("offload.hits", o.hits);
        add("offload.misses", o.misses);
        add("offload.fills", o.fills);
        add("offload.invalidations", o.invalidations);
        add("offload.evictions", o.evictions);
        add("offload.stale_drops", o.stale_drops);
        add("offload.bypass", o.bypass);
        match &stack.net {
            Net::Mem(f) => {
                let s = f.fault_stats();
                add("fabric.forwarded", s.forwarded);
                add("fabric.dropped", s.dropped);
            }
            Net::Udp(f) => {
                add("udp.tx_errors", f.tx_errors());
                add("udp.rx_overflow", f.rx_overflow());
                add("udp.rx_malformed", f.rx_malformed());
            }
        }
        add("server.handler_errors", stack.server.stats().handler_errors);
        add("proc.ctx_switches", proc_stats()?.ctx_switches);
        Ok(Counters(c))
    }

    /// Per-counter increase from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(before.0.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        )
    }

    /// Adds `other` counter by counter.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Counter `name`.
    ///
    /// # Errors
    ///
    /// Fails when the counter was never read, so a misspelt or renamed
    /// counter cannot report 0.
    pub fn get(&self, name: &str) -> Result<u64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("counter {name} was not read"))
    }
}
