//! Datapath bench — the perf-trajectory harness behind `BENCH_datapath.json`.
//!
//! Measures the NIC datapath three ways and prints machine-parseable
//! `key=value` lines (consumed by `scripts/bench.sh`):
//!
//! * wire-encode micro-loops (datagram and reliable-frame serialization,
//!   fresh-allocation vs pooled-buffer variants);
//! * closed-loop sync RPC echo RTT (median + p99) and throughput, over a
//!   clean fabric, unreliable and reliable transports;
//! * pipelined async echo throughput.
//!
//! `DAGGER_BENCH_QUICK=1` shrinks the iteration counts for CI smoke runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger_bench::{banner, us};
use dagger_idl::{dagger_message, dagger_service};
use dagger_nic::nic::Nic;
use dagger_nic::reliable::{ReliableConfig, ReliableTransport};
use dagger_nic::transport::Datagram;
use dagger_nic::MemFabric;
use dagger_rpc::{RpcClientPool, RpcThreadedServer, Wire};
use dagger_types::{CacheLine, HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Echo {
        seq: u32,
        blob: Vec<u8>,
    }
}

dagger_service! {
    pub service Path {
        handler = PathHandler;
        dispatch = PathDispatch;
        client = PathClient;
        rpc echo(Echo) -> Echo = 1, async = echo_async;
    }
}

struct EchoImpl;
impl PathHandler for EchoImpl {
    fn echo(&self, request: Echo) -> Result<Echo> {
        Ok(request)
    }
}

fn quick() -> bool {
    std::env::var("DAGGER_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// ns/op over `iters` runs of `f`, with a short warm-up.
fn time_op(iters: u64, mut f: impl FnMut()) -> u64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as u64 / iters.max(1)
}

fn lines(n: usize) -> Vec<CacheLine> {
    (0..n)
        .map(|i| {
            let mut l = CacheLine::zeroed();
            l.as_bytes_mut()[0] = i as u8;
            l
        })
        .collect()
}

/// Wire-serialization micro-loops: the per-datagram encode cost the engine
/// pays on every TX round.
fn bench_encode() {
    let iters = if quick() { 20_000 } else { 200_000 };
    let dgram = Datagram::new(NodeAddr(1), NodeAddr(2), lines(8));

    // Fresh-allocation path: what `send_datagram` did before pooling.
    let ns = time_op(iters, || {
        std::hint::black_box(std::hint::black_box(&dgram).encode());
    });
    println!("datagram_encode_alloc_ns={ns}");

    let mut rel = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
    let ns = time_op(iters, || {
        let frame = rel.on_send(std::hint::black_box(dgram.clone()), 0).unwrap();
        std::hint::black_box(frame.encode());
        // Ack everything so the window never closes and unacked stays tiny.
        let _ = rel.on_recv(
            &dagger_nic::reliable::TransportFrame::Ack {
                ack: u64::MAX,
                src: NodeAddr(2),
                dst: NodeAddr(1),
                src_queue: 0,
            }
            .encode(),
            0,
        );
    });
    println!("reliable_send_encode_alloc_ns={ns}");

    pooled_encode_hook(iters, &dgram);
}

/// Post-PR pooled variants; compiled whenever the pooled API exists. Kept
/// in one place so the pre-PR baseline binary ran the identical harness
/// minus this hook.
fn pooled_encode_hook(iters: u64, dgram: &Datagram) {
    // Pooled datagram encode: one buffer reused across every iteration,
    // exactly as `send_datagram` reuses `BufPool` buffers.
    let mut out = Vec::new();
    let ns = time_op(iters, || {
        std::hint::black_box(&dgram).encode_into(&mut out);
        std::hint::black_box(&out);
    });
    println!("datagram_encode_pooled_ns={ns}");

    // Pooled reliable send: the datagram's line vector and the wire buffer
    // both circulate instead of being cloned/allocated per frame.
    let mut rel = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
    let ack_bytes = dagger_nic::reliable::TransportFrame::Ack {
        ack: u64::MAX,
        src: NodeAddr(2),
        dst: NodeAddr(1),
        src_queue: 0,
    }
    .encode();
    let mut out = Vec::new();
    let mut spare = dgram.lines.clone();
    let ns = time_op(iters, || {
        let d = Datagram::new(dgram.src, dgram.dst, std::mem::take(&mut spare));
        rel.on_send_encode(d, 0, &mut out).unwrap();
        std::hint::black_box(&out);
        // Ack everything so the window never closes; reclaim the retired
        // line vector for the next iteration, as `reliable_tick` does.
        let _ = rel.on_recv(&ack_bytes, 0);
        rel.drain_retired(|lines| spare = lines);
    });
    println!("reliable_send_encode_pooled_ns={ns}");
}

/// One closed-loop echo experiment over a fresh NIC pair.
fn run_echo(label: &str, cfg: HardConfig, payload_len: usize, calls: u32) {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), cfg.clone()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), cfg).unwrap();
    // Batched rounds: let each engine pop, encode, and ship a full burst
    // per flow per round with one doorbell (§4.4.1); the register clamps
    // itself to the ring capacity. Auto-batching keeps the closed-loop
    // RTT honest: partial delivery batches ship the moment RX goes quiet
    // instead of waiting out the scheduler timeout.
    for nic in [&server_nic, &client_nic] {
        nic.softregs()
            .set_batch_size(dagger_types::config::MAX_BATCH)
            .unwrap();
        nic.softregs().set_auto_batch(true);
    }
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(PathDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(30));
    let client = PathClient::new(Arc::clone(&raw));
    let blob = vec![0x5Au8; payload_len];

    // Warm-up: connection caches, pools, reassembler maps.
    for seq in 0..calls / 10 + 1 {
        client
            .echo(&Echo {
                seq,
                blob: blob.clone(),
            })
            .unwrap();
    }

    let mut rtts = Vec::with_capacity(calls as usize);
    let start = Instant::now();
    for seq in 0..calls {
        let t0 = Instant::now();
        let resp = client
            .echo(&Echo {
                seq,
                blob: blob.clone(),
            })
            .unwrap();
        rtts.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.seq, seq);
    }
    let total = start.elapsed();
    rtts.sort_unstable();
    let median = percentile(&rtts, 0.50);
    let p99 = percentile(&rtts, 0.99);
    let tput = f64::from(calls) / total.as_secs_f64();
    println!("{label}_rtt_median_ns={median}");
    println!("{label}_rtt_p99_ns={p99}");
    println!("{label}_throughput_rps={tput:.0}");
    println!(
        "# {label}: median {}us  p99 {}us  {:.0} rps over {} calls",
        us(median),
        us(p99),
        tput,
        calls
    );

    // Pipelined async throughput: keep a window of calls in flight.
    let window = 16usize;
    let async_calls = calls;
    let start = Instant::now();
    let mut inflight = std::collections::VecDeque::with_capacity(window);
    for seq in 0..async_calls {
        if inflight.len() == window {
            let pending: dagger_rpc::PendingCall = inflight.pop_front().unwrap();
            pending.wait().unwrap();
        }
        inflight.push_back(
            raw.call_async(
                dagger_types::FnId(1),
                &(Echo {
                    seq,
                    blob: blob.clone(),
                })
                .to_wire(),
            )
            .unwrap(),
        );
    }
    for pending in inflight {
        pending.wait().unwrap();
    }
    let tput = f64::from(async_calls) / start.elapsed().as_secs_f64();
    println!("{label}_async_throughput_rps={tput:.0}");

    server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

/// One quiet reliable sync-echo run returning the median RTT, optionally
/// with a live sampling thread driving the time-series engine — the same
/// cadence the `Reporter` and the queue balancer use in production.
fn reliable_echo_median(calls: u32, sampling: bool) -> u64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = HardConfig::builder().reliable(true).build().unwrap();
    let fabric = MemFabric::new();
    let telemetry = dagger_telemetry::Telemetry::new();
    let server_nic =
        Nic::start_with_telemetry(&fabric, NodeAddr(1), cfg.clone(), Arc::clone(&telemetry))
            .unwrap();
    let client_nic =
        Nic::start_with_telemetry(&fabric, NodeAddr(2), cfg, Arc::clone(&telemetry)).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(PathDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(30));
    let client = PathClient::new(Arc::clone(&raw));
    let blob = vec![0x5Au8; 64];

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = sampling.then(|| {
        let telemetry = Arc::clone(&telemetry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                telemetry.sample_now();
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    });

    for seq in 0..calls / 10 + 1 {
        client
            .echo(&Echo {
                seq,
                blob: blob.clone(),
            })
            .unwrap();
    }
    let mut rtts = Vec::with_capacity(calls as usize);
    for seq in 0..calls {
        let t0 = Instant::now();
        client
            .echo(&Echo {
                seq,
                blob: blob.clone(),
            })
            .unwrap();
        rtts.push(t0.elapsed().as_nanos() as u64);
    }
    rtts.sort_unstable();
    let median = percentile(&rtts, 0.50);

    stop.store(true, Ordering::Relaxed);
    if let Some(h) = sampler {
        let _ = h.join();
    }
    server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
    median
}

/// Telemetry-overhead gate: the reliable echo median with the sampling
/// grid live vs dark. Medians are robust to outliers, the off/on runs
/// interleave, and each side keeps its best of five — run-to-run medians
/// on a shared box swing several percent on scheduler placement alone, so
/// both minima must converge to the machine's floor before the difference
/// means anything. `bench.sh --check` fails the build when the overhead
/// exceeds the 3% budget.
fn bench_telemetry_overhead(calls: u32) {
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        off = off.min(reliable_echo_median(calls, false));
        on = on.min(reliable_echo_median(calls, true));
    }
    let overhead = on.saturating_sub(off).saturating_mul(1000) / off.max(1);
    println!("datapath_reliable_sampling_rtt_median_ns={on}");
    println!("telemetry_sampling_overhead_permille={overhead}");
    println!(
        "# telemetry sampling: reliable median {}us dark, {}us live ({overhead} permille overhead)",
        us(off),
        us(on)
    );
}

/// One hot-key GET run: a KVS server with the offload stage armed and the
/// response cache sized to `cache_entries`, hammered with GETs of a single
/// hot key. Returns `(p50, p99, hit_rate_permille)` for the GET RTTs.
fn kvs_hotget_run(cache_entries: u32, calls: u32) -> (u64, u64, u64) {
    use dagger_kvs::server::{KvGetRequest, KvSetRequest, KvStoreClient, KvStoreDispatch};
    use dagger_kvs::{Memcached, MemcachedPort};

    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    assert!(server_nic.configure_offload(KvStoreClient::offload_spec().unwrap()));
    server_nic.softregs().set_nic_serde(true);
    server_nic
        .softregs()
        .set_offload_cache_entries(cache_entries);
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    for nic in [&server_nic, &client_nic] {
        nic.softregs()
            .set_batch_size(dagger_types::config::MAX_BATCH)
            .unwrap();
        nic.softregs().set_auto_batch(true);
    }
    let store = Arc::new(Memcached::new(1 << 20, 8));
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(KvStoreDispatch::new(MemcachedPort::new(store))))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(30));
    let client = KvStoreClient::new(Arc::clone(&raw));

    let key = b"hot".to_vec();
    assert!(
        client
            .set(&KvSetRequest {
                key: key.clone(),
                value: vec![0x5A; 32],
            })
            .unwrap()
            .ok
    );

    let mut gets = 0u64;
    for _ in 0..calls / 10 + 1 {
        gets += 1;
        assert!(
            client
                .get(&KvGetRequest { key: key.clone() })
                .unwrap()
                .found
        );
    }
    let mut rtts = Vec::with_capacity(calls as usize);
    for _ in 0..calls {
        gets += 1;
        let t0 = Instant::now();
        let resp = client.get(&KvGetRequest { key: key.clone() }).unwrap();
        rtts.push(t0.elapsed().as_nanos() as u64);
        assert!(resp.found);
    }
    rtts.sort_unstable();
    let p50 = percentile(&rtts, 0.50);
    let p99 = percentile(&rtts, 0.99);
    let hit_rate = server_nic.offload_stats().hits * 1000 / gets;

    server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
    (p50, p99, hit_rate)
}

/// The on-NIC offload experiment (DESIGN.md §18): repeated GETs of one hot
/// key, server-served (cache disabled — every GET crosses the rings and
/// wakes the server core) vs cache-served (hits synthesized on the NIC RX
/// path). Interleaved best-of-3 medians for the same reason as the
/// telemetry-overhead gate; `bench.sh --check` fails the build when the
/// hit rate drops below 80% or the cache-served median gives back more
/// than a quarter of its win over the server path.
fn bench_offload_hotget(calls: u32) {
    let (mut srv_p50, mut srv_p99) = (u64::MAX, u64::MAX);
    let (mut hit_p50, mut hit_p99) = (u64::MAX, u64::MAX);
    let mut hit_rate = 0u64;
    for _ in 0..3 {
        let (p50, p99, _) = kvs_hotget_run(0, calls);
        if p50 < srv_p50 {
            (srv_p50, srv_p99) = (p50, p99);
        }
        let (p50, p99, rate) = kvs_hotget_run(256, calls);
        if p50 < hit_p50 {
            (hit_p50, hit_p99) = (p50, p99);
        }
        hit_rate = hit_rate.max(rate);
    }
    let win = srv_p50.saturating_sub(hit_p50) * 1000 / srv_p50.max(1);
    println!("kvs_hotget_server_p50_ns={srv_p50}");
    println!("kvs_hotget_server_p99_ns={srv_p99}");
    println!("kvs_hotget_cache_p50_ns={hit_p50}");
    println!("kvs_hotget_cache_p99_ns={hit_p99}");
    println!("offload_hit_rate_permille={hit_rate}");
    println!("offload_hotget_win_permille={win}");
    println!(
        "# kvs hot-key GET: server-served {}us p50, cache-served {}us p50 ({win} permille win, {hit_rate} permille hit rate)",
        us(srv_p50),
        us(hit_p50)
    );
}

fn main() {
    banner("datapath", "NIC datapath encode + echo RTT/throughput");
    let calls: u32 = if quick() { 300 } else { 3_000 };
    bench_encode();
    run_echo("datapath_sync", HardConfig::default(), 64, calls);
    run_echo(
        "datapath_reliable",
        HardConfig::builder().reliable(true).build().unwrap(),
        64,
        calls,
    );
    bench_telemetry_overhead(calls);
    bench_offload_hotget(calls);
}
