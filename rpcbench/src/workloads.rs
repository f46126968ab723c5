//! The four workloads: their services, request generators, reply checks
//! and fixed per-workload constants.
//!
//! Every input derives from the workload seed: Zipf keys and the GET/SET
//! mix, the Fig. 4 size draws, and the fault-plan seed. The program under
//! test only sees the generated requests.

use std::sync::Arc;
use std::time::Duration;

use dagger_idl::{dagger_message, dagger_service};
use dagger_kvs::server::{
    KvGetRequest, KvGetResponse, KvSetRequest, KvSetResponse, KvStoreClient, KvStoreDispatch,
    KvStoreHandler,
};
use dagger_kvs::workload::{KvOp, KvWorkload, WorkloadSpec};
use dagger_kvs::{Memcached, MemcachedPort};
use dagger_rpc::RpcService;
use dagger_types::{DaggerError, FnId, Result, FRAME_PAYLOAD_BYTES};

use crate::loadgen::{CallMeta, Fail, Service, KIND_GET, KIND_OTHER, KIND_SET};
use crate::stack::{FabricKind, Stack, StackConfig};
use crate::trace::{Probe, ServerProbe, SpanLog};

dagger_message! {
    /// Echo request and reply.
    pub struct Echo {
        seq: u64,
        blob: Vec<u8>,
    }
}

dagger_service! {
    /// Single-RPC echo service.
    pub service EchoSvc {
        handler = EchoHandler;
        dispatch = EchoDispatch;
        client = EchoClient;
        rpc echo(Echo) -> Echo = 1, async = echo_async;
    }
}

dagger_message! {
    /// A microservice call: the reply must carry `resp_len` body bytes.
    pub struct SnRequest {
        seq: u64,
        resp_len: u32,
        body: Vec<u8>,
    }
}

dagger_message! {
    /// A microservice reply.
    pub struct SnResponse {
        seq: u64,
        body: Vec<u8>,
    }
}

dagger_service! {
    /// One tier of the social network: answers with a reply of the
    /// requested size.
    pub service Social {
        handler = SocialHandler;
        dispatch = SocialDispatch;
        client = SocialClient;
        rpc relay(SnRequest) -> SnResponse = 1, async = relay_async;
    }
}

/// Calls outstanding in the window phase and at most in the open loop.
pub const WINDOW: usize = 16;
/// Per-call deadline.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Echo blob size: an echo request and its reply (status byte included)
/// each fill exactly one 64 B frame.
pub const ECHO_BLOB: usize = FRAME_PAYLOAD_BYTES - 1 - 8 - 4;
/// Keys in the KVS data set (the paper's *small* data set, scaled down).
pub const KVS_KEYS: u64 = 100_000;
/// On-NIC response-cache entries for the KVS workload.
pub const KVS_CACHE_ENTRIES: u32 = 1024;
/// Fraction of KVS operations that are GETs.
pub const KVS_GET_FRACTION: f64 = 0.9;
/// KVS value size (the *small* data set's 32 B).
const KVS_VALUE: usize = 32;
/// Encoded overhead of [`SnRequest`] beyond its body.
const SN_REQ_OVERHEAD: u32 = 8 + 4 + 4;
/// Encoded overhead of [`SnResponse`] plus the status byte.
const SN_RESP_OVERHEAD: u32 = 8 + 4 + 1;
/// Size draws generated per run (cycled).
const SN_DRAWS: usize = 1 << 15;
/// Per-frame drop probability of the lossy workload.
pub const LOSSY_DROP: f64 = 0.01;

/// A workload and its fixed constants.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Offered rate of the fixed-rate open-loop phase, calls/s.
    pub offered_rps: f64,
    /// Latency limit on the open-loop p99 for `slo_rate_rps`, µs.
    pub limit_us: f64,
    /// Rate range the SLO search bisects, calls/s.
    pub slo_range: (f64, f64),
}

/// Every workload. The rates and limits were set once from measurements
/// of this code on a 2-core host and are not retuned.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "echo_64b",
        offered_rps: 20_000.0,
        limit_us: 5_000.0,
        slo_range: (25_000.0, 800_000.0),
    },
    Workload {
        name: "kvs_zipf",
        offered_rps: 15_000.0,
        limit_us: 5_000.0,
        slo_range: (25_000.0, 800_000.0),
    },
    Workload {
        name: "socialnet_udp",
        offered_rps: 10_000.0,
        limit_us: 5_000.0,
        slo_range: (8_000.0, 256_000.0),
    },
    Workload {
        name: "socialnet_lossy",
        offered_rps: 10_000.0,
        limit_us: 5_000.0,
        slo_range: (12_500.0, 400_000.0),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of one input stream, derived from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Byte `i` of the deterministic body tagged `tag`.
fn fill_byte(tag: u64, i: usize) -> u8 {
    let w = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((w >> ((i & 7) * 8)) as u8) ^ (i as u8)
}

/// A deterministic body of `len` bytes tagged `tag`.
pub fn fill(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| fill_byte(tag, i)).collect()
}

/// Whether `bytes` is the body [`fill`] makes for `tag`.
pub fn is_fill(tag: u64, bytes: &[u8]) -> bool {
    bytes
        .iter()
        .enumerate()
        .all(|(i, &b)| b == fill_byte(tag, i))
}

/// Salt separating reply bodies from request bodies.
const REPLY_SALT: u64 = 0x5EED_5EED_5EED_5EED;

fn mismatch(what: &str) -> DaggerError {
    DaggerError::Wire(format!("request check failed: {what}"))
}

/// Echo server: returns the request; times its body when traced.
pub struct EchoImpl(pub Arc<ServerProbe>);

impl EchoHandler for EchoImpl {
    fn echo(&self, request: Echo) -> Result<Echo> {
        self.0.probe().time("rpc.handler", |_| Ok(request))
    }
}

/// Social tier server: checks the request body and replies with a body of
/// the requested length.
pub struct SocialImpl(pub Arc<ServerProbe>);

impl SocialHandler for SocialImpl {
    fn relay(&self, request: SnRequest) -> Result<SnResponse> {
        self.0.probe().time("rpc.handler", |_| {
            if !is_fill(request.seq, &request.body) {
                return Err(mismatch("social body"));
            }
            Ok(SnResponse {
                seq: request.seq,
                body: fill(request.seq ^ REPLY_SALT, request.resp_len as usize),
            })
        })
    }
}

/// The memcached port behind a timing shim: each call into the port's
/// handler methods is a store span.
pub struct TimedKvs {
    port: MemcachedPort,
    probe: Arc<ServerProbe>,
}

impl KvStoreHandler for TimedKvs {
    fn get(&self, request: KvGetRequest) -> Result<KvGetResponse> {
        self.probe.probe().time("rpc.handler", |h| {
            h.time("kvs.get", |_| self.port.get(request))
        })
    }

    fn set(&self, request: KvSetRequest) -> Result<KvSetResponse> {
        self.probe.probe().time("rpc.handler", |h| {
            h.time("kvs.set", |_| self.port.set(request))
        })
    }
}

/// Echo client side.
pub struct EchoGen {
    seq: u64,
    blob: usize,
}

impl EchoGen {
    /// Echoes of `blob`-byte bodies.
    pub fn new(blob: usize) -> Self {
        EchoGen { seq: 0, blob }
    }
}

impl Service for EchoGen {
    fn next(&mut self, probe: &Probe<'_>) -> (FnId, Vec<u8>, CallMeta) {
        self.seq += 1;
        let msg = Echo {
            seq: self.seq,
            blob: fill(self.seq, self.blob),
        };
        let payload = probe.encode(&msg);
        let meta = CallMeta {
            kind: KIND_OTHER,
            a: self.seq,
            b: 0,
            req_bytes: payload.len() as u64,
        };
        (FnId(1), payload, meta)
    }

    fn check(
        &mut self,
        meta: &CallMeta,
        reply: &[u8],
        probe: &Probe<'_>,
    ) -> std::result::Result<u64, Fail> {
        let r: Echo = probe.decode(reply).map_err(|_| Fail::Mismatch)?;
        if r.seq != meta.a || r.blob.len() != self.blob || !is_fill(meta.a, &r.blob) {
            return Err(Fail::Mismatch);
        }
        Ok(meta.req_bytes + reply.len() as u64)
    }
}

/// Social-network client side: request and reply sizes from
/// `sample_rpc_sizes` (Fig. 4), cycled.
pub struct SocialGen {
    seq: u64,
    sizes: Vec<(u32, u32)>,
}

impl SocialGen {
    /// Draws the size mix from `seed`.
    pub fn new(seed: u64) -> Self {
        let (req, resp, _) = dagger_services::socialnet::sample_rpc_sizes(SN_DRAWS, seed);
        SocialGen {
            seq: 0,
            sizes: req.into_iter().zip(resp).collect(),
        }
    }
}

impl Service for SocialGen {
    fn next(&mut self, probe: &Probe<'_>) -> (FnId, Vec<u8>, CallMeta) {
        let (req, resp) = self.sizes[(self.seq as usize) % self.sizes.len()];
        self.seq += 1;
        let resp_len = resp.saturating_sub(SN_RESP_OVERHEAD);
        let msg = SnRequest {
            seq: self.seq,
            resp_len,
            body: fill(self.seq, req.saturating_sub(SN_REQ_OVERHEAD) as usize),
        };
        let payload = probe.encode(&msg);
        let meta = CallMeta {
            kind: KIND_OTHER,
            a: self.seq,
            b: u64::from(resp_len),
            req_bytes: payload.len() as u64,
        };
        (FnId(1), payload, meta)
    }

    fn check(
        &mut self,
        meta: &CallMeta,
        reply: &[u8],
        probe: &Probe<'_>,
    ) -> std::result::Result<u64, Fail> {
        let r: SnResponse = probe.decode(reply).map_err(|_| Fail::Mismatch)?;
        if r.seq != meta.a
            || r.body.len() as u64 != meta.b
            || !is_fill(meta.a ^ REPLY_SALT, &r.body)
        {
            return Err(Fail::Mismatch);
        }
        Ok(meta.req_bytes + reply.len() as u64)
    }
}

/// KVS value of key `id` at `version`: id, version, then a body tagged by
/// both, so a reply proves which write it came from.
pub fn kvs_value(id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(KVS_VALUE);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend_from_slice(&fill(id ^ version.rotate_left(32), KVS_VALUE - 16));
    v
}

/// Parses a [`kvs_value`]: `Some(version)` when it belongs to key `id`.
pub fn kvs_version(id: u64, value: &[u8]) -> Option<u64> {
    if value.len() != KVS_VALUE || value[..8] != id.to_le_bytes() {
        return None;
    }
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    is_fill(id ^ version.rotate_left(32), &value[16..]).then_some(version)
}

/// KVS client side: Zipf keys, a GET/SET mix, version-stamped SETs. A GET
/// must return a version no older than the key's last acknowledged SET
/// at the time the GET was issued, and no newer than the last issued SET.
pub struct KvsGen {
    ops: KvWorkload,
    issued: Vec<u64>,
    acked: Vec<u64>,
    /// GET replies checked.
    pub gets: u64,
    /// GET replies that found their key.
    pub found: u64,
}

impl KvsGen {
    /// Operation stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let spec = WorkloadSpec {
            get_fraction: KVS_GET_FRACTION,
            ..WorkloadSpec::small().with_keys(KVS_KEYS)
        };
        KvsGen {
            ops: KvWorkload::new(spec, seed),
            issued: vec![0; KVS_KEYS as usize],
            acked: vec![0; KVS_KEYS as usize],
            gets: 0,
            found: 0,
        }
    }
}

fn key_id(key: &[u8]) -> u64 {
    u64::from_le_bytes(key[..8].try_into().expect("keys embed an 8-byte id"))
}

impl Service for KvsGen {
    fn next(&mut self, probe: &Probe<'_>) -> (FnId, Vec<u8>, CallMeta) {
        match self.ops.next_op() {
            KvOp::Get { key } => {
                let id = key_id(&key);
                let payload = probe.encode(&KvGetRequest { key });
                let meta = CallMeta {
                    kind: KIND_GET,
                    a: id,
                    b: self.acked[id as usize],
                    req_bytes: payload.len() as u64,
                };
                (FnId(1), payload, meta)
            }
            KvOp::Set { key, .. } => {
                let id = key_id(&key);
                self.issued[id as usize] += 1;
                let version = self.issued[id as usize];
                let value = kvs_value(id, version);
                let payload = probe.encode(&KvSetRequest { key, value });
                let meta = CallMeta {
                    kind: KIND_SET,
                    a: id,
                    b: version,
                    req_bytes: payload.len() as u64,
                };
                (FnId(2), payload, meta)
            }
        }
    }

    fn check(
        &mut self,
        meta: &CallMeta,
        reply: &[u8],
        probe: &Probe<'_>,
    ) -> std::result::Result<u64, Fail> {
        let id = meta.a as usize;
        if meta.kind == KIND_GET {
            let r: KvGetResponse = probe.decode(reply).map_err(|_| Fail::Mismatch)?;
            self.gets += 1;
            if !r.found {
                return Err(Fail::Mismatch);
            }
            self.found += 1;
            let version = kvs_version(meta.a, &r.value).ok_or(Fail::Mismatch)?;
            if version > self.issued[id] {
                return Err(Fail::Mismatch);
            }
            if version < meta.b {
                return Err(Fail::Stale);
            }
        } else {
            let r: KvSetResponse = probe.decode(reply).map_err(|_| Fail::Mismatch)?;
            if !r.ok {
                return Err(Fail::Error);
            }
            self.acked[id] = self.acked[id].max(meta.b);
        }
        Ok(meta.req_bytes + reply.len() as u64)
    }

    fn found(&self) -> (u64, u64) {
        (self.found, self.gets)
    }
}

/// A started workload: the stack and the probe its handlers record under.
pub struct Built {
    /// The running stack.
    pub stack: Stack,
    /// Where handler spans attach.
    pub server_probe: Arc<ServerProbe>,
    /// Fabric label for run metadata.
    pub fabric: String,
}

/// Builds and starts `w` for `seed`: fabric, NICs, server, connection,
/// and (for the KVS) a populated store. Returns the stack and the
/// client-side request generator. With `log`, handlers can record spans
/// into it.
///
/// # Errors
///
/// Returns a message naming the failed step.
pub fn build(
    w: &Workload,
    seed: u64,
    log: Option<Arc<SpanLog>>,
) -> std::result::Result<(Built, Box<dyn Service>), String> {
    let probe = Arc::new(ServerProbe::new(log));
    let p = Arc::clone(&probe);
    let (cfg, service, server): (StackConfig, Box<dyn Service>, Arc<dyn RpcService>) = match w.name
    {
        "echo_64b" => (
            StackConfig {
                fabric: FabricKind::Mem,
                reliable: false,
                offload: None,
            },
            Box::new(EchoGen::new(ECHO_BLOB)),
            Arc::new(EchoDispatch::new(EchoImpl(p))),
        ),
        "kvs_zipf" => {
            let store = Arc::new(Memcached::new(64 << 20, 8));
            let gen = KvsGen::new(derive(seed, 1));
            for id in 0..KVS_KEYS {
                if !store.set(&gen.ops.key_bytes(id), &kvs_value(id, 0)) {
                    return Err(format!("store rejected key {id} during populate"));
                }
            }
            if store.len() as u64 != KVS_KEYS {
                return Err(format!(
                    "store holds {} of {KVS_KEYS} keys after populate",
                    store.len()
                ));
            }
            let spec = KvStoreClient::offload_spec().ok_or("KvStore has no offload spec")?;
            (
                StackConfig {
                    fabric: FabricKind::Mem,
                    reliable: false,
                    offload: Some((spec, KVS_CACHE_ENTRIES)),
                },
                Box::new(gen),
                Arc::new(KvStoreDispatch::new(TimedKvs {
                    port: MemcachedPort::new(store),
                    probe: p,
                })),
            )
        }
        "socialnet_udp" | "socialnet_lossy" => {
            let fabric = if w.name == "socialnet_udp" {
                FabricKind::Udp
            } else {
                FabricKind::MemLossy {
                    drop: LOSSY_DROP,
                    seed: derive(seed, 3),
                }
            };
            (
                StackConfig {
                    fabric,
                    reliable: true,
                    offload: None,
                },
                Box::new(SocialGen::new(derive(seed, 2))),
                Arc::new(SocialDispatch::new(SocialImpl(p))),
            )
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let fabric = cfg.fabric.label();
    let stack = Stack::start(&cfg, server)?;
    let built = Built {
        stack,
        server_probe: probe,
        fabric,
    };
    Ok((built, service))
}
