//! One client/server pair under test: fabric, two NICs, a one-worker
//! server and a one-connection client pool.

use std::sync::Arc;

use dagger_nic::fabric::{Fabric, FaultPlan};
use dagger_nic::{MemFabric, Nic, UdpFabric};
use dagger_rpc::{RpcClient, RpcClientPool, RpcService, RpcThreadedServer};
use dagger_telemetry::Telemetry;
use dagger_types::{HardConfig, NodeAddr, OffloadSpec};

use crate::counters::{NIC_GAUGES, RELIABLE_GAUGES};

/// Server NIC address.
pub const SERVER: NodeAddr = NodeAddr(1);
/// Client NIC address.
pub const CLIENT: NodeAddr = NodeAddr(2);

/// Which network carries the frames.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FabricKind {
    /// The in-process switch, no faults.
    Mem,
    /// The in-process switch dropping each frame with probability `drop`,
    /// decisions seeded by `seed`.
    MemLossy {
        /// Per-frame drop probability.
        drop: f64,
        /// Fault-plan seed.
        seed: u64,
    },
    /// Real UDP sockets on loopback.
    Udp,
}

impl FabricKind {
    /// Short name for run metadata.
    pub fn label(&self) -> String {
        match self {
            FabricKind::Mem => "mem".to_string(),
            FabricKind::MemLossy { drop, seed } => format!("mem-lossy(drop={drop},seed={seed})"),
            FabricKind::Udp => "udp-loopback".to_string(),
        }
    }
}

/// How to build a stack.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// The network.
    pub fabric: FabricKind,
    /// Reliable (selective-repeat) transport on both NICs.
    pub reliable: bool,
    /// Server NIC offload: the service's spec and the response-cache size.
    pub offload: Option<(OffloadSpec, u32)>,
}

/// The network a stack runs on.
pub enum Net {
    /// In-process switch.
    Mem(MemFabric),
    /// UDP sockets.
    Udp(UdpFabric),
}

impl Net {
    fn fabric(&self) -> &dyn Fabric {
        match self {
            Net::Mem(f) => f,
            Net::Udp(f) => f,
        }
    }
}

/// A running client/server pair.
pub struct Stack {
    /// The network.
    pub net: Net,
    /// Telemetry hub shared by both NICs.
    pub telemetry: Arc<Telemetry>,
    /// Server-side NIC.
    pub server_nic: Arc<Nic>,
    /// Client-side NIC.
    pub client_nic: Arc<Nic>,
    /// The server (one dispatch thread).
    pub server: RpcThreadedServer,
    /// The client pool (one connection).
    pub pool: RpcClientPool,
    /// The pool's single client.
    pub client: Arc<RpcClient>,
    /// Whether both NICs run the reliable transport.
    pub reliable: bool,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Stack {
    /// Builds the fabric, starts both NICs with the batching settings of
    /// the datapath bench (`MAX_BATCH`, auto-batch), starts the server
    /// with `service` and connects one client.
    ///
    /// # Errors
    ///
    /// Returns a message naming the step that failed.
    pub fn start(cfg: &StackConfig, service: Arc<dyn RpcService>) -> Result<Stack, String> {
        let net = match cfg.fabric {
            FabricKind::Mem => Net::Mem(MemFabric::new()),
            FabricKind::MemLossy { drop, seed } => {
                Net::Mem(MemFabric::with_faults(FaultPlan::lossy(drop, seed)))
            }
            FabricKind::Udp => Net::Udp(UdpFabric::new()),
        };
        let hard = HardConfig::builder()
            .reliable(cfg.reliable)
            .build()
            .map_err(|e| err("config", e))?;
        let telemetry = Telemetry::new();
        let start = |addr| {
            Nic::start_with_telemetry(net.fabric(), addr, hard.clone(), Arc::clone(&telemetry))
                .map_err(|e| err("nic start", e))
        };
        let server_nic = start(SERVER)?;
        let client_nic = start(CLIENT)?;
        for nic in [&server_nic, &client_nic] {
            nic.softregs()
                .set_batch_size(dagger_types::config::MAX_BATCH)
                .map_err(|e| err("batch size", e))?;
            nic.softregs().set_auto_batch(true);
        }
        if let Some((spec, entries)) = &cfg.offload {
            if !server_nic.configure_offload(spec.clone()) {
                return Err("offload spec rejected".to_string());
            }
            server_nic.softregs().set_nic_serde(true);
            server_nic.softregs().set_offload_cache_entries(*entries);
        }
        let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
        server
            .register_service(service)
            .map_err(|e| err("register service", e))?;
        server.start().map_err(|e| err("server start", e))?;
        let pool = RpcClientPool::connect(Arc::clone(&client_nic), SERVER, 1)
            .map_err(|e| err("connect", e))?;
        let client = pool.client(0).map_err(|e| err("client", e))?;
        Ok(Stack {
            net,
            telemetry,
            server_nic,
            client_nic,
            server,
            pool,
            client,
            reliable: cfg.reliable,
        })
    }

    /// Full names of every gauge this stack must publish.
    pub fn required_gauges(&self) -> Vec<String> {
        let mut names = Vec::new();
        for addr in [SERVER.raw(), CLIENT.raw()] {
            let suffixes = NIC_GAUGES
                .iter()
                .chain(RELIABLE_GAUGES.iter().filter(|_| self.reliable));
            for s in suffixes {
                names.push(format!("nic.{addr}.{s}"));
            }
        }
        names
    }

    /// Stops the server, closes the client and shuts both NICs down,
    /// joining every thread the stack started.
    pub fn stop(self) {
        let Stack {
            net,
            server_nic,
            client_nic,
            mut server,
            pool,
            client,
            ..
        } = self;
        server.stop();
        drop(client);
        drop(pool);
        client_nic.shutdown();
        server_nic.shutdown();
        // The fabric goes last: its UDP pumps serve the NICs until they
        // are gone.
        drop(server);
        drop(client_nic);
        drop(server_nic);
        drop(net);
    }
}
