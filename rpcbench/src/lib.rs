//! End-to-end and per-layer RPC benchmark for the Dagger stack.
//!
//! One process builds a client/server pair through the public API
//! (`Nic::start_with_telemetry`, `RpcThreadedServer`, `RpcClientPool`,
//! IDL-generated services, `MemFabric`/`UdpFabric`, `dagger_kvs`), drives
//! one workload from a single generator thread and checks every reply.
//! See `README.md` next to this crate for the workloads and metrics.

pub mod counters;
pub mod loadgen;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
