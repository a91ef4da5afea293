//! Distributed-cluster substrate for ParMAC.
//!
//! The paper runs ParMAC on a 128-processor MPI cluster and a 64-core
//! shared-memory machine. This crate replaces that hardware with
//! interchangeable execution engines behind the [`ClusterBackend`] trait
//! ([`backend`]), all implementing the same ring protocol of §4.1:
//!
//! * [`sim`] — a **deterministic, synchronous-tick simulator**. Machines,
//!   their data shards and the circulating submodels are explicit; per-tick
//!   computation and communication times are charged according to a
//!   [`CostModel`] (the same `t_r^W`, `t_c^W`, `t_r^Z` quantities the paper's
//!   speedup model uses), so simulated speedup curves can be compared with the
//!   theoretical prediction (fig. 10). Fault injection (§4.3) is supported.
//! * [`threaded`] — the **in-process ring on real threads**: one OS thread
//!   per machine, crossbeam channels as the unidirectional ring network, and
//!   the asynchronous queue-per-machine protocol described in §4.1 (each
//!   submodel carries a visit counter; a final communication-only lap
//!   distributes the finished submodels), plus the shard-parallel Z step.
//!   [`server`] trains through it.
//! * [`pool`] — a **work-stealing thread-pool backend** (the paper's
//!   shared-memory configuration, §8.5): the Z step splits shards into point
//!   chunks any worker can steal, the W step trains the submodels queued at
//!   one machine concurrently on the local workers. Results stay bitwise
//!   identical to the simulator's.
//! * [`server`] — a **sharded-server backend**: training on the [`threaded`]
//!   ring, and a resident serving fleet of long-lived machine actors behind
//!   typed crossbeam mailboxes answering Hamming k-NN queries *during*
//!   training through a [`QueryRouter`] — training and retrieval from the
//!   same process. The fleet is replicated and self-healing: a replication
//!   factor places each shard on several machines, the router fails over
//!   across live replicas under a bounded deadline, answers carry explicit
//!   coverage, and a health-tracker-driven rebalancer re-replicates shards
//!   when machines die or join.
//! * [`process`] — a **multi-process backend**: each ring machine is an OS
//!   process (`parmac-machined`) connected over Unix-domain sockets speaking
//!   length-prefixed [`wire`] frames. A [`process::FleetLauncher`] spawns and
//!   supervises the workers (heartbeats, exit reaping, socket EOF) and turns
//!   a dead process into the same §4.3 fault event the in-process backends
//!   use, so training completes bitwise identical to the simulator even when
//!   a worker is SIGKILLed mid-step.
//!
//! Supporting modules: [`topology`] (the circular topology, including the
//!   random re-wiring used for cross-machine shuffling), [`envelope`] (the
//!   per-submodel protocol metadata: counters and visit lists), [`cost`]
//!   (cost models and step statistics), [`streaming`] (adding/removing data
//!   and machines on the fly) and [`wire`] (byte-level envelope/message
//!   codecs, the groundwork for a multi-process MPI backend).
//!
//! The backends are generic over the submodel type `S` and the update/solve
//! closures, so they contain no knowledge of binary autoencoders;
//! `parmac-core` supplies the actual W-step and Z-step work through the
//! [`ClusterBackend`] methods.

#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod envelope;
pub mod pool;
pub mod process;
pub(crate) mod replica;
pub mod server;
pub mod sim;
pub mod streaming;
pub mod threaded;
pub mod topology;
pub(crate) mod waits;
pub mod wire;

pub use backend::{ClusterBackend, SimBackend, ZUpdate};
pub use cost::{ring_hops, CostModel, StepTimings, WStepStats, ZStepStats};
pub use envelope::SubmodelEnvelope;
pub use pool::PoolBackend;
pub use process::{FleetLauncher, MachineDown, MachineDownReason, ProcessBackend, ProcessConfig};
pub use server::{
    AdmissionConfig, AdmissionError, Coverage, FleetStatus, KnnResponse, MachineMsg, Query,
    QueryReply, QueryRouter, ReplicationConfig, ServerBackend, ServingStats, ShardHits,
};
pub use sim::{Fault, SimCluster};
pub use threaded::run_w_step_threaded;
pub use topology::RingTopology;
pub use wire::{WireCode, WireError, WireQuery};
