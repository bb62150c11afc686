#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! zkperf-serve: a fault-tolerant proving-as-a-service daemon.
//!
//! The paper measures zk-SNARK stages in isolation; this crate puts the
//! same pipeline behind a service boundary and measures what operators
//! actually run: a long-lived job server with
//!
//! - **admission control** — a bounded queue with per-job memory-cost
//!   accounting; overload is rejected with a typed [`RejectReason`]
//!   rather than absorbed,
//! - **per-job deadlines** — cooperative cancellation via
//!   [`zkperf_pool::CancelToken`]; kernels stop at stage boundaries, so
//!   determinism is never sacrificed to a kill,
//! - **retries** — of what a second attempt can change (an injected
//!   fault, an artifact-cache read or write), with capped jittered
//!   exponential backoff from [`RetryPolicy`], deterministic under a fixed
//!   seed; a job that fails on its own inputs fails on its first attempt,
//! - **circuit breakers** — circuit shapes that fail repeatedly are
//!   quarantined for a cooldown instead of burning the queue,
//! - **graceful degradation** — under overload the lowest-priority jobs
//!   are shed first and the service falls back to verify-only; shutdown
//!   drains to a checkpoint that a successor process can resume,
//! - **artifact caching** — compiled R1CS and setup keys live in a
//!   content-addressed disk cache on checksummed containers; corrupt
//!   entries are detected, evicted, and rebuilt — never served.
//!
//! Proofs are bit-reproducible: setup randomness derives from the circuit
//! content key and proving randomness from the job's inputs, so a retried,
//! shed-and-resubmitted, or checkpoint-resumed job yields byte-identical
//! proof to a serial run of the same spec ([`prove_serial`]).
//!
//! The server is also the workspace's one stage-boundary fault injector:
//! [`ServerConfig::chaos`] takes a seed, and a [`FaultPlan`] derived from
//! it fails boundaries with `StageError::Injected`, which the retry loop
//! absorbs.
//!
//! The `loadgen` binary replays an open-loop mixed trace through the
//! server (optionally under `--chaos SEED`) and reports per-stage
//! p50/p99/p99.9 latencies plus cost-per-proof.

mod breaker;
mod cache;
mod fault;
mod job;
mod metrics;
mod queue;
mod retry;
mod server;

pub use breaker::{BreakerDecision, CircuitBreaker};
pub use cache::{content_key, ArtifactCache, CacheEntry, CacheStats, LoadTiming};
pub use fault::FaultPlan;
pub use job::{CircuitSpec, JobId, JobKind, JobOutcome, JobSpec, Priority, RejectReason};
pub use metrics::{
    LatencyRecorder, MemoryStats, ServeReport, StageRow, StageTable, DEFAULT_DOLLARS_PER_CPU_HOUR,
};
pub use queue::{AdmissionConfig, AdmissionQueue, QueuedJob};
pub use retry::RetryPolicy;
pub use server::{prove_serial, ResumeOutcomes, ServerConfig, ServiceMode, Server};
