//! # microlib-serve
//!
//! Campaign-as-a-service for MicroLib: a std-only HTTP/1.1 daemon that
//! turns the campaign engine into a query engine. Clients `POST` a
//! campaign spec — benchmarks × mechanisms × [`ConfigDelta`]-style
//! overrides × window/sampling mode — and the daemon streams one NDJSON
//! line per cell as it completes, answering from the same
//! [`ArtifactStore`](microlib::ArtifactStore) / disk-cache / lease stack
//! the batch binaries use.
//!
//! What the daemon adds on top of the store:
//!
//! - **single-flight**: identical concurrent cells are computed once per
//!   process (store-level coalescing) and once per *fleet* (PR-7 lease
//!   files, when a shared cache directory is configured);
//! - **admission control**: a fixed pool of connection handlers (503 +
//!   `Retry-After` when it and its queue are full), a bounded cell
//!   queue, interactive queries scheduled ahead of batch sweeps, overload
//!   answered with 429 + `Retry-After`;
//! - **fault isolation**: a cell that panics streams an error line and
//!   leaves its worker serving;
//! - **resident artifacts**: hot `WarmState` artifacts stay in memory
//!   between requests under a byte-capped LRU
//!   (`MICROLIB_SERVE_RESIDENT_MB`);
//! - **telemetry**: `/metrics` exports stable hit/miss/coalesce/eviction
//!   counters, per-endpoint latency histograms, queue depth, in-flight
//!   cells and RSS; `/healthz` answers readiness;
//! - **graceful drain**: SIGTERM finishes in-flight cells, fsyncs the
//!   memo journal and releases every lease before exit.
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/campaign` | POST | submit a spec, stream NDJSON results |
//! | `/metrics`  | GET  | counters + histograms + gauges |
//! | `/healthz`  | GET  | readiness probe |
//!
//! [`ConfigDelta`]: microlib_miner::ConfigDelta

pub mod client;
pub mod json;
pub mod metrics;
pub mod server;
pub mod spec;

pub use client::{CampaignOutcome, Client, HttpResponse};
pub use metrics::{metric_value, rss_bytes, Metrics};
pub use server::{Server, ServerConfig};
pub use spec::{render_error, render_result, run_cell, CampaignSpec, CellSpec, Class};
