//! # blitz-servicebench — the repository's end-to-end benchmark
//!
//! The `service` binary measures what a caller of `blitzsplit serve`
//! waits for: it starts the real server binary as a separate process,
//! drives it over loopback TCP from this process alone, checks every
//! answer against a reference computed in-process, and reports one set of
//! end-to-end metrics per workload. A separate traced run replays the
//! same requests in-process through the service's public layer functions
//! and attributes the time to layers. See `main.rs` for the workloads,
//! the metrics and the layer each per-layer metric should move.

#![warn(missing_docs)]

pub mod check;
pub mod host;
pub mod load;
pub mod replay;
pub mod report;
pub mod run;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workload;
