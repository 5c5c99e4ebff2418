//! `cws-serve` — the sharded streaming service engine and the
//! workflow-submission daemon.
//!
//! `cws-service` proves the paper's strategies work *as a service*: one
//! synchronous loop, one warm pool, eager reports. This crate is the
//! production-shaped version of that engine, under one non-negotiable
//! contract: **sharding and threading are invisible**. Reports and
//! trace byte streams are identical to `run_service`'s, at any shard
//! count and any thread count — enforced by the shard-invariance test
//! matrix and the seed-matrix CI gate, and argued for in DESIGN.md §12.
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | [`shard`] | the [`ShardedPool`]: per-region shards with their own event queues and billing meters, merged in global rental order, plus the availability index submissions plan against |
//! | [`engine`] | the pipelined executor: lazy [`cws_service::TicketStream`] arrivals, parallel preparation under [`cws_obs::quiet`], strict in-order commits |
//! | [`wire`] | the JSON-lines workflow interchange format (first cut) |
//! | [`daemon`] | the long-lived `cws-exp serve --listen` daemon: socket accept loop around a [`ServeCore`] |
//!
//! Memory scales with the *live* pool and the credit window, not the
//! run length: tickets stream lazily, workflows exist only between
//! preparation and commit, terminated machines fold into the running
//! [`cws_service::ReportAccumulator`] and are dropped. That is what
//! lets a million-tenant synthetic trace run in constant memory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod daemon;
pub mod engine;
pub mod shard;
pub mod wire;

pub use daemon::{Daemon, ServeCore, ServeOptions, SubmitOutcome};
pub use engine::{run_sharded_service, run_sharded_summary, ShardedConfig, SERVICE_SHARDS};
pub use shard::{shard_metric, Shard, ShardRouter, ShardedPool, WarmIndex};
pub use wire::{parse_request, parse_workflow, workflow_to_json, Request};
