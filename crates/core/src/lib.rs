//! Cloud workflow scheduling: VM provisioning policies and task
//! allocation strategies.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Comparing Provisioning and Scheduling Strategies for Workflows on
//! Clouds*, IPDPS CloudFlow 2013). It implements:
//!
//! * the five **VM provisioning policies** of Sect. III-A —
//!   [`ProvisioningPolicy::OneVmPerTask`], `StartParNotExceed`,
//!   `StartParExceed`, `AllParNotExceed` and `AllParExceed`,
//! * the seven **task allocation strategies** of Sect. III-B — HEFT
//!   (paired with the three start-par/one-per-task provisioners),
//!   the stand-alone level-ranking `AllPar[Not]Exceed` schedulers, the
//!   dynamic budget-driven `CPA-Eager` and `Gain`, and the
//!   parallelism-reducing `AllPar1LnS` / `AllPar1LnSDyn`,
//! * the BTU-accurate [`Schedule`] representation with makespan, rental
//!   cost and idle-time [metrics](metrics::ScheduleMetrics) plus full
//!   validity checking,
//! * the [adaptive strategy selector](adaptive) that operationalises the
//!   paper's Table V.
//!
//! The entry point for most users is [`Strategy`]: each of the paper's 19
//! figure-legend entries is a `Strategy` value whose
//! [`schedule`](Strategy::schedule) method maps a workflow onto VMs.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod alloc;
pub mod compare;
pub mod frontier;
pub mod gantt;
pub mod metrics;
pub mod pooled;
pub mod provisioning;
pub mod schedule;
pub mod state;
pub mod strategy;
pub mod vm;

#[cfg(test)]
mod fastpath_tests;

pub use compare::{compare, compare_strategies, ScheduleComparison};
pub use metrics::{RelativeMetrics, ScheduleMetrics};
pub use pooled::{pooled_static, pooled_static_with, PooledSchedule, WarmOffers, WarmVm};
pub use provisioning::ProvisioningPolicy;
pub use schedule::{Schedule, ScheduleError, TaskPlacement, VmMetrics};
pub use state::{BatchProbe, KernelTables, ScheduleBuilder, TaskProbe};
pub use strategy::{DynamicBudgets, StaticAlloc, Strategy};
pub use vm::{Vm, VmId};
