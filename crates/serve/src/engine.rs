//! The sharded streaming engine: lazy arrivals → pipelined preparation
//! → sequential in-order commits against the [`ShardedPool`].
//!
//! # Pipeline shape
//!
//! Per submission the expensive work is *preparation* — materializing
//! the workflow from its ticket seed and scheduling the cold one-shot
//! reference — neither of which touches the pool. The commit step
//! (warm-index query → pooled schedule → pool mutation) is cheap but
//! order-sensitive. So the engine splits them:
//!
//! ```text
//! TicketStream ──► job channel ──► workers: realize + cold reference
//!      ▲                                   │ (both under obs::quiet)
//!      │ one new ticket per commit         ▼
//!      └──────── committer ◄─── reorder buffer ◄─── result channel
//!                 (this thread, strict arrival order)
//! ```
//!
//! The committer holds a credit window of `epoch` tickets in flight and
//! commits strictly in arrival order through a reorder buffer, so the
//! pool sees the identical operation sequence at any thread count —
//! and, because preparation is muted with [`cws_obs::quiet`] exactly
//! like the legacy engine's cold reference, the trace byte stream is
//! identical too. With `threads <= 1` the same sequence runs inline on
//! one thread, no channels involved.
//!
//! Memory is bounded by the credit window plus the live pool: tickets
//! are ~40 bytes, workflows exist only between preparation and their
//! commit, and terminated machines fold into the running
//! [`ReportAccumulator`] (rental order) and are dropped.

use crate::shard::ShardedPool;
use cws_core::pooled::{pooled_static, pooled_static_with};
use cws_core::StaticAlloc;
use cws_dag::Workflow;
use cws_obs as obs;
use cws_platform::{InstanceType, Platform};
use cws_service::{
    ArrivalTicket, ReportAccumulator, ServiceConfig, ServiceReport, ServiceSummary, TicketStream,
    WorkflowRecord, WorkloadKind,
};
use std::collections::BTreeMap;

/// Gauge reporting the shard count of the last sharded run.
pub const SERVICE_SHARDS: &str = "service.shards";

/// A [`ServiceConfig`] plus the sharding/pipelining knobs. The knobs
/// never change observable output — that is the engine's contract,
/// enforced by the shard-invariance test matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// The run itself (strategy, tenants, arrivals, seed, …).
    pub service: ServiceConfig,
    /// Warm-pool shard count.
    pub shards: usize,
    /// Preparation worker threads; `<= 1` runs fully inline.
    pub threads: usize,
    /// Credit window: tickets in flight per event-epoch. Bounds the
    /// reorder buffer and the number of live workflows.
    pub epoch: usize,
}

impl ShardedConfig {
    /// Single-shard, single-threaded configuration with the default
    /// credit window — observably identical to `run_service`.
    #[must_use]
    pub fn new(service: ServiceConfig) -> Self {
        ShardedConfig {
            service,
            shards: 1,
            threads: 1,
            epoch: 64,
        }
    }
}

/// A submission after the parallel preparation stage: everything the
/// committer needs, in a form that crossed the channel.
struct Prepared {
    tenant: usize,
    time: f64,
    wf: Workflow,
    cold_makespan_s: f64,
}

impl Prepared {
    /// Prepare one ticket. Runs muted: preparation happens on worker
    /// threads in nondeterministic real-time order, so nothing it does
    /// may reach the trace or metrics streams (the legacy engine mutes
    /// its cold reference the same way; ticket realization emits
    /// nothing but is muted for symmetry).
    fn prepare(
        ticket: &ArrivalTicket,
        kinds: &[WorkloadKind],
        platform: &Platform,
        alloc: StaticAlloc,
        itype: InstanceType,
    ) -> Prepared {
        let wf = obs::quiet(|| ticket.realize(kinds[ticket.tenant]));
        let cold_makespan_s = obs::quiet(|| {
            pooled_static(&wf, platform, alloc, itype, &[])
                .schedule
                .makespan()
        });
        Prepared {
            tenant: ticket.tenant,
            time: ticket.time,
            wf,
            cold_makespan_s,
        }
    }
}

/// Commit one prepared submission. Single-threaded, strict arrival
/// order — this is where every trace event of the run is born, which is
/// what makes the byte stream thread-count-invariant.
fn commit_one(
    platform: &Platform,
    alloc: StaticAlloc,
    itype: InstanceType,
    pool: &mut ShardedPool,
    acc: &mut ReportAccumulator,
    p: &Prepared,
) {
    let now = p.time;
    pool.reclaim_until(now);
    pool.drain_folded(acc, platform);
    let pooled = pooled_static_with(&p.wf, platform, alloc, itype, &pool.warm_index(now));
    let queue_delay_s = pooled
        .schedule
        .placements
        .iter()
        .map(|pl| pl.start)
        .fold(f64::INFINITY, f64::min);
    let record = WorkflowRecord {
        tenant: p.tenant,
        arrival_s: now,
        makespan_s: pooled.schedule.makespan(),
        cold_makespan_s: p.cold_makespan_s,
        queue_delay_s,
        pool_hits: pooled.pool_hits(),
        cold_rentals: pooled.cold_rentals(),
        tasks: p.wf.len(),
    };
    acc.record(&record);
    if obs::metrics_enabled() && record.queue_delay_s.is_finite() {
        obs::MetricsRegistry::global()
            .histogram(obs::metrics::names::SERVICE_QUEUE_WAIT)
            .record((record.queue_delay_s * 1000.0).round() as u64);
    }
    pool.commit_indexed(now, p.tenant, &pooled, platform);
}

/// Run the sharded engine and fold the whole run into an accumulator.
fn drive(platform: &Platform, cfg: &ShardedConfig) -> ReportAccumulator {
    let svc = &cfg.service;
    let platform = platform.clone().with_boot_time(svc.boot_time_s);
    let kinds: Vec<WorkloadKind> = svc.tenants.iter().map(|t| t.kind).collect();
    let (alloc, itype) = (svc.alloc, svc.itype);

    let mut pool = ShardedPool::new(svc.reclaim, cfg.shards.max(1));
    let mut acc = ReportAccumulator::new(svc.tenants.len());
    let mut tickets = TicketStream::new(&svc.tenants, &svc.model, svc.seed);

    if cfg.threads <= 1 {
        for ticket in tickets {
            let p = Prepared::prepare(&ticket, &kinds, &platform, alloc, itype);
            commit_one(&platform, alloc, itype, &mut pool, &mut acc, &p);
        }
    } else {
        let window = cfg.epoch.max(cfg.threads).max(1);
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<(usize, ArrivalTicket)>();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, Prepared)>();
        let platform_ref = &platform;
        let kinds_ref = &kinds;
        let pool_ref = &mut pool;
        let acc_ref = &mut acc;
        crossbeam::thread::scope(move |scope| {
            for _ in 0..cfg.threads {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move |_| {
                    while let Ok((idx, ticket)) = job_rx.recv() {
                        let p = Prepared::prepare(&ticket, kinds_ref, platform_ref, alloc, itype);
                        // A send can only fail if the committer died;
                        // its panic is the one worth reporting.
                        let _ = res_tx.send((idx, p));
                    }
                });
            }
            drop(job_rx);
            drop(res_tx);

            // Credit window: keep `window` tickets in flight, refill
            // one per commit. The reorder buffer therefore never holds
            // more than `window` prepared workflows.
            let mut job_tx = Some(job_tx);
            let mut sent = 0usize;
            let mut send_next = |tx: &mut Option<crossbeam::channel::Sender<_>>| {
                if let Some(sender) = tx {
                    if let Some(t) = tickets.next() {
                        // Invariant: every worker holds the receiver until
                        // this sender disconnects; a send can only fail if
                        // a worker panicked, which already aborts the run.
                        // cws-lint: allow(unwrap-in-kernel)
                        sender.send((sent, t)).expect("workers outlive the stream");
                        sent += 1;
                        return true;
                    }
                    *tx = None; // stream dry: disconnect so workers exit
                }
                false
            };
            let mut inflight = 0usize;
            for _ in 0..window {
                if !send_next(&mut job_tx) {
                    break;
                }
                inflight += 1;
            }

            let mut buffer: BTreeMap<usize, Prepared> = BTreeMap::new();
            let mut next_commit = 0usize;
            while inflight > 0 {
                // Invariant: `inflight > 0` means some worker still owns a
                // job and the result sender; recv fails only after a worker
                // panic, which must abort rather than deadlock.
                // cws-lint: allow(unwrap-in-kernel)
                let (idx, p) = res_rx.recv().expect("a worker died with jobs in flight");
                buffer.insert(idx, p);
                while let Some(p) = buffer.remove(&next_commit) {
                    commit_one(platform_ref, alloc, itype, pool_ref, acc_ref, &p);
                    next_commit += 1;
                    inflight -= 1;
                    if send_next(&mut job_tx) {
                        inflight += 1;
                    }
                }
            }
        })
        // Invariant: scoped-thread join returns Err only on a panic in
        // the pipeline closure; propagating it is the correct abort.
        // cws-lint: allow(unwrap-in-kernel)
        .expect("sharded pipeline thread panicked");
    }

    pool.finish();
    pool.drain_folded(&mut acc, &platform);
    debug_assert_eq!(pool.pending_fold(), 0, "every machine folded");

    if obs::metrics_enabled() {
        let reg = obs::MetricsRegistry::global();
        let (hits, cold) = acc.rentals();
        if hits + cold > 0 {
            reg.gauge(obs::metrics::names::RUN_POOL_HIT_RATE)
                .set(hits as f64 / (hits + cold) as f64);
        }
        reg.gauge(SERVICE_SHARDS).set(cfg.shards.max(1) as f64);
    }
    acc
}

/// Run the sharded engine, producing the full per-tenant report —
/// byte-identical (JSON and trace) to [`cws_service::run_service`] on
/// the same [`ServiceConfig`], at any shard and thread count.
#[must_use]
pub fn run_sharded_service(platform: &Platform, cfg: &ShardedConfig) -> ServiceReport {
    drive(platform, cfg).finish_report(&cfg.service)
}

/// Run the sharded engine, producing the bounded [`ServiceSummary`]
/// (`--report summary`): fleet aggregates plus histogram percentiles,
/// `O(1)` output for any tenant count.
#[must_use]
pub fn run_sharded_summary(platform: &Platform, cfg: &ShardedConfig) -> ServiceSummary {
    drive(platform, cfg).finish_summary(&cfg.service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_service::{run_service, ArrivalModel, ReclaimPolicy, TenantSpec, WorkloadKind};

    fn config(seed: u64) -> ServiceConfig {
        ServiceConfig {
            alloc: StaticAlloc::HeftStartParExceed,
            itype: InstanceType::Small,
            reclaim: ReclaimPolicy::AtBtuBoundary,
            boot_time_s: 120.0,
            tenants: vec![
                TenantSpec {
                    name: "astro".to_string(),
                    kind: WorkloadKind::Montage24,
                    rate_per_hour: 6.0,
                },
                TenantSpec {
                    name: "climate".to_string(),
                    kind: WorkloadKind::CStem,
                    rate_per_hour: 4.0,
                },
            ],
            model: ArrivalModel::Poisson {
                horizon_s: 2.0 * 3600.0,
            },
            seed,
        }
    }

    #[test]
    fn sharded_report_matches_legacy_byte_for_byte() {
        let p = Platform::ec2_paper();
        let legacy = run_service(&p, &config(42)).to_json();
        for shards in [1, 3] {
            for threads in [1, 4] {
                let cfg = ShardedConfig {
                    service: config(42),
                    shards,
                    threads,
                    epoch: 8,
                };
                let got = run_sharded_service(&p, &cfg).to_json();
                assert_eq!(got, legacy, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn summary_fleet_matches_full_report_fleet() {
        let p = Platform::ec2_paper();
        let cfg = ShardedConfig::new(config(7));
        let full = run_sharded_service(&p, &cfg);
        let summary = run_sharded_summary(&p, &cfg);
        assert_eq!(summary.fleet, full.fleet);
        assert_eq!(summary.strategy, full.strategy);
        assert!(summary.p50_makespan_ms <= summary.p99_makespan_ms);
    }

    #[test]
    fn tiny_credit_window_still_commits_in_order() {
        let p = Platform::ec2_paper();
        let legacy = run_service(&p, &config(1337)).to_json();
        let cfg = ShardedConfig {
            service: config(1337),
            shards: 2,
            threads: 3,
            epoch: 1, // degenerate window: one ticket in flight per worker refill
        };
        assert_eq!(run_sharded_service(&p, &cfg).to_json(), legacy);
    }
}
