//! The sharded engine's central contract: shard count and thread count
//! are **invisible**. For every seed in the CI seed matrix, the report
//! JSON and the trace byte stream produced by the sharded engine must
//! be byte-identical to the legacy `run_service` — and therefore to
//! each other — across shards ∈ {1, 2, 8} × threads ∈ {1, 8}.
//!
//! The trace sink is process-global, so every test here serializes on
//! one lock and uninstalls the sink before releasing it.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use cws_core::StaticAlloc;
use cws_obs as obs;
use cws_platform::{InstanceType, Platform};
use cws_serve::{run_sharded_service, run_sharded_summary, ShardedConfig};
use cws_service::{
    run_service, run_service_summary, ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec,
    WorkloadKind,
};

static OBS_GUARD: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Write` handle into a shared byte buffer, so a `JsonlSink` can be
/// read back after the run.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `f` with a fresh JSONL trace sink installed; returns the result
/// and the exact bytes the run emitted.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<u8>) {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let sink = obs::JsonlSink::from_writer(Box::new(SharedBuf(bytes.clone())));
    obs::install_sink(Arc::new(sink));
    let result = f();
    obs::flush();
    obs::clear_sink();
    let captured = bytes.lock().expect("buffer poisoned").clone();
    (result, captured)
}

/// A 120 s-boot, BTU-boundary-reclaim run of `tenants` under `alloc`
/// for `hours` of arrivals.
fn config_with(
    seed: u64,
    alloc: StaticAlloc,
    tenants: Vec<TenantSpec>,
    hours: f64,
) -> ServiceConfig {
    ServiceConfig {
        alloc,
        itype: InstanceType::Small,
        reclaim: ReclaimPolicy::AtBtuBoundary,
        boot_time_s: 120.0,
        tenants,
        model: ArrivalModel::Poisson {
            horizon_s: hours * 3600.0,
        },
        seed,
    }
}

fn tenant(name: &str, kind: WorkloadKind, rate_per_hour: f64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        kind,
        rate_per_hour,
    }
}

/// Three light tenants (≤ 6 submissions/h each) over two hours.
fn config(seed: u64) -> ServiceConfig {
    let tenants = vec![
        tenant("astro", WorkloadKind::Montage24, 6.0),
        tenant("climate", WorkloadKind::CStem, 4.0),
        tenant("batch", WorkloadKind::BagOfTasks(16), 3.0),
    ];
    config_with(seed, StaticAlloc::HeftStartParExceed, tenants, 2.0)
}

/// One Montage24 tenant at 2000 submissions/h for a quarter hour: a
/// dense pool of hundreds of live machines, most of them busy.
fn dense(seed: u64, alloc: StaticAlloc) -> ServiceConfig {
    let tenants = vec![tenant("astro", WorkloadKind::Montage24, 2000.0)];
    config_with(seed, alloc, tenants, 0.25)
}

/// The full matrix from ISSUE/CI: seeds 7, 42, 1337 × shards 1, 2, 8 ×
/// threads 1, 8 — every cell byte-identical to legacy in both report
/// and trace.
#[test]
fn report_and_trace_are_invariant_across_shards_and_threads() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    for seed in [7_u64, 42, 1337] {
        let cfg = config(seed);
        let (legacy_report, legacy_trace) = traced(|| run_service(&platform, &cfg));
        let legacy_json = legacy_report.to_json();
        assert!(
            !legacy_trace.is_empty(),
            "seed {seed}: legacy run must emit trace events"
        );
        for shards in [1_usize, 2, 8] {
            for threads in [1_usize, 8] {
                let scfg = ShardedConfig {
                    service: cfg.clone(),
                    shards,
                    threads,
                    epoch: 64,
                };
                let (report, trace) = traced(|| run_sharded_service(&platform, &scfg));
                assert_eq!(
                    report.to_json(),
                    legacy_json,
                    "report diverged: seed {seed} shards {shards} threads {threads}"
                );
                assert!(
                    trace == legacy_trace,
                    "trace bytes diverged: seed {seed} shards {shards} threads {threads} \
                     (legacy {} bytes, sharded {} bytes)",
                    legacy_trace.len(),
                    trace.len()
                );
            }
        }
    }
}

/// Dense pools, where most warm machines cannot beat a cold boot, under
/// an Exceed and a NotExceed allocation (the latter filters warm slots
/// by their BTU budget): report and trace bytes equal legacy at shards
/// {1, 3} × threads {1, 4}.
#[test]
fn dense_pools_and_not_exceed_are_invariant() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    for alloc in [
        StaticAlloc::HeftStartParExceed,
        StaticAlloc::HeftStartParNotExceed,
    ] {
        let cfg = dense(42, alloc);
        let (legacy_report, legacy_trace) = traced(|| run_service(&platform, &cfg));
        let legacy_json = legacy_report.to_json();
        assert!(
            legacy_report.fleet.workflows > 300,
            "{alloc:?}: the dense profile must be dense"
        );
        for shards in [1_usize, 3] {
            for threads in [1_usize, 4] {
                let scfg = ShardedConfig {
                    service: cfg.clone(),
                    shards,
                    threads,
                    epoch: 64,
                };
                let (report, trace) = traced(|| run_sharded_service(&platform, &scfg));
                assert_eq!(
                    report.to_json(),
                    legacy_json,
                    "report diverged: {alloc:?} shards {shards} threads {threads}"
                );
                assert!(
                    trace == legacy_trace,
                    "trace bytes diverged: {alloc:?} shards {shards} threads {threads}"
                );
            }
        }
    }
}

/// The summary mode folds the same fleet numbers as the full report,
/// and is itself shard/thread-invariant.
#[test]
fn summary_is_invariant_and_consistent_with_full_report() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let cfg = config(42);
    let full = run_service(&platform, &cfg);
    let baseline = run_sharded_summary(&platform, &ShardedConfig::new(cfg.clone())).to_json();
    assert_eq!(
        run_service_summary(&platform, &cfg).to_json(),
        baseline,
        "legacy streaming summary == sharded summary"
    );
    for (shards, threads) in [(2, 1), (8, 8)] {
        let scfg = ShardedConfig {
            service: cfg.clone(),
            shards,
            threads,
            epoch: 16,
        };
        let summary = run_sharded_summary(&platform, &scfg);
        assert_eq!(
            summary.to_json(),
            baseline,
            "shards {shards} threads {threads}"
        );
        assert_eq!(
            summary.fleet, full.fleet,
            "summary fleet == full-report fleet"
        );
    }
}

/// Immediate reclaim (the no-reuse baseline) must also hold the
/// contract — it exercises the path where warm snapshots are empty and
/// every machine dies at its idle start.
#[test]
fn immediate_reclaim_is_invariant_too() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let mut cfg = config(7);
    cfg.reclaim = ReclaimPolicy::Immediate;
    cfg.boot_time_s = 0.0;
    let (legacy, legacy_trace) = traced(|| run_service(&platform, &cfg).to_json());
    let scfg = ShardedConfig {
        service: cfg.clone(),
        shards: 8,
        threads: 8,
        epoch: 32,
    };
    let (sharded, trace) = traced(|| run_sharded_service(&platform, &scfg).to_json());
    assert_eq!(sharded, legacy);
    assert!(
        trace == legacy_trace,
        "immediate-reclaim trace bytes diverged"
    );
}
