//! The campaign's published `run.pool_hit_rate` gauge. It lives in its
//! own test binary because the metrics registry is process-global: a
//! concurrent test running the service would move the gauge.

use cws_core::StaticAlloc;
use cws_obs::metrics::names::RUN_POOL_HIT_RATE;
use cws_obs::MetricsRegistry;
use cws_platform::{InstanceType, Platform};
use cws_service::{
    run_campaign, CampaignReport, CampaignSpec, ReclaimPolicy, TenantSpec, WorkloadKind,
};

fn spec() -> CampaignSpec {
    CampaignSpec {
        rates_per_hour: vec![3.0, 9.0],
        strategies: vec![
            (StaticAlloc::HeftStartParExceed, InstanceType::Small),
            (StaticAlloc::AllParNotExceed, InstanceType::Small),
        ],
        reclaims: vec![ReclaimPolicy::Immediate, ReclaimPolicy::AtBtuBoundary],
        tenants: vec![
            TenantSpec {
                name: "astro".to_string(),
                kind: WorkloadKind::Montage24,
                rate_per_hour: 0.0,
            },
            TenantSpec {
                name: "batch".to_string(),
                kind: WorkloadKind::BagOfTasks(12),
                rate_per_hour: 0.0,
            },
        ],
        horizon_s: 2.0 * 3600.0,
        boot_time_s: 45.0,
        seed: 1234,
    }
}

/// Pool hits over all rentals of every cell.
fn grid_hit_rate(report: &CampaignReport) -> f64 {
    let hits: usize = report.cells.iter().map(|c| c.report.fleet.pool_hits).sum();
    let cold: usize = report
        .cells
        .iter()
        .map(|c| c.report.fleet.cold_rentals)
        .sum();
    hits as f64 / (hits + cold) as f64
}

/// The gauge holds the whole grid's hit rate, whichever cell a worker
/// finished last, so it is the same at one and at four threads.
#[test]
fn pool_hit_rate_is_the_grid_rate_at_any_thread_count() {
    let p = Platform::ec2_paper();
    let spec = spec();
    cws_obs::set_metrics_enabled(true);
    let mut published = Vec::new();
    for threads in [1, 4] {
        MetricsRegistry::global().reset();
        let report = run_campaign(&p, &spec, threads);
        let gauge = MetricsRegistry::global()
            .snapshot()
            .gauge(RUN_POOL_HIT_RATE)
            .expect("the campaign published a hit rate");
        assert_eq!(
            gauge.to_bits(),
            grid_hit_rate(&report).to_bits(),
            "threads={threads}"
        );
        published.push(gauge.to_bits());
    }
    cws_obs::set_metrics_enabled(false);
    assert_eq!(published[0], published[1]);
}
