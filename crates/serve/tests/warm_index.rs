//! The pool's availability index (`ShardedPool::warm_index`) against
//! the snapshot it replaced (`ShardedPool::warm_slots`), which stays
//! the reference: on random pools, planning against either source must
//! give the same schedule, claim the same machines and do the same
//! kernel work — the index only skips machines that cannot be chosen.

use cws_core::pooled::{pooled_static, pooled_static_with, PooledSchedule};
use cws_core::StaticAlloc;
use cws_dag::Workflow;
use cws_obs as obs;
use cws_obs::metrics::names;
use cws_platform::{InstanceType, Platform, Region, BTU_SECONDS};
use cws_serve::ShardedPool;
use cws_service::{PoolVm, ReclaimPolicy};
use cws_workloads::random::{layered_dag, LayeredShape};
use cws_workloads::Scenario;
use proptest::prelude::*;

/// Wall time of the first submission; machines were rented before it.
const NOW: f64 = 10.0 * BTU_SECONDS;

/// SplitMix64: a seeded stream for building pools.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// `n` live machines of mixed types and regions, idle and busy. Rental
/// starts and availabilities come from small sets, so equal
/// `available_at` and equal `btu_elapsed` values are common and the
/// tie-breaks decide.
fn random_pool(seed: u64, n: usize, policy: ReclaimPolicy, p: &Platform) -> ShardedPool {
    let mut mix = Mix(seed);
    let mut pool = ShardedPool::new(policy, 3);
    for _ in 0..n {
        let itype = mix.pick(&[
            InstanceType::Small,
            InstanceType::Medium,
            InstanceType::Large,
        ]);
        let region = mix.pick(&[p.default_region, Region::UsWestOregon, Region::EuDublin]);
        let rented_at = NOW - mix.pick(&[0.0, 600.0, 1800.0, 3500.0, 3600.0, 7000.0]);
        let wait = mix.pick(&[-500.0, -100.0, 0.0, 0.0, 60.0, 120.0, 300.0, 900.0, 5000.0]);
        let available_at = (NOW + wait).max(rented_at);
        let busy_s = available_at - rented_at;
        pool.insert_raw(PoolVm {
            itype,
            region,
            rented_at,
            available_at,
            terminated_at: None,
            busy_s,
            busy_by_tenant: vec![(0, busy_s)],
            intervals: vec![(rented_at, available_at)],
            workflows_served: 1,
            price_per_btu: p.price_in(region, itype),
        });
    }
    pool
}

fn random_workflow(seed: u64) -> Workflow {
    let wf = layered_dag(LayeredShape {
        levels: 1 + (seed % 4) as usize,
        min_width: 1,
        max_width: 4,
        edge_prob: 0.5,
        seed,
    });
    Scenario::Pareto { seed }.apply(&wf)
}

/// The kernel counters the index must leave unchanged.
fn counters() -> [u64; 3] {
    let reg = obs::MetricsRegistry::global();
    [
        reg.counter(names::KERNEL_PROBES).get(),
        reg.counter(names::KERNEL_KEY_BUILDS).get(),
        reg.counter(names::POOL_HITS).get(),
    ]
}

/// Run `plan` and return its result with the counter increments.
fn counted(plan: impl FnOnce() -> PooledSchedule) -> (PooledSchedule, [u64; 3]) {
    let before = counters();
    let ps = plan();
    let after = counters();
    (ps, [0, 1, 2].map(|i| after[i] - before[i]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_plans_equal_snapshot_plans(
        seed in 0u64..1_000_000,
        n in 0usize..60,
        boot in (0usize..2).prop_map(|i| [0.0, 120.0][i]),
        itype in (0usize..2).prop_map(|i| [InstanceType::Small, InstanceType::Medium][i]),
        immediate in (0usize..4).prop_map(|i| i == 0),
    ) {
        obs::set_metrics_enabled(true);
        let p = Platform::ec2_paper().with_boot_time(boot);
        let policy = if immediate { ReclaimPolicy::Immediate } else { ReclaimPolicy::AtBtuBoundary };
        let mut pool = random_pool(seed, n, policy, &p);
        // A few submissions in a row, so claims, leases and reclaims
        // move machines through the index between queries.
        for (step, now) in [NOW, NOW, NOW + 200.0, NOW + 4000.0].into_iter().enumerate() {
            pool.reclaim_until(now);
            let wf = random_workflow(seed.wrapping_add(step as u64));
            let mut commit = None;
            for alloc in StaticAlloc::LEGEND_ORDER {
                let (warm, slot_map) = pool.warm_slots(now);
                let (mut reference, ref_work) =
                    counted(|| pooled_static(&wf, &p, alloc, itype, &warm));
                for origin in reference.origins.iter_mut().flatten() {
                    *origin = slot_map[*origin];
                }
                let (indexed, work) = counted(|| {
                    pooled_static_with(&wf, &p, alloc, itype, &pool.warm_index(now))
                });
                prop_assert_eq!(&indexed, &reference, "{:?} step {}", alloc, step);
                prop_assert_eq!(work, ref_work, "probes, key builds, hits: {:?} step {}", alloc, step);
                if alloc.provisioning().is_not_exceed() == (step % 2 == 0) {
                    commit = Some(indexed);
                }
            }
            if let Some(ps) = commit {
                pool.commit_indexed(now, 0, &ps, &p);
            }
        }
        obs::set_metrics_enabled(false);
    }
}
