//! Pool-aware provisioning: the paper's static strategies scheduling
//! against a pool of **warm VMs** left over from earlier workflows.
//!
//! The paper evaluates every workflow in isolation: each run starts with
//! an empty infrastructure and every `pick_vm == None` decision rents a
//! fresh machine. An online service amortizes rentals across arrivals
//! instead — machines finishing one workflow stay warm (booted, inside a
//! paid BTU) and the next workflow may claim them. This module is the
//! bridge: it re-runs the paper's exact allocation logic but substitutes
//! a warm claim at the *rent-fresh* branch whenever a warm machine would
//! start the task no later than a cold one. With the paper's default
//! zero boot time the substitution is cost-only (timings are identical
//! to the offline schedule); with a non-zero [`Platform::boot_time_s`]
//! warm claims also start earlier, which is the classic cold-start
//! argument for pooling.
//!
//! All times here are **relative to the workflow's own clock** (task
//! zero of every workflow starts at `t >= 0`). The service layer owns
//! the translation to wall-clock time and the wall-clock billing of pool
//! machines; consequently the [`Schedule`]-level cost metrics of a
//! pooled schedule (which bill carried busy seconds again) are *not*
//! meaningful — use [`crate::schedule::Schedule::makespan`] freely, but
//! read costs from the service report.
//!
//! [`Platform::boot_time_s`]: cws_platform::Platform

use crate::alloc::heft::heft_order;
use crate::alloc::levelpar::level_et_descending;
use crate::schedule::Schedule;
use crate::state::ScheduleBuilder;
use crate::strategy::StaticAlloc;
use crate::vm::VmId;
use cws_dag::{TaskId, Workflow};
use cws_platform::{InstanceType, Platform, Region, BTU_SECONDS};
use std::fmt;

/// A warm machine offered to the scheduler, described relative to the
/// arriving workflow's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmVm {
    /// Instance type of the warm machine.
    pub itype: InstanceType,
    /// Region the machine runs in.
    pub region: Region,
    /// Earliest time (on the workflow's clock, `>= 0`) the machine is
    /// free. Zero for a machine already idle when the workflow arrives.
    pub available_rel: f64,
    /// Seconds already consumed inside the machine's current wall-clock
    /// BTU at `available_rel` — the budget the NotExceed policies test
    /// against.
    pub btu_elapsed: f64,
}

impl WarmVm {
    /// A warm machine idle since before the workflow arrived, fresh at a
    /// BTU boundary.
    #[must_use]
    pub fn idle(itype: InstanceType, region: Region) -> Self {
        WarmVm {
            itype,
            region,
            available_rel: 0.0,
            btu_elapsed: 0.0,
        }
    }

    /// The slot a pool machine rented at wall time `rented_at` and free
    /// from `available_at` offers to a workflow arriving at `now`: its
    /// wait on the workflow's clock, and its position in the current
    /// wall-clock BTU at the moment it can be handed over.
    #[must_use]
    pub fn handoff(
        itype: InstanceType,
        region: Region,
        rented_at: f64,
        available_at: f64,
        now: f64,
    ) -> Self {
        let handoff = available_at.max(now);
        WarmVm {
            itype,
            region,
            available_rel: (available_at - now).max(0.0),
            btu_elapsed: (handoff - rented_at) % BTU_SECONDS,
        }
    }
}

/// Where the rent-fresh branch finds warm machines to claim. A slot is
/// an opaque id the source hands out in [`Self::offer`] and resolves in
/// [`Self::slot`]; [`PooledSchedule::origins`] records it.
///
/// The selection rule ([`ScheduleBuilder::best_warm_slot`]) is the same
/// for every source; the source decides only which machines it visits.
/// `visit` returns `false` once the machine it was handed starts later
/// than a fresh rental would. Within one region that outcome is
/// monotone in the machine's availability, so a source that visits each
/// region in ascending availability may skip the rest of the region; a
/// source in any other order must keep visiting.
pub trait WarmOffers: fmt::Debug + Sync {
    /// Hand every warm machine of `itype` to `visit` as `(slot, vm)`.
    fn offer(&self, itype: InstanceType, visit: &mut dyn FnMut(usize, WarmVm) -> bool);

    /// The warm machine behind `slot`, a slot [`Self::offer`] handed out.
    fn slot(&self, slot: usize) -> WarmVm;
}

/// A snapshot slice offers every slot in slice order; slot = index.
impl WarmOffers for &[WarmVm] {
    fn offer(&self, itype: InstanceType, visit: &mut dyn FnMut(usize, WarmVm) -> bool) {
        for (i, vm) in self.iter().enumerate() {
            if vm.itype == itype {
                visit(i, *vm);
            }
        }
    }

    fn slot(&self, slot: usize) -> WarmVm {
        self[slot]
    }
}

/// A schedule plus the provenance of each of its VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledSchedule {
    /// The schedule, on the workflow's own clock.
    pub schedule: Schedule,
    /// For each VM of `schedule` (same order), the warm slot it was
    /// claimed from (an index into a `&[WarmVm]` pool, or the id the
    /// [`WarmOffers`] source handed out); `None` = fresh rental.
    pub origins: Vec<Option<usize>>,
}

impl PooledSchedule {
    /// Number of VMs claimed from the warm pool.
    #[must_use]
    pub fn pool_hits(&self) -> usize {
        self.origins.iter().filter(|o| o.is_some()).count()
    }

    /// Number of fresh (cold) rentals.
    #[must_use]
    pub fn cold_rentals(&self) -> usize {
        self.origins.iter().filter(|o| o.is_none()).count()
    }
}

/// Claim the best warm slot for `task` or rent fresh, returning the VM.
fn place_fresh_or_warm(
    sb: &mut ScheduleBuilder<'_>,
    task: TaskId,
    itype: InstanceType,
    require_fit: bool,
) -> VmId {
    match sb.best_warm_slot(task, itype, require_fit) {
        Some(slot) => sb.claim_warm(task, slot),
        None => sb.place_on_new(task, itype),
    }
}

/// Run static allocation `alloc` on `wf` with instance type `itype`,
/// drawing from the warm pool `warm` whenever the allocation would
/// otherwise rent a fresh VM.
///
/// The task order and every *reuse* decision are identical to the
/// offline [`Strategy::schedule`] run; only the rent-fresh branch is
/// intercepted. With an empty pool the result equals the offline
/// schedule exactly.
///
/// [`Strategy::schedule`]: crate::strategy::Strategy::schedule
#[must_use]
pub fn pooled_static(
    wf: &Workflow,
    platform: &Platform,
    alloc: StaticAlloc,
    itype: InstanceType,
    warm: &[WarmVm],
) -> PooledSchedule {
    pooled_static_with(wf, platform, alloc, itype, &warm)
}

/// [`pooled_static`] drawing from any [`WarmOffers`] source — e.g. a
/// pool's availability index, which visits only the machines that can
/// beat a fresh rental instead of a snapshot of the whole pool.
#[must_use]
pub fn pooled_static_with(
    wf: &Workflow,
    platform: &Platform,
    alloc: StaticAlloc,
    itype: InstanceType,
    warm: &dyn WarmOffers,
) -> PooledSchedule {
    let policy = alloc.provisioning();
    let require_fit = policy.is_not_exceed();
    let mut sb = ScheduleBuilder::with_warm_pool(wf, platform, warm);
    if alloc.uses_heft() {
        for task in heft_order(wf, platform, itype) {
            match policy.pick_vm(&sb, task) {
                Some(vm) => sb.place_on(task, vm),
                None => {
                    place_fresh_or_warm(&mut sb, task, itype, require_fit);
                }
            }
        }
    } else {
        let mut used_in_level = crate::vm::VmSet::new();
        for level in wf.levels() {
            used_in_level.clear();
            for task in level_et_descending(wf, level) {
                let vm = match policy.pick_vm_in_level(&sb, task, &used_in_level) {
                    Some(vm) => {
                        sb.place_on(task, vm);
                        vm
                    }
                    None => place_fresh_or_warm(&mut sb, task, itype, require_fit),
                };
                used_in_level.insert(vm);
            }
        }
    }
    let origins = sb.vm_origins().to_vec();
    let schedule = sb.build(format!("{}-{}+pool", policy.name(), itype.suffix()));
    PooledSchedule { schedule, origins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use cws_dag::WorkflowBuilder;
    use cws_platform::BTU_SECONDS;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 100.0);
        let x = b.task("x", 200.0);
        let y = b.task("y", 300.0);
        let d = b.task("d", 100.0);
        b.edge(a, x).edge(a, y).edge(x, d).edge(y, d);
        b.build().unwrap()
    }

    fn idle_pool(n: usize, itype: InstanceType, p: &Platform) -> Vec<WarmVm> {
        (0..n)
            .map(|_| WarmVm::idle(itype, p.default_region))
            .collect()
    }

    #[test]
    fn empty_pool_reproduces_offline_schedules() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        for alloc in StaticAlloc::LEGEND_ORDER {
            for itype in [InstanceType::Small, InstanceType::Large] {
                let offline = Strategy::Static { alloc, itype }.schedule(&wf, &p);
                let pooled = pooled_static(&wf, &p, alloc, itype, &[]);
                assert_eq!(pooled.pool_hits(), 0);
                assert_eq!(pooled.schedule.vms.len(), offline.vms.len());
                assert_eq!(pooled.schedule.placements, offline.placements);
            }
        }
    }

    #[test]
    fn idle_warm_vms_replace_every_fresh_rental() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let pool = idle_pool(8, InstanceType::Small, &p);
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &pool,
        );
        // OneVMperTask rents per task; every rental finds an idle warm VM.
        assert_eq!(pooled.pool_hits(), 4);
        assert_eq!(pooled.cold_rentals(), 0);
        pooled.schedule.validate(&wf, &p).unwrap();
        // Timings match the offline run exactly (zero boot time).
        let offline = Strategy::BASELINE.schedule(&wf, &p);
        assert_eq!(pooled.schedule.makespan(), offline.makespan());
    }

    #[test]
    fn wrong_type_warm_vms_are_ignored() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let pool = idle_pool(8, InstanceType::XLarge, &p);
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &pool,
        );
        assert_eq!(pooled.pool_hits(), 0);
        assert_eq!(pooled.cold_rentals(), 4);
    }

    #[test]
    fn boot_delay_makes_warm_claims_win() {
        // With a 120 s boot delay a warm machine starts entry tasks at
        // t=0 while a cold rental waits; the pooled makespan shrinks.
        let wf = diamond();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let pool = idle_pool(1, InstanceType::Small, &p);
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftStartParExceed,
            InstanceType::Small,
            &pool,
        );
        pooled.schedule.validate(&wf, &p).unwrap();
        assert_eq!(pooled.pool_hits(), 1);
        let offline = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftStartParExceed,
            InstanceType::Small,
            &[],
        );
        assert!(
            pooled.schedule.makespan() + 1e-9 < offline.schedule.makespan(),
            "warm start must beat the boot delay: {} vs {}",
            pooled.schedule.makespan(),
            offline.schedule.makespan()
        );
    }

    #[test]
    fn busy_warm_vm_loses_to_fresh_rental() {
        // A warm machine that frees up late is worse than renting cold
        // (zero boot): the claim is refused.
        let wf = diamond();
        let p = Platform::ec2_paper();
        let pool = vec![WarmVm {
            itype: InstanceType::Small,
            region: p.default_region,
            available_rel: 50.0,
            btu_elapsed: 0.0,
        }];
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &pool,
        );
        // The entry task (ready at 0) refuses the late slot; successors
        // (ready later than 50) may claim it.
        assert_eq!(pooled.origins[0], None);
    }

    #[test]
    fn not_exceed_refuses_consumed_slots() {
        // Entry task (100 s) against a slot with only 60 s left in its
        // BTU: NotExceed refuses, Exceed claims.
        let wf = diamond();
        let p = Platform::ec2_paper();
        let pool = vec![WarmVm {
            itype: InstanceType::Small,
            region: p.default_region,
            available_rel: 0.0,
            btu_elapsed: BTU_SECONDS - 60.0,
        }];
        let ne = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftStartParNotExceed,
            InstanceType::Small,
            &pool,
        );
        assert_eq!(ne.origins[0], None, "100 s does not fit in 60 s of BTU");
        let ex = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftStartParExceed,
            InstanceType::Small,
            &pool,
        );
        assert_eq!(ex.origins[0], Some(0), "Exceed ignores the BTU budget");
    }

    #[test]
    fn claimed_slot_is_never_claimed_twice() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let pool = idle_pool(2, InstanceType::Small, &p);
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &pool,
        );
        assert_eq!(pooled.pool_hits(), 2);
        assert_eq!(pooled.cold_rentals(), 2);
        let mut seen: Vec<usize> = pooled.origins.iter().filter_map(|&o| o).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), pooled.pool_hits(), "no slot claimed twice");
    }

    #[test]
    fn all_par_levels_still_get_distinct_vms() {
        // Fig. 1 shape: entry -> six parallel tasks. Warm claims must
        // respect the within-level exclusivity of AllPar*.
        let mut b = WorkflowBuilder::new("fig1");
        let e = b.task("entry", 100.0);
        for i in 0..6 {
            let t = b.task(format!("p{i}"), 500.0);
            b.edge(e, t);
        }
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let pool = idle_pool(10, InstanceType::Small, &p);
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::AllParExceed,
            InstanceType::Small,
            &pool,
        );
        pooled.schedule.validate(&wf, &p).unwrap();
        let offline = pooled_static(&wf, &p, StaticAlloc::AllParExceed, InstanceType::Small, &[]);
        assert_eq!(pooled.schedule.makespan(), offline.schedule.makespan());
        assert_eq!(pooled.schedule.vms.len(), offline.schedule.vms.len());
    }

    #[test]
    fn tie_break_packs_the_deeper_btu() {
        // Two idle slots, one 1000 s into its BTU: the deeper slot wins
        // the tie so paid time is packed.
        let mut b = WorkflowBuilder::new("single");
        let t = b.task("t", 100.0);
        let _ = t;
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let pool = vec![
            WarmVm::idle(InstanceType::Small, p.default_region),
            WarmVm {
                itype: InstanceType::Small,
                region: p.default_region,
                available_rel: 0.0,
                btu_elapsed: 1000.0,
            },
        ];
        let pooled = pooled_static(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &pool,
        );
        assert_eq!(pooled.origins, vec![Some(1)]);
    }
}
