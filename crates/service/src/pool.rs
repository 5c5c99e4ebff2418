//! The shared warm-VM pool and its wall-clock billing.
//!
//! Offline, the workspace bills *busy-consumed* BTUs per schedule
//! ([`cws_platform::BtuMeter`]): idle gaps are free because the paper's
//! one-shot runs terminate every machine at its last task. A service
//! cannot do that — a machine kept warm for the next arrival keeps the
//! meter running. Pool machines are therefore billed by **wall clock**:
//! `ceil((terminated_at − rented_at) / BTU)` units, idle or not. The
//! difference between the two models is exactly the price of keeping the
//! pool warm, which the idle-reclaim policy controls.

use cws_core::pooled::{PooledSchedule, WarmVm};
use cws_obs as obs;
use cws_platform::billing::btus_for_span;
use cws_platform::{InstanceType, Platform, Region, BTU_SECONDS};

/// When an idle pool machine is terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// Terminate the moment the machine goes idle. No reuse ever
    /// happens: this is the paper's one-shot baseline run online.
    Immediate,
    /// Keep an idle machine until the end of its current (already paid)
    /// wall-clock BTU, then terminate. The remainder of the BTU is
    /// donated to future arrivals — the "co-rent" idea of Sect. V.
    AtBtuBoundary,
}

impl ReclaimPolicy {
    /// Short label for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ReclaimPolicy::Immediate => "immediate",
            ReclaimPolicy::AtBtuBoundary => "btu-boundary",
        }
    }
}

/// One machine of the pool, over its whole wall-clock lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolVm {
    /// Instance type.
    pub itype: InstanceType,
    /// Region.
    pub region: Region,
    /// Wall-clock rental start (boot begins here).
    pub rented_at: f64,
    /// Wall-clock end of the machine's last assigned task.
    pub available_at: f64,
    /// Wall-clock termination, once reclaimed.
    pub terminated_at: Option<f64>,
    /// Total seconds of task execution across all workflows served.
    pub busy_s: f64,
    /// Busy seconds attributed per tenant index.
    pub busy_by_tenant: Vec<(usize, f64)>,
    /// Wall-clock task intervals, in placement order (used by the
    /// pool-reuse invariant tests).
    pub intervals: Vec<(f64, f64)>,
    /// Number of distinct workflow submissions that ran tasks here.
    pub workflows_served: usize,
    /// Per-BTU price in this machine's region (USD), captured at rental
    /// so reclaim events can be billed without platform access.
    pub price_per_btu: f64,
}

impl PoolVm {
    /// Wall-clock BTUs billed for this machine (1 minimum).
    ///
    /// # Panics
    /// Panics if the machine has not been terminated yet.
    #[must_use]
    pub fn billed_btus(&self) -> u64 {
        let end = self.terminated_at.expect("machine still live");
        btus_for_span(end - self.rented_at)
    }

    /// Billed wall-clock seconds (`billed_btus × BTU`).
    #[must_use]
    pub fn billed_seconds(&self) -> f64 {
        self.billed_btus() as f64 * BTU_SECONDS
    }

    /// Attribute `seconds` of busy time to `tenant` (first-use order —
    /// the attribution list is *not* sorted, so cost splits fold in a
    /// deterministic, reproducible order).
    pub fn add_tenant_busy(&mut self, tenant: usize, seconds: f64) {
        if let Some(e) = self.busy_by_tenant.iter_mut().find(|(t, _)| *t == tenant) {
            e.1 += seconds;
        } else {
            self.busy_by_tenant.push((tenant, seconds));
        }
    }
}

/// The wall-clock instant at which an idle machine is reclaimed under
/// `policy` — shared by [`VmPool`] and the sharded pool in `cws-serve`
/// so the two engines cannot disagree on a boundary.
#[must_use]
pub fn reclaim_deadline(policy: ReclaimPolicy, vm: &PoolVm) -> f64 {
    match policy {
        ReclaimPolicy::Immediate => vm.available_at,
        ReclaimPolicy::AtBtuBoundary => {
            // End of the wall-clock BTU that contains the idle start
            // (a machine going idle exactly on a boundary terminates
            // there: `btus_for_span` already bills that boundary).
            vm.rented_at + btus_for_span(vm.available_at - vm.rented_at) as f64 * BTU_SECONDS
        }
    }
}

/// The shared pool: every machine ever rented by a service run, live or
/// terminated.
#[derive(Debug, Clone)]
pub struct VmPool {
    /// The reclaim policy in force.
    pub policy: ReclaimPolicy,
    /// All machines, in rental order. Terminated machines stay in the
    /// list for reporting.
    pub vms: Vec<PoolVm>,
}

impl VmPool {
    /// An empty pool under `policy`.
    #[must_use]
    pub fn new(policy: ReclaimPolicy) -> Self {
        VmPool {
            policy,
            vms: Vec::new(),
        }
    }

    /// The wall-clock instant at which an idle machine is reclaimed.
    fn reclaim_deadline(&self, vm: &PoolVm) -> f64 {
        reclaim_deadline(self.policy, vm)
    }

    /// Terminate every idle machine whose reclaim deadline has passed by
    /// `now`. Called before each arrival snapshot, so reclaim decisions
    /// happen lazily but at the correct wall-clock instants.
    pub fn reclaim_until(&mut self, now: f64) {
        const EPS: f64 = 1e-9;
        for i in 0..self.vms.len() {
            if self.vms[i].terminated_at.is_some() {
                continue;
            }
            let deadline = self.reclaim_deadline(&self.vms[i]);
            if deadline <= now + EPS {
                self.terminate(i, deadline);
            }
        }
    }

    /// Terminate machine `i` at `deadline`, emitting the billing trace
    /// event and counting the reclaim.
    fn terminate(&mut self, i: usize, deadline: f64) {
        self.vms[i].terminated_at = Some(deadline);
        let vm = &self.vms[i];
        if obs::metrics_enabled() {
            obs::MetricsRegistry::global()
                .counter(obs::metrics::names::POOL_RECLAIMS)
                .inc();
        }
        obs::emit(|| obs::TraceEvent::PoolReclaim {
            vm: i as u32,
            time: deadline,
            billed_btus: vm.billed_btus(),
            busy_s: vm.busy_s,
            cost_usd: vm.billed_btus() as f64 * vm.price_per_btu,
        });
    }

    /// Snapshot the live machines as warm slots on a workflow clock that
    /// starts at `now`. Returns the slots plus the map from slot index
    /// back to pool index.
    ///
    /// Under [`ReclaimPolicy::Immediate`] the snapshot is always empty:
    /// machines die the instant they idle, so none is ever handed over.
    /// Under [`ReclaimPolicy::AtBtuBoundary`] a machine still busy with
    /// earlier submissions is offered with `available_rel > 0` —
    /// claiming it means queueing behind them, which the scheduler
    /// accepts only when that still beats a cold boot. `btu_elapsed` is
    /// the machine's wall-clock position in its current BTU at the
    /// moment it could be handed over.
    #[must_use]
    pub fn warm_slots(&self, now: f64) -> (Vec<WarmVm>, Vec<usize>) {
        let mut slots = Vec::new();
        let mut map = Vec::new();
        // Under Immediate reclaim a machine dies the instant it idles,
        // so the service never offers machines for handoff at all —
        // otherwise a still-busy machine could be claimed back-to-back
        // and the "no reuse" baseline would quietly pool after all.
        if self.policy == ReclaimPolicy::Immediate {
            return (slots, map);
        }
        for (i, vm) in self.vms.iter().enumerate() {
            if vm.terminated_at.is_some() {
                continue;
            }
            slots.push(WarmVm::handoff(
                vm.itype,
                vm.region,
                vm.rented_at,
                vm.available_at,
                now,
            ));
            map.push(i);
        }
        (slots, map)
    }

    /// Commit a pooled schedule produced at wall time `now` for `tenant`:
    /// claimed slots extend their pool machine, fresh rentals open new
    /// pool machines (whose rental starts `platform.boot_time_s` before
    /// their first task, priced at the platform's regional rate).
    ///
    /// # Panics
    /// Panics if the schedule claims a slot `warm_slots` did not offer
    /// (the `slot_map` must come from the matching snapshot).
    pub fn commit(
        &mut self,
        now: f64,
        tenant: usize,
        ps: &PooledSchedule,
        slot_map: &[usize],
        platform: &Platform,
    ) {
        let boot_time_s = platform.boot_time_s;
        let mut cold = 0u64;
        for (vi, vm) in ps.schedule.vms.iter().enumerate() {
            let (first_start, last_finish) = match (vm.tasks.first(), vm.tasks.last()) {
                (Some(&(_, s, _)), Some(&(_, _, f))) => (s, f),
                _ => continue, // a VM with no tasks cannot occur, but harmless
            };
            let busy: f64 = vm.tasks.iter().map(|&(_, s, f)| f - s).sum();
            let wall_intervals = vm.tasks.iter().map(|&(_, s, f)| (now + s, now + f));
            match ps.origins[vi] {
                Some(slot) => {
                    let p = &mut self.vms[slot_map[slot]];
                    assert!(p.terminated_at.is_none(), "claimed a terminated machine");
                    p.available_at = now + last_finish;
                    p.busy_s += busy;
                    p.add_tenant_busy(tenant, busy);
                    p.intervals.extend(wall_intervals);
                    p.workflows_served += 1;
                }
                None => {
                    let mut p = PoolVm {
                        itype: vm.itype,
                        region: vm.region,
                        // A cold rental opens early enough to finish
                        // booting exactly when its first task starts.
                        rented_at: now + first_start - boot_time_s,
                        available_at: now + last_finish,
                        terminated_at: None,
                        busy_s: busy,
                        busy_by_tenant: Vec::new(),
                        intervals: wall_intervals.collect(),
                        workflows_served: 1,
                        price_per_btu: platform.price_in(vm.region, vm.itype),
                    };
                    p.add_tenant_busy(tenant, busy);
                    cold += 1;
                    let pool_id = self.vms.len() as u32;
                    obs::emit(|| obs::TraceEvent::PoolLease {
                        vm: pool_id,
                        itype: p.itype.name().to_string(),
                        region: p.region.id().to_string(),
                        price_per_btu: p.price_per_btu,
                        time: p.rented_at,
                    });
                    self.vms.push(p);
                }
            }
        }
        if cold > 0 && obs::metrics_enabled() {
            obs::MetricsRegistry::global()
                .counter(obs::metrics::names::POOL_COLD_RENTALS)
                .add(cold);
        }
    }

    /// Terminate every still-live machine at its reclaim deadline (end
    /// of the observation run).
    pub fn finish(&mut self) {
        for i in 0..self.vms.len() {
            if self.vms[i].terminated_at.is_none() {
                let deadline = self.reclaim_deadline(&self.vms[i]);
                self.terminate(i, deadline);
            }
        }
    }

    /// Total wall-clock BTUs billed across all machines.
    ///
    /// # Panics
    /// Panics if any machine is still live (call [`Self::finish`] first).
    #[must_use]
    pub fn billed_btus(&self) -> u64 {
        self.vms.iter().map(PoolVm::billed_btus).sum()
    }

    /// Total monetary cost in USD under `platform` prices.
    #[must_use]
    pub fn cost_usd(&self, platform: &Platform) -> f64 {
        self.vms
            .iter()
            .map(|vm| vm.billed_btus() as f64 * platform.price_in(vm.region, vm.itype))
            .sum()
    }

    /// Total busy seconds across all machines.
    #[must_use]
    pub fn busy_seconds(&self) -> f64 {
        self.vms.iter().map(|vm| vm.busy_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_platform::Platform;

    fn one_shot_vm(rented_at: f64, busy_until: f64) -> PoolVm {
        let p = Platform::ec2_paper();
        PoolVm {
            itype: InstanceType::Small,
            region: p.default_region,
            rented_at,
            available_at: busy_until,
            terminated_at: None,
            busy_s: busy_until - rented_at,
            busy_by_tenant: vec![(0, busy_until - rented_at)],
            intervals: vec![(rented_at, busy_until)],
            workflows_served: 1,
            price_per_btu: p.price_in(p.default_region, InstanceType::Small),
        }
    }

    #[test]
    fn immediate_reclaims_at_idle_start() {
        let mut pool = VmPool::new(ReclaimPolicy::Immediate);
        pool.vms.push(one_shot_vm(0.0, 1000.0));
        pool.reclaim_until(1000.0);
        assert_eq!(pool.vms[0].terminated_at, Some(1000.0));
        assert_eq!(pool.vms[0].billed_btus(), 1, "1000 s wall = 1 BTU");
    }

    #[test]
    fn btu_boundary_keeps_the_machine_to_the_boundary() {
        let mut pool = VmPool::new(ReclaimPolicy::AtBtuBoundary);
        pool.vms.push(one_shot_vm(0.0, 1000.0));
        pool.reclaim_until(2000.0);
        assert_eq!(pool.vms[0].terminated_at, None, "BTU runs to 3600");
        let (slots, map) = pool.warm_slots(2000.0);
        assert_eq!(map, vec![0]);
        assert_eq!(slots[0].available_rel, 0.0);
        assert!((slots[0].btu_elapsed - 2000.0).abs() < 1e-9);
        pool.reclaim_until(3600.0);
        assert_eq!(pool.vms[0].terminated_at, Some(3600.0));
    }

    #[test]
    fn idle_exactly_on_boundary_terminates_there() {
        let mut pool = VmPool::new(ReclaimPolicy::AtBtuBoundary);
        pool.vms.push(one_shot_vm(0.0, BTU_SECONDS));
        pool.reclaim_until(BTU_SECONDS);
        assert_eq!(pool.vms[0].terminated_at, Some(BTU_SECONDS));
        assert_eq!(pool.vms[0].billed_btus(), 1);
    }

    #[test]
    fn busy_machines_are_offered_with_queueing_delay() {
        let pool = {
            let mut p = VmPool::new(ReclaimPolicy::AtBtuBoundary);
            p.vms.push(one_shot_vm(0.0, 5000.0));
            p
        };
        let (slots, _) = pool.warm_slots(4000.0);
        assert!((slots[0].available_rel - 1000.0).abs() < 1e-9);
        // handoff at 5000 wall → 1400 s into the second BTU
        assert!((slots[0].btu_elapsed - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn finish_bills_everything() {
        let mut pool = VmPool::new(ReclaimPolicy::AtBtuBoundary);
        pool.vms.push(one_shot_vm(0.0, 4000.0));
        pool.vms.push(one_shot_vm(100.0, 300.0));
        pool.finish();
        assert_eq!(pool.billed_btus(), 2 + 1);
        let p = Platform::ec2_paper();
        let per_btu = p.price_in(p.default_region, InstanceType::Small);
        assert!((pool.cost_usd(&p) - 3.0 * per_btu).abs() < 1e-12);
    }
}
