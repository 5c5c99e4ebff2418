//! The sharded warm-VM pool: per-region shards, each with its own
//! reclaim event queue and billing meter, merged in global rental
//! order so the observable behaviour is independent of the shard
//! count.
//!
//! # Determinism strategy: deterministic routing + ordered merge
//!
//! A shard is an *accounting and indexing* partition of one logical
//! pool, never a scheduling boundary. Three rules make every observable
//! output — warm-slot offers, trace events, billing folds — a pure
//! function of the submission sequence, independent of how many shards
//! (or worker threads) the run uses:
//!
//! 1. **Global rental ids.** Machines are numbered in rental order
//!    across all shards, exactly as the legacy [`VmPool`] numbers its
//!    `vms` vector. Trace events carry these ids unchanged.
//! 2. **Deterministic routing.** A machine's shard is a pure function
//!    of its region and the count of machines that region has already
//!    opened (region affinity first, round-robin spill within the
//!    region) — no hashing, no thread identity, no clock.
//! 3. **Ordered merge.** Every cross-shard operation iterates machines
//!    in global rental-id order: reclaim events are emitted in rental
//!    order, and terminated machines are folded into the
//!    [`ReportAccumulator`] in rental order via a reorder buffer (so
//!    float summation order matches the eager path bit for bit). Warm
//!    slots break scheduler ties on the rental id, so the slot chosen
//!    is the legacy one whichever order they are visited in.
//!
//! # The warm index
//!
//! A submission plans against [`ShardedPool::warm_index`], not a
//! snapshot of the pool. Per `(itype, region)` bucket the index keeps
//! the live machines ordered by `(available_at, rental id)`, and is
//! updated on every lease, claim and reclaim. The scheduler visits one
//! bucket in ascending availability and stops at the first machine
//! that would start the task later than a cold boot: the start time
//! `ready.max(available_rel)` never decreases along the bucket, so no
//! later machine could be eligible either. A query therefore visits
//! the eligible machines plus at most one per bucket — `O(log P +
//! eligible)` per rent-fresh decision instead of `O(P)`.
//!
//! Terminated machines leave the live set immediately and are dropped
//! once folded, so memory tracks the live pool plus the fold's reorder
//! buffer. That buffer holds machines terminated while an
//! earlier-rented machine is still alive — bounded by the longest
//! machine lifetime times the rental rate, not by the run length — and
//! its entries are compacted to the handful of billing fields the fold
//! reads. Workloads with bounded task runtimes (e.g.
//! `WorkloadKind::UniformBag`) therefore stream in constant memory;
//! a heavy-tailed runtime distribution can keep the buffer occupied
//! for as long as its slowest machine runs.
//!
//! [`VmPool`]: cws_service::VmPool
//! [`ReportAccumulator`]: cws_service::ReportAccumulator

use cws_core::pooled::{PooledSchedule, WarmOffers, WarmVm};
use cws_obs as obs;
use cws_platform::{InstanceType, Platform, Region};
use cws_service::{reclaim_deadline, PoolVm, ReclaimPolicy, ReportAccumulator};
use cws_sim::EventQueue;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Deterministic machine→shard placement: region affinity first, then
/// round-robin spill inside each region so a single-region platform
/// (the paper's setting) still occupies every shard.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    /// Machines already routed per region (Table II order).
    opened: [usize; Region::ALL.len()],
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardRouter {
            shards,
            opened: [0; Region::ALL.len()],
        }
    }

    /// Number of shards routed over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Route the next machine opened in `region` to a shard. Pure in
    /// the sequence of calls: `(region_index + nth_machine_of_region)
    /// mod shards`.
    pub fn route(&mut self, region: Region) -> usize {
        let ri = Region::ALL
            .iter()
            .position(|r| *r == region)
            // Invariant: Region::ALL enumerates every enum variant, so
            // any `Region` value has a position in it.
            // cws-lint: allow(unwrap-in-kernel)
            .expect("region is one of the seven");
        let k = self.opened[ri];
        self.opened[ri] += 1;
        (ri + k) % self.shards
    }
}

/// Per-shard bookkeeping: the shard's own reclaim event queue and its
/// own billing meter, folded from the machines routed to it.
#[derive(Debug)]
pub struct Shard {
    /// Shard index.
    pub id: usize,
    /// Pending reclaim deadlines (global vm id), lazily invalidated:
    /// a claim that extends a machine pushes a fresh entry and the
    /// stale one is skipped on pop. Deadlines only move later, so an
    /// entry's time is always a lower bound on the machine's true
    /// deadline — no reclaim can be missed.
    queue: EventQueue<usize>,
    /// Machines currently live on this shard.
    pub live: usize,
    /// Machines ever leased to this shard.
    pub leases: u64,
    /// Machines reclaimed so far.
    pub reclaims: u64,
    /// Wall-clock BTUs billed by terminated machines of this shard.
    pub billed_btus: u64,
    /// USD billed by terminated machines of this shard.
    pub cost_usd: f64,
    /// Busy seconds executed on terminated machines of this shard.
    pub busy_s: f64,
}

impl Shard {
    fn new(id: usize) -> Self {
        Shard {
            id,
            queue: EventQueue::new(),
            live: 0,
            leases: 0,
            reclaims: 0,
            billed_btus: 0,
            cost_usd: 0.0,
            busy_s: 0.0,
        }
    }
}

/// A live machine plus the shard it is routed to.
#[derive(Debug)]
struct LiveVm {
    vm: PoolVm,
    shard: usize,
}

/// An availability time ordered by [`f64::total_cmp`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Avail(f64);

impl Eq for Avail {}

impl Ord for Avail {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Avail {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The live machines per `(itype, region)` bucket, ordered by
/// `(available_at, rental id)`; each entry carries the machine's rental
/// start, the one other field a warm offer needs.
#[derive(Debug)]
struct AvailIndex {
    buckets: Vec<BTreeMap<(Avail, usize), f64>>,
}

impl AvailIndex {
    fn new() -> Self {
        AvailIndex {
            buckets: vec![BTreeMap::new(); InstanceType::ALL.len() * Region::ALL.len()],
        }
    }

    fn bucket(itype: InstanceType, region: Region) -> usize {
        itype as usize * Region::ALL.len() + region as usize
    }

    fn insert(&mut self, id: usize, vm: &PoolVm) {
        self.buckets[Self::bucket(vm.itype, vm.region)]
            .insert((Avail(vm.available_at), id), vm.rented_at);
    }

    fn remove(&mut self, id: usize, vm: &PoolVm) {
        self.buckets[Self::bucket(vm.itype, vm.region)].remove(&(Avail(vm.available_at), id));
    }
}

/// The sharded pool. Observable behaviour (slots offered, events
/// emitted, report folds) is byte-identical to [`cws_service::VmPool`]
/// driven by the same submission sequence, at any shard count — see
/// the module docs for why.
#[derive(Debug)]
pub struct ShardedPool {
    policy: ReclaimPolicy,
    router: ShardRouter,
    shards: Vec<Shard>,
    /// Live machines keyed by global rental id (BTreeMap iteration ==
    /// rental order — the ordered merge).
    live: BTreeMap<usize, LiveVm>,
    /// The same machines by bucket and availability (see the module
    /// docs), kept in step with `live`.
    index: AvailIndex,
    /// Next global rental id.
    next_id: usize,
    /// Terminated machines awaiting their turn in the rental-order
    /// fold (bounded by the live-set size, since terminations can
    /// only overtake machines that are still live).
    pending: BTreeMap<usize, PoolVm>,
    /// Lowest rental id not yet folded.
    next_fold: usize,
}

/// Reclaim tolerance, matching `VmPool::reclaim_until`.
const EPS: f64 = 1e-9;

impl ShardedPool {
    /// An empty pool under `policy`, partitioned into `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(policy: ReclaimPolicy, shards: usize) -> Self {
        ShardedPool {
            policy,
            router: ShardRouter::new(shards),
            shards: (0..shards).map(Shard::new).collect(),
            live: BTreeMap::new(),
            index: AvailIndex::new(),
            next_id: 0,
            pending: BTreeMap::new(),
            next_fold: 0,
        }
    }

    /// The reclaim policy in force.
    #[must_use]
    pub fn policy(&self) -> ReclaimPolicy {
        self.policy
    }

    /// Per-shard meters, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Machines currently live across all shards.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Machines ever rented.
    #[must_use]
    pub fn rented_count(&self) -> usize {
        self.next_id
    }

    /// Terminate every idle machine whose reclaim deadline has passed
    /// by `now`. Each shard pops its own event queue; the due set is
    /// then merged and emitted in global rental order, exactly the
    /// order the legacy pool's linear scan produces.
    pub fn reclaim_until(&mut self, now: f64) {
        let mut due: Vec<usize> = Vec::new();
        for shard in &mut self.shards {
            while let Some(ev) = shard.queue.pop() {
                if ev.time > now + EPS {
                    // Not due yet — put it back and stop scanning this
                    // shard (entries pop in deadline order).
                    shard.queue.push(ev.time, ev.event);
                    break;
                }
                if let Some(entry) = self.live.get(&ev.event) {
                    // Validate against the machine's *current* deadline:
                    // a claim since the push may have extended it, in
                    // which case a fresh entry is already queued.
                    if reclaim_deadline(self.policy, &entry.vm) <= now + EPS {
                        due.push(ev.event);
                    }
                }
            }
        }
        due.sort_unstable();
        due.dedup();
        for id in due {
            self.terminate(id);
        }
    }

    /// Terminate machine `id` at its reclaim deadline, emitting the
    /// billing trace event and updating its shard's meter.
    fn terminate(&mut self, id: usize) {
        // Invariant: `terminate` is called only with ids drained from
        // the reclaim queue, which holds live machines by construction.
        // cws-lint: allow(unwrap-in-kernel)
        let LiveVm { mut vm, shard } = self.live.remove(&id).expect("machine is live");
        self.index.remove(id, &vm);
        let deadline = reclaim_deadline(self.policy, &vm);
        vm.terminated_at = Some(deadline);
        let btus = vm.billed_btus();
        let s = &mut self.shards[shard];
        s.live -= 1;
        s.reclaims += 1;
        s.billed_btus += btus;
        s.cost_usd += btus as f64 * vm.price_per_btu;
        s.busy_s += vm.busy_s;
        if obs::metrics_enabled() {
            let reg = obs::MetricsRegistry::global();
            reg.counter(obs::metrics::names::POOL_RECLAIMS).inc();
            reg.counter(&shard_metric(shard, "reclaims")).inc();
        }
        obs::emit(|| obs::TraceEvent::PoolReclaim {
            vm: id as u32,
            time: deadline,
            billed_btus: btus,
            busy_s: vm.busy_s,
            cost_usd: btus as f64 * vm.price_per_btu,
        });
        // The report fold never reads the task-interval history, and a
        // terminated machine can sit in `pending` for as long as an
        // earlier-rented machine stays alive — keep only what
        // `ReportAccumulator::vm` consumes.
        vm.intervals = Vec::new();
        self.pending.insert(id, vm);
    }

    /// Snapshot the live machines as warm slots on a workflow clock
    /// that starts at `now`, in global rental order (the legacy pool's
    /// slot sequence). Returns the slots plus the map from slot index
    /// back to global rental id. Planning against [`Self::warm_index`]
    /// chooses the same machines without copying the pool.
    #[must_use]
    pub fn warm_slots(&self, now: f64) -> (Vec<WarmVm>, Vec<usize>) {
        // Under Immediate reclaim a machine dies the instant it idles,
        // so nothing is ever offered (the no-reuse baseline).
        if self.policy == ReclaimPolicy::Immediate {
            return (Vec::new(), Vec::new());
        }
        self.live
            .iter()
            .map(|(&id, entry)| {
                let vm = &entry.vm;
                let slot = WarmVm::handoff(vm.itype, vm.region, vm.rented_at, vm.available_at, now);
                (slot, id)
            })
            .unzip()
    }

    /// The warm machines on a workflow clock that starts at `now`, as
    /// a [`WarmOffers`] source for `pooled_static_with`. Slots are
    /// rental ids; commit the schedule with [`Self::commit_indexed`].
    #[must_use]
    pub fn warm_index(&self, now: f64) -> WarmIndex<'_> {
        WarmIndex { pool: self, now }
    }

    /// Commit a pooled schedule produced at wall time `now` for
    /// `tenant` against a [`Self::warm_slots`] snapshot: claimed slots
    /// extend their machine (and re-queue its reclaim deadline on its
    /// shard), fresh rentals open machines with the next global rental
    /// ids, routed to shards.
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
        self.commit_claims(now, tenant, ps, |slot| slot_map[slot], platform);
    }

    /// [`Self::commit`] for a schedule planned against
    /// [`Self::warm_index`], whose claimed slots are rental ids.
    ///
    /// # Panics
    /// Panics if the schedule claims a machine that is not live.
    pub fn commit_indexed(
        &mut self,
        now: f64,
        tenant: usize,
        ps: &PooledSchedule,
        platform: &Platform,
    ) {
        self.commit_claims(now, tenant, ps, |id| id, platform);
    }

    fn commit_claims(
        &mut self,
        now: f64,
        tenant: usize,
        ps: &PooledSchedule,
        rental_id: impl Fn(usize) -> usize,
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
                    let p = self.set_available(rental_id(slot), now + last_finish);
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
                    obs::emit(|| obs::TraceEvent::PoolLease {
                        vm: self.next_id as u32,
                        itype: p.itype.name().to_string(),
                        region: p.region.id().to_string(),
                        price_per_btu: p.price_per_btu,
                        time: p.rented_at,
                    });
                    let (_, shard) = self.open(p);
                    if obs::metrics_enabled() {
                        obs::MetricsRegistry::global()
                            .counter(&shard_metric(shard, "leases"))
                            .inc();
                    }
                }
            }
        }
        if cold > 0 && obs::metrics_enabled() {
            obs::MetricsRegistry::global()
                .counter(obs::metrics::names::POOL_COLD_RENTALS)
                .add(cold);
        }
    }

    /// Lease `vm` under the next global rental id: route it to a
    /// shard, queue its reclaim deadline there and index it. Returns
    /// the id and the shard.
    fn open(&mut self, vm: PoolVm) -> (usize, usize) {
        let id = self.next_id;
        self.next_id += 1;
        let shard = self.router.route(vm.region);
        let deadline = reclaim_deadline(self.policy, &vm);
        let s = &mut self.shards[shard];
        s.queue.push(deadline, id);
        s.live += 1;
        s.leases += 1;
        self.index.insert(id, &vm);
        self.live.insert(id, LiveVm { vm, shard });
        (id, shard)
    }

    /// Move live machine `id`'s availability to `available_at`,
    /// re-indexing it and queueing its new reclaim deadline (the stale
    /// queue entry is skipped on pop). Returns the machine.
    fn set_available(&mut self, id: usize, available_at: f64) -> &mut PoolVm {
        // Invariant: callers pass ids of machines offered by this pool
        // for the current submission, with no terminate in between.
        // cws-lint: allow(unwrap-in-kernel)
        let entry = self.live.get_mut(&id).expect("claimed a live machine");
        self.index.remove(id, &entry.vm);
        entry.vm.available_at = available_at;
        self.index.insert(id, &entry.vm);
        let deadline = reclaim_deadline(self.policy, &entry.vm);
        self.shards[entry.shard].queue.push(deadline, id);
        &mut entry.vm
    }

    /// Terminate every still-live machine at its reclaim deadline (end
    /// of the observation run), in global rental order.
    pub fn finish(&mut self) {
        let ids: Vec<usize> = self.live.keys().copied().collect();
        for id in ids {
            self.terminate(id);
        }
    }

    /// Fold every terminated machine whose rental-order turn has come
    /// into `acc`, releasing its memory. Call after each
    /// [`Self::reclaim_until`] / [`Self::finish`]; after `finish` the
    /// buffer drains completely.
    pub fn drain_folded(&mut self, acc: &mut ReportAccumulator, platform: &Platform) {
        while let Some(vm) = self.pending.remove(&self.next_fold) {
            acc.vm(&vm, platform);
            self.next_fold += 1;
        }
    }

    /// Machines terminated but not yet folded (reorder-buffer size).
    #[must_use]
    pub fn pending_fold(&self) -> usize {
        self.pending.len()
    }

    /// Insert a pre-built live machine, assigning it the next global
    /// rental id — a test/tool hook for exercising reclaim behaviour
    /// without driving full schedules through the pool.
    #[doc(hidden)]
    pub fn insert_raw(&mut self, vm: PoolVm) -> usize {
        self.open(vm).0
    }
}

/// The warm index of a [`ShardedPool`] seen from a workflow arriving at
/// `now` (see [`ShardedPool::warm_index`]). Each region's bucket is
/// visited in ascending availability, so the scheduler's early stop
/// skips every machine that cannot beat a cold boot.
#[derive(Debug, Clone, Copy)]
pub struct WarmIndex<'p> {
    pool: &'p ShardedPool,
    now: f64,
}

impl WarmOffers for WarmIndex<'_> {
    fn offer(&self, itype: InstanceType, visit: &mut dyn FnMut(usize, WarmVm) -> bool) {
        // Immediate reclaim offers nothing, as `warm_slots` does.
        if self.pool.policy == ReclaimPolicy::Immediate {
            return;
        }
        for region in Region::ALL {
            let bucket = &self.pool.index.buckets[AvailIndex::bucket(itype, region)];
            for (&(Avail(available_at), id), &rented_at) in bucket {
                let slot = WarmVm::handoff(itype, region, rented_at, available_at, self.now);
                if !visit(id, slot) {
                    break;
                }
            }
        }
    }

    fn slot(&self, slot: usize) -> WarmVm {
        // Invariant: `offer` hands out ids of live machines only, and the
        // pool cannot change while this view borrows it.
        // cws-lint: allow(unwrap-in-kernel)
        let entry = self.pool.live.get(&slot).expect("offered a live machine");
        let vm = &entry.vm;
        WarmVm::handoff(vm.itype, vm.region, vm.rented_at, vm.available_at, self.now)
    }
}

/// Metric name for a per-shard counter, e.g. `pool.shard3.reclaims`.
#[must_use]
pub fn shard_metric(shard: usize, what: &str) -> String {
    format!("pool.shard{shard}.{what}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::pooled::pooled_static_with;
    use cws_core::StaticAlloc;
    use cws_platform::BTU_SECONDS;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn one_shot_vm(rented_at: f64, busy_until: f64) -> PoolVm {
        vm_in(
            InstanceType::Small,
            Platform::ec2_paper().default_region,
            rented_at,
            busy_until,
        )
    }

    fn vm_in(itype: InstanceType, region: Region, rented_at: f64, busy_until: f64) -> PoolVm {
        let p = Platform::ec2_paper();
        PoolVm {
            itype,
            region,
            rented_at,
            available_at: busy_until,
            terminated_at: None,
            busy_s: busy_until - rented_at,
            busy_by_tenant: vec![(0, busy_until - rented_at)],
            intervals: vec![(rented_at, busy_until)],
            workflows_served: 1,
            price_per_btu: p.price_in(region, itype),
        }
    }

    /// A [`WarmOffers`] source counting the machines its inner one visits.
    #[derive(Debug)]
    struct Counting<'p>(WarmIndex<'p>, AtomicUsize);

    impl WarmOffers for Counting<'_> {
        fn offer(&self, itype: InstanceType, visit: &mut dyn FnMut(usize, WarmVm) -> bool) {
            self.0.offer(itype, &mut |id, slot| {
                self.1.fetch_add(1, AtomicOrdering::Relaxed);
                visit(id, slot)
            });
        }

        fn slot(&self, slot: usize) -> WarmVm {
            self.0.slot(slot)
        }
    }

    #[test]
    fn router_spreads_one_region_round_robin() {
        let mut r = ShardRouter::new(3);
        let region = Region::UsEastVirginia;
        let shards: Vec<usize> = (0..6).map(|_| r.route(region)).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn router_is_region_affine_first() {
        let mut r = ShardRouter::new(4);
        assert_eq!(r.route(Region::UsEastVirginia), 0);
        assert_eq!(r.route(Region::UsWestOregon), 1);
        assert_eq!(r.route(Region::EuDublin), 3);
        // Second machine of a region spills to the next shard.
        assert_eq!(r.route(Region::UsWestOregon), 2);
    }

    #[test]
    fn warm_slots_merge_in_rental_order() {
        let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 3);
        for i in 0..5 {
            pool.insert_raw(one_shot_vm(i as f64 * 10.0, 1000.0));
        }
        let (slots, map) = pool.warm_slots(1000.0);
        assert_eq!(map, vec![0, 1, 2, 3, 4], "global rental order");
        for (i, s) in slots.iter().enumerate() {
            let expected = (1000.0 - i as f64 * 10.0) % BTU_SECONDS;
            assert!((s.btu_elapsed - expected).abs() < 1e-9);
        }
        // And the machines really live on three different shards.
        let live: Vec<usize> = pool.shards().iter().map(|s| s.live).collect();
        assert_eq!(live.iter().sum::<usize>(), 5);
        assert!(live.iter().all(|&n| n >= 1));
    }

    #[test]
    fn index_query_visits_eligible_machines_plus_one_per_bucket() {
        // 10^4 machines busy for hours across three regions, plus a
        // thousand of another type, plus three idle ones: a rent-fresh
        // decision must not walk the busy ones.
        let now = 10.0 * BTU_SECONDS;
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let regions = [p.default_region, Region::UsWestOregon, Region::EuDublin];
        let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 4);
        for i in 0..10_000 {
            let busy_until = now + 3.0 * BTU_SECONDS + i as f64;
            pool.insert_raw(vm_in(
                InstanceType::Small,
                regions[i % 3],
                now - 600.0,
                busy_until,
            ));
        }
        for i in 0..1_000 {
            pool.insert_raw(vm_in(InstanceType::Large, regions[i % 3], now - 600.0, now));
        }
        for region in regions {
            pool.insert_raw(vm_in(InstanceType::Small, region, now - 600.0, now - 60.0));
        }
        let mut b = cws_dag::WorkflowBuilder::new("one");
        b.task("t", 100.0);
        let wf = b.build().expect("one task");
        let offers = Counting(pool.warm_index(now), AtomicUsize::new(0));
        let ps = pooled_static_with(
            &wf,
            &p,
            StaticAlloc::HeftOneVmPerTask,
            InstanceType::Small,
            &offers,
        );
        assert_eq!(ps.pool_hits(), 1, "an idle machine beats the 120 s boot");
        let (eligible, buckets) = (3, 3);
        let visited = offers.1.load(AtomicOrdering::Relaxed);
        assert!(
            visited <= eligible + buckets,
            "visited {visited} machines of 11003"
        );
    }

    #[test]
    fn immediate_policy_offers_nothing() {
        let mut pool = ShardedPool::new(ReclaimPolicy::Immediate, 2);
        pool.insert_raw(one_shot_vm(0.0, 500.0));
        let (slots, map) = pool.warm_slots(400.0);
        assert!(slots.is_empty() && map.is_empty());
    }

    #[test]
    fn reclaim_bills_the_owning_shard() {
        let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 2);
        pool.insert_raw(one_shot_vm(0.0, 1000.0)); // shard 0, 1 BTU
        pool.insert_raw(one_shot_vm(0.0, 4000.0)); // shard 1, 2 BTUs
        pool.reclaim_until(2.0 * BTU_SECONDS);
        assert_eq!(pool.live_count(), 0);
        assert_eq!(pool.shards()[0].billed_btus, 1);
        assert_eq!(pool.shards()[1].billed_btus, 2);
        assert_eq!(pool.shards()[0].reclaims, 1);
        assert_eq!(pool.shards()[1].reclaims, 1);
        assert_eq!(pool.pending_fold(), 2, "awaiting rental-order fold");
    }

    #[test]
    fn stale_queue_entries_do_not_reclaim_extended_machines() {
        let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 1);
        let id = pool.insert_raw(one_shot_vm(0.0, 1000.0));
        // Extend the machine past its queued deadline, as a claim
        // would, and queue the fresh deadline.
        pool.set_available(id, 4000.0);
        pool.reclaim_until(BTU_SECONDS); // stale entry pops, is skipped
        assert_eq!(pool.live_count(), 1, "extended machine must survive");
        pool.reclaim_until(2.0 * BTU_SECONDS);
        assert_eq!(pool.live_count(), 0, "fresh entry reclaims at 7200");
    }
}
