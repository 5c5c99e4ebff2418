//! The incremental schedule-construction engine shared by every
//! allocation strategy.
//!
//! A [`ScheduleBuilder`] places tasks one at a time, maintaining the VM
//! pool, per-VM availability, BTU meters and data-transfer readiness. The
//! allocation strategies differ only in *which order* they visit tasks and
//! *which VM* they pick; all timing arithmetic funnels through here, so
//! analytic schedules, the validator and the discrete-event simulator
//! cannot drift apart.
//!
//! # Fast path
//!
//! Every probe (`ready_time`, `start_time_on`, `insertion_start_on`, …)
//! used to recompute execution times, per-edge transfer times and gap
//! scans from scratch, making each allocation pass O(T·V·preds) with
//! heavily redundant work. The builder now precomputes at construction:
//!
//! * a task × instance-type **execution-time table** (`exec`), and
//! * the two independent factors of every transfer time — path
//!   bandwidth per (from-type, to-type) pair (`bw`) and path latency
//!   per (from-region, to-region) pair (`lat`) — so a transfer time
//!   costs one division and one add of table entries, with no
//!   per-platform-call region/type dispatch;
//!
//! and maintains incrementally at every placement:
//!
//! * a per-VM **gap index** (`gaps`: chronological idle windows plus the
//!   busy tail), so insertion probes stop rescanning [`Vm::tasks`], and
//! * the running **busiest-VM argmax** (`busiest`), so the
//!   StartPar/AllPar policies' `busiest_vm` query is O(1).
//!
//! [`ScheduleBuilder::probe`] hoists the per-task part of `ready_time`
//! out of VM scans: it buckets the placed predecessors by host VM once,
//! then answers per-candidate ready/start/finish/insertion queries in
//! O(1) via a lazily-built top-2 reduction per (region, itype) key.
//! [`ScheduleBuilder::candidates_for`] exposes the resulting candidate
//! stream to the allocation strategies in place of hand-rolled scans.
//!
//! # Raw-speed round 2
//!
//! On top of the cached tables, the builder keeps its hot state in an
//! arena/struct-of-arrays layout: dense per-VM `vm_avail`/`vm_key`
//! lanes mirror `vms`, and every probe borrows a pooled
//! `ProbeScratch` workspace (hosts, flattened edges, arrival scratch,
//! epoch-stamped per-VM local-ready), so steady-state probing performs
//! **zero heap allocation**. [`ScheduleBuilder::probe_all`] evaluates
//! every rented VM's start time in one batched pass over those lanes —
//! the replacement for per-VM query loops in the HEFT/MinMin inner
//! loops. Sweeps amortise table construction across schedules by
//! building one [`KernelTables`] per `(dag, platform)` key and handing
//! it to [`ScheduleBuilder::with_tables`] (counted by
//! `kernel.table_reuse_hits`), and DAGs under `SMALL_DAG_TASKS` tasks
//! skip exec-table setup entirely (`ExecSource::Direct`), which is
//! what keeps the fast path ≥ 1× on the paper's 20-task workloads.
//!
//! The fast path performs the *same floating-point operations* as the
//! naive code: `f64::max` is exact, so regrouping the ready-time
//! max-reduction per host VM is bit-identical, and the cached transfer
//! factors are added in the original `size/bw + latency` order. The
//! `naive` module keeps the original implementations (compiled only
//! for tests and under the `naive` feature) and the `fastpath_tests`
//! property suite proves schedule-level equality on random DAGs across
//! every strategy pairing. The single documented deviation: idle gaps
//! narrower than 1e-9 s are not indexed, which can only change the
//! placement of tasks shorter than 2e-9 s.

use crate::pooled::{WarmOffers, WarmVm};
use crate::schedule::{Schedule, TaskPlacement};
use crate::vm::{Vm, VmId};
use cws_dag::{TaskId, Workflow};
use cws_obs as obs;
use cws_platform::billing::fits_in_current_btu;
use cws_platform::{InstanceType, Platform, Region};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const EPS: f64 = 1e-9;
const N_TYPES: usize = InstanceType::ALL.len();
const N_REGIONS: usize = Region::ALL.len();
const N_KEYS: usize = N_REGIONS * N_TYPES;
const N_PAIRS: usize = N_TYPES * N_TYPES;

/// Task-count threshold of the size-based dispatch: a builder for a DAG
/// strictly smaller than this (and without shared [`KernelTables`])
/// skips exec-table construction entirely and computes execution times
/// on demand — `InstanceType::execution_time` is one multiply, so for
/// the paper's 20–80-task DAGs the table never pays for its own
/// allocation. Calibrated with `cws-bench`: the paper workloads
/// (20–76 tasks) are all faster without the table, layered-10x100
/// (1000 tasks) is ~10× faster with it; anywhere in 100..1000 is flat.
/// Bit-identity is unaffected — the table holds exactly
/// `execution_time`'s results.
const SMALL_DAG_TASKS: usize = 128;

/// The empty warm pool of every builder that never claims warm slots.
const NO_WARM: &dyn WarmOffers = &(&[] as &[WarmVm]);

/// Index of an (instance-type, instance-type) pair in a transfer row.
#[inline]
fn pair_idx(from: InstanceType, to: InstanceType) -> usize {
    (from as usize) * N_TYPES + (to as usize)
}

/// Index of a (region, instance-type) candidate key.
#[inline]
fn key_idx(region: Region, itype: InstanceType) -> usize {
    (region as usize) * N_TYPES + (itype as usize)
}

/// Immutable, shareable kernel tables for one `(workflow, platform)`
/// pair: the task × instance-type execution-time table plus the two
/// factors of every transfer time (path bandwidth per type pair, path
/// latency per region pair).
///
/// A sweep builds 57 schedules per workload (19 pairings × 3 repeats)
/// but only ever needs **one** table set per `(dag, platform)` key —
/// build it once with [`KernelTables::build`] and hand it to every
/// [`ScheduleBuilder::with_tables`]. Each use after the first bumps the
/// `kernel.table_reuse_hits` counter. The tables are `Sync` (interior
/// state is one relaxed atomic), so parallel sweep workers can borrow
/// one set concurrently.
///
/// Entries are exactly what a builder would compute for itself
/// (`execution_time`, `path_bandwidth_mbps`, `path_latency_s`), so
/// shared-table schedules are bit-identical to owned-table ones.
#[derive(Debug)]
pub struct KernelTables {
    /// `exec[task][itype]` execution-time table.
    exec: Vec<[f64; N_TYPES]>,
    /// Path-latency table: `lat[from_region][to_region]`.
    lat: [[f64; N_REGIONS]; N_REGIONS],
    /// Path-bandwidth table: `bw[pair_idx(from, to)]` in MB/s.
    bw: [f64; N_PAIRS],
    /// Builders constructed over these tables (relaxed; only the
    /// zero/non-zero transition matters, for reuse counting).
    uses: AtomicU64,
}

impl KernelTables {
    /// Build the tables for `wf` on `platform`.
    ///
    /// # Panics
    /// Panics if any edge carries a negative transfer size (the same
    /// validation a table-owning builder performs up front).
    #[must_use]
    pub fn build(wf: &Workflow, platform: &Platform) -> Self {
        let net = &platform.network;
        for e in wf.edges() {
            assert!(
                e.data_mb >= 0.0,
                "transfer size must be non-negative, got {}",
                e.data_mb
            );
        }
        let exec = wf
            .ids()
            .map(|t| {
                let base = wf.task(t).base_time;
                let mut row = [0.0; N_TYPES];
                for (j, it) in InstanceType::ALL.iter().enumerate() {
                    row[j] = it.execution_time(base);
                }
                row
            })
            .collect();
        let mut lat = [[0.0; N_REGIONS]; N_REGIONS];
        for (i, &a) in Region::ALL.iter().enumerate() {
            for (j, &b) in Region::ALL.iter().enumerate() {
                lat[i][j] = net.path_latency_s(a, b);
            }
        }
        let mut bw = [0.0; N_PAIRS];
        for &ft in &InstanceType::ALL {
            for &tt in &InstanceType::ALL {
                bw[pair_idx(ft, tt)] = net.path_bandwidth_mbps(ft, tt);
            }
        }
        KernelTables {
            exec,
            lat,
            bw,
            uses: AtomicU64::new(0),
        }
    }

    /// The execution-time rows (`[task][itype]`), for strategy upgrade
    /// loops (CPA-Eager, GAIN) that want to borrow instead of rebuild.
    #[must_use]
    pub fn exec_rows(&self) -> &[[f64; N_TYPES]] {
        &self.exec
    }

    /// How many builders borrowed these tables so far.
    #[must_use]
    pub fn uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

/// Where a builder's execution-time entries come from — the size-based
/// dispatch at the heart of the "small DAGs never pay setup" rule.
#[derive(Debug, Clone)]
enum ExecSource<'a> {
    /// Builder-owned table (large DAG, no shared tables offered).
    Owned(Vec<[f64; N_TYPES]>),
    /// Borrowed from a shared [`KernelTables`] (sweep amortisation).
    Shared(&'a KernelTables),
    /// No table at all: compute `execution_time` on demand. Used below
    /// [`SMALL_DAG_TASKS`] and by naive-reference builders (which never
    /// read it — every query short-circuits into [`naive`] first).
    Direct,
}

/// Reusable probe workspace, pooled on the builder so consecutive
/// probes perform **zero** heap allocation once the vectors have grown
/// to the schedule's high-water mark. Contents are meaningless between
/// probes; [`ScheduleBuilder::probe`] re-initialises what it uses.
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Distinct predecessor hosts, in first-encounter order.
    hosts: Vec<HostPreds>,
    /// Flattened predecessor edges.
    edges: Vec<ProbeEdge>,
    /// Per-host arrival scratch for `key_ready` (first `hosts.len()`
    /// entries live).
    arrivals: Vec<f64>,
    /// `local_ready[vm]`: max predecessor finish hosted on that VM,
    /// valid only where `local_epoch[vm] == epoch` — the epoch stamp
    /// replaces the O(V) `vec![NEG_INFINITY; vms.len()]` refill the
    /// old probe paid per call.
    local_ready: Vec<f64>,
    /// Epoch stamp per VM slot (see `local_ready`).
    local_epoch: Vec<u64>,
    /// `host_slot[vm]`: this VM's index into `hosts`, valid only where
    /// `host_epoch[vm] == epoch` — turns the per-predecessor "seen this
    /// host yet?" test into O(1) instead of a scan over `hosts`, which
    /// dominated probe setup for tasks whose predecessors span many VMs
    /// (the AllPar norm on wide levels).
    host_slot: Vec<u32>,
    /// Epoch stamp per VM slot (see `host_slot`).
    host_epoch: Vec<u64>,
    /// Current probe epoch; bumped once per probe.
    epoch: u64,
    /// Per-VM batched start times, filled by
    /// [`ScheduleBuilder::probe_all`].
    starts: Vec<f64>,
}

/// One-slot pool for [`ProbeScratch`]: the probe takes the workspace at
/// construction and its `Drop` returns it. A `Cell` keeps the take/put
/// free of borrow bookkeeping on the hot path.
struct ScratchCell(Cell<Option<ProbeScratch>>);

impl ScratchCell {
    fn new() -> Self {
        ScratchCell(Cell::new(None))
    }

    fn take(&self) -> ProbeScratch {
        self.0.take().unwrap_or_default()
    }

    fn put(&self, scratch: ProbeScratch) {
        self.0.set(Some(scratch));
    }
}

impl std::fmt::Debug for ScratchCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScratchCell(..)")
    }
}

impl Clone for ScratchCell {
    /// Clones start with an empty pool — scratch contents are
    /// meaningless between probes and regrow on first use.
    fn clone(&self) -> Self {
        ScratchCell::new()
    }
}

/// Per-VM idle-window index: the gaps an insertion-policy task may fill
/// and the busy tail appends land on. Gaps no wider than [`EPS`] are
/// dropped — they could only host tasks shorter than 2·EPS.
#[derive(Debug, Clone)]
struct VmGaps {
    /// Idle `[start, end)` windows in chronological order.
    gaps: Vec<(f64, f64)>,
    /// Maximum of the rental open and every appended task end — the
    /// cursor the naive gap scan would hold after the last task.
    tail: f64,
}

impl VmGaps {
    fn new(open: f64) -> Self {
        VmGaps {
            gaps: Vec::new(),
            tail: open,
        }
    }

    /// Record a task appended at the tail.
    fn note_append(&mut self, start: f64, finish: f64) {
        if start - self.tail > EPS {
            self.gaps.push((self.tail, start));
        }
        self.tail = self.tail.max(finish);
    }

    /// Record a task placed by the insertion policy: split the gap it
    /// landed in (tail placements fall back to [`Self::note_append`]).
    fn note_insert(&mut self, start: f64, finish: f64) {
        let containing = self
            .gaps
            .iter()
            .position(|&(gs, ge)| gs <= start + EPS && finish <= ge + EPS);
        match containing {
            Some(i) => {
                let (gs, ge) = self.gaps[i];
                self.gaps.remove(i);
                if ge - finish > EPS {
                    self.gaps.insert(i, (finish, ge));
                }
                if start - gs > EPS {
                    self.gaps.insert(i, (gs, start));
                }
            }
            None => self.note_append(start, finish),
        }
    }

    /// Earliest start for a task of `duration` that is ready at `ready`:
    /// the first indexed gap that fits, else the tail.
    fn earliest_fit(&self, ready: f64, duration: f64) -> f64 {
        for &(gs, ge) in &self.gaps {
            let start = gs.max(ready);
            if start + duration <= ge + EPS {
                return start;
            }
        }
        self.tail.max(ready)
    }
}

/// Pre-fetched handles to the kernel's observability counters (the
/// `kernel.*` and `pool.*` names of [`cws_obs::metrics::names`]).
/// Resolved from the global registry once per builder — only when
/// metrics were enabled at construction — so the hot path pays one
/// relaxed atomic add per event instead of a registry lookup.
#[derive(Debug, Clone)]
struct KernelCounters {
    probes: Arc<obs::Counter>,
    key_builds: Arc<obs::Counter>,
    gap_hits: Arc<obs::Counter>,
    placements: Arc<obs::Counter>,
    schedules: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    table_reuse: Arc<obs::Counter>,
    /// Wall-clock probe latency in nanoseconds. The one metric whose
    /// *sum* is machine-dependent; its count stays deterministic (one
    /// sample per probe), which is what the thread-matrix regression
    /// compares.
    probe_latency: Arc<obs::Histogram>,
}

impl KernelCounters {
    fn fetch() -> Self {
        use obs::metrics::names;
        let reg = obs::MetricsRegistry::global();
        KernelCounters {
            probes: reg.counter(names::KERNEL_PROBES),
            key_builds: reg.counter(names::KERNEL_KEY_BUILDS),
            gap_hits: reg.counter(names::KERNEL_GAP_HITS),
            placements: reg.counter(names::KERNEL_PLACEMENTS),
            schedules: reg.counter(names::KERNEL_SCHEDULES),
            pool_hits: reg.counter(names::POOL_HITS),
            table_reuse: reg.counter(names::KERNEL_TABLE_REUSE),
            probe_latency: reg.histogram(names::KERNEL_PROBE_LATENCY),
        }
    }
}

/// Incremental schedule builder.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    vms: Vec<Vm>,
    placements: Vec<Option<TaskPlacement>>,
    /// Warm VMs offered by an online service layer (see
    /// [`crate::pooled`]). Kept separate from `vms` so the paper's
    /// provisioning policies only ever see machines this workflow has
    /// actually claimed — pre-seeding `vms` would bias `busiest_vm`
    /// with history the policies were not designed to observe.
    warm: &'a dyn WarmOffers,
    /// Slots claimed so far, sorted (a handful per schedule).
    warm_claimed: Vec<usize>,
    /// For each entry of `vms`, the warm slot it was claimed from
    /// (`None` = fresh rental). Maintained in lock-step with `vms`.
    origins: Vec<Option<usize>>,
    /// Execution-time source: owned table, shared [`KernelTables`]
    /// borrow, or on-demand computation (small DAGs and the naive
    /// reference, which must not pay or benefit from fast-path setup).
    exec: ExecSource<'a>,
    /// Path-latency table: `lat[from_region][to_region]`.
    lat: [[f64; N_REGIONS]; N_REGIONS],
    /// Path-bandwidth table: `bw[pair_idx(from, to)]` in MB/s. A
    /// transfer then costs `data_mb / bw[pair] + lat[fr][tr]` — the same
    /// division and add the platform's `transfer_time` performs.
    bw: [f64; N_PAIRS],
    /// Struct-of-arrays mirror of `vms`: per-VM availability (`meter`
    /// tail), refreshed on every placement so probe scans touch one
    /// dense `f64` lane instead of striding through whole `Vm` structs.
    vm_avail: Vec<f64>,
    /// Struct-of-arrays mirror of `vms`: each VM's `(region, itype)`
    /// candidate key as a [`key_idx`] code, for the batched probe pass.
    vm_key: Vec<u16>,
    /// Per-VM idle-window index, in lock-step with `vms`.
    gaps: Vec<VmGaps>,
    /// Pooled probe workspace (see [`ProbeScratch`]).
    scratch: ScratchCell,
    /// Running `(busy_seconds, id)` argmax over `vms` (ties towards the
    /// smaller id). Valid because busy time never decreases.
    busiest: Option<(f64, VmId)>,
    /// Route probes through the [`naive`] reference kernel (captured
    /// from the thread-local switch at construction).
    #[cfg(any(test, feature = "naive"))]
    kernel_naive: bool,
    /// Trace switch captured at construction — same pattern as
    /// `kernel_naive`, so a disabled trace costs one branch on a local.
    trace_on: bool,
    /// Kernel counters, present only while metrics are enabled.
    counters: Option<KernelCounters>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Start an empty schedule for `wf` on `platform`.
    #[must_use]
    pub fn new(wf: &'a Workflow, platform: &'a Platform) -> Self {
        Self::with_warm_pool(wf, platform, NO_WARM)
    }

    /// Start an empty schedule that may claim VMs from `warm` instead of
    /// renting fresh ones (see [`crate::pooled`] for the claiming rules).
    #[must_use]
    pub fn with_warm_pool(
        wf: &'a Workflow,
        platform: &'a Platform,
        warm: &'a dyn WarmOffers,
    ) -> Self {
        Self::construct(wf, platform, warm, None)
    }

    /// Start an empty schedule borrowing pre-built [`KernelTables`]
    /// instead of computing exec/bandwidth/latency tables afresh — the
    /// cross-schedule amortisation a sweep uses to build 57 schedules
    /// per workload from one table set. Bit-identical to [`Self::new`].
    ///
    /// # Panics
    /// Panics if `tables` was built for a workflow of a different size.
    #[must_use]
    pub fn with_tables(wf: &'a Workflow, platform: &'a Platform, tables: &'a KernelTables) -> Self {
        Self::construct(wf, platform, NO_WARM, Some(tables))
    }

    /// [`Self::with_tables`] when tables are at hand, [`Self::new`]
    /// otherwise — the form the strategies' `_with` entry points thread
    /// through.
    #[must_use]
    pub fn with_optional_tables(
        wf: &'a Workflow,
        platform: &'a Platform,
        tables: Option<&'a KernelTables>,
    ) -> Self {
        Self::construct(wf, platform, NO_WARM, tables)
    }

    fn construct(
        wf: &'a Workflow,
        platform: &'a Platform,
        warm: &'a dyn WarmOffers,
        tables: Option<&'a KernelTables>,
    ) -> Self {
        let net = &platform.network;
        #[cfg(any(test, feature = "naive"))]
        let kernel_naive = naive::reference_kernel_enabled();
        #[cfg(not(any(test, feature = "naive")))]
        let kernel_naive = false;
        let counters = obs::metrics_enabled().then(KernelCounters::fetch);
        let shared = if kernel_naive { None } else { tables };
        let exec = if kernel_naive {
            // Never read: every query short-circuits into `naive` first.
            // Offered tables are ignored entirely (no use is recorded)
            // so the reference pass keeps its original cost profile.
            ExecSource::Direct
        } else if let Some(t) = shared {
            assert_eq!(
                t.exec.len(),
                wf.len(),
                "kernel tables were built for a different workflow"
            );
            let prev = t.uses.fetch_add(1, Ordering::Relaxed);
            if prev > 0 {
                if let Some(c) = &counters {
                    c.table_reuse.inc();
                }
            }
            ExecSource::Shared(t)
        } else {
            // The naive kernel validates sizes inside `transfer_time`;
            // the table path divides directly, so validate up front.
            for e in wf.edges() {
                assert!(
                    e.data_mb >= 0.0,
                    "transfer size must be non-negative, got {}",
                    e.data_mb
                );
            }
            if wf.len() < SMALL_DAG_TASKS {
                ExecSource::Direct
            } else {
                ExecSource::Owned(
                    wf.ids()
                        .map(|t| {
                            let base = wf.task(t).base_time;
                            let mut row = [0.0; N_TYPES];
                            for (j, it) in InstanceType::ALL.iter().enumerate() {
                                row[j] = it.execution_time(base);
                            }
                            row
                        })
                        .collect(),
                )
            }
        };
        let (lat, bw) = if let Some(t) = shared {
            (t.lat, t.bw)
        } else {
            let mut lat = [[0.0; N_REGIONS]; N_REGIONS];
            for (i, &a) in Region::ALL.iter().enumerate() {
                for (j, &b) in Region::ALL.iter().enumerate() {
                    lat[i][j] = net.path_latency_s(a, b);
                }
            }
            let mut bw = [0.0; N_PAIRS];
            for &ft in &InstanceType::ALL {
                for &tt in &InstanceType::ALL {
                    bw[pair_idx(ft, tt)] = net.path_bandwidth_mbps(ft, tt);
                }
            }
            (lat, bw)
        };
        ScheduleBuilder {
            wf,
            platform,
            vms: Vec::new(),
            placements: vec![None; wf.len()],
            warm,
            warm_claimed: Vec::new(),
            origins: Vec::new(),
            exec,
            lat,
            bw,
            vm_avail: Vec::new(),
            vm_key: Vec::new(),
            gaps: Vec::new(),
            scratch: ScratchCell::new(),
            busiest: None,
            #[cfg(any(test, feature = "naive"))]
            kernel_naive,
            trace_on: obs::trace_enabled(),
            counters,
        }
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &'a Workflow {
        self.wf
    }

    /// The platform being scheduled onto.
    #[must_use]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The VMs rented so far.
    #[must_use]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// One VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Placement of a task if it has been scheduled.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> Option<TaskPlacement> {
        self.placements[task.index()]
    }

    /// Fast-path execution-time lookup, dispatched on the builder's
    /// [`ExecSource`]. `Direct` computes the same one-multiply
    /// `execution_time` a table entry holds, so all three sources are
    /// bit-identical.
    #[inline]
    fn exec_entry(&self, task: TaskId, itype: InstanceType) -> f64 {
        match &self.exec {
            ExecSource::Owned(t) => t[task.index()][itype as usize],
            ExecSource::Shared(t) => t.exec[task.index()][itype as usize],
            ExecSource::Direct => itype.execution_time(self.wf.task(task).base_time),
        }
    }

    /// Execution time of `task` on an instance of type `itype`.
    #[must_use]
    pub fn exec_time(&self, task: TaskId, itype: InstanceType) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::exec_time(self, task, itype);
        }
        self.exec_entry(task, itype)
    }

    /// Earliest time the inputs of `task` are available on a VM of type
    /// `itype` in `region`, accounting for cross-VM transfers.
    /// `on_vm` identifies the candidate host so intra-VM edges cost zero.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet —
    /// strategies must place tasks in a topological order.
    #[must_use]
    pub fn ready_time(
        &self,
        task: TaskId,
        on_vm: Option<VmId>,
        itype: InstanceType,
        region: Region,
    ) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::ready_time(self, task, on_vm, itype, region);
        }
        let mut ready: f64 = 0.0;
        for e in self.wf.predecessors(task) {
            let p = self.placements[e.from.index()]
                .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
            let transfer = if Some(p.vm) == on_vm {
                0.0
            } else {
                let from = &self.vms[p.vm.index()];
                e.data_mb / self.bw[pair_idx(from.itype, itype)]
                    + self.lat[from.region as usize][region as usize]
            };
            ready = ready.max(p.finish + transfer);
        }
        ready
    }

    /// The start time `task` would get on existing VM `vm`.
    #[must_use]
    pub fn start_time_on(&self, task: TaskId, vm: VmId) -> f64 {
        let v = &self.vms[vm.index()];
        self.ready_time(task, Some(vm), v.itype, v.region)
            .max(v.available_at())
    }

    /// The finish time `task` would get on existing VM `vm`.
    #[must_use]
    pub fn finish_time_on(&self, task: TaskId, vm: VmId) -> f64 {
        let v = &self.vms[vm.index()];
        self.start_time_on(task, vm) + self.exec_time(task, v.itype)
    }

    /// Whether placing `task` on `vm` keeps the VM inside its
    /// already-paid BTUs (the "NotExceed" reuse test).
    #[must_use]
    pub fn fits_on(&self, task: TaskId, vm: VmId) -> bool {
        let v = &self.vms[vm.index()];
        v.fits_without_new_btu(self.exec_time(task, v.itype))
    }

    /// A reusable probe for `task`: answers ready/start/finish/insertion
    /// queries against any candidate VM in O(1) after an O(preds) setup,
    /// by bucketing the placed predecessors per host VM and reducing
    /// their transfer-adjusted finish times per (region, itype) key.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet.
    ///
    /// # Examples
    /// ```
    /// use cws_core::ScheduleBuilder;
    /// use cws_dag::WorkflowBuilder;
    /// use cws_platform::{InstanceType, Platform};
    ///
    /// let mut b = WorkflowBuilder::new("pair");
    /// let a = b.task("a", 100.0);
    /// let c = b.task("c", 50.0);
    /// b.edge(a, c);
    /// let wf = b.build().unwrap();
    /// let platform = Platform::ec2_paper();
    ///
    /// let mut sb = ScheduleBuilder::new(&wf, &platform);
    /// let vm = sb.place_on_new(a, InstanceType::Small);
    /// let finish_a = sb.placement(a).unwrap().finish;
    ///
    /// let mut probe = sb.probe(c);
    /// // On the predecessor's own VM no transfer is paid: `c` is ready
    /// // the instant `a` finishes.
    /// assert_eq!(probe.ready_on(vm), finish_a);
    /// // A fresh VM in the same region pays the (possibly zero) network
    /// // delay, so it can never be ready earlier.
    /// let fresh = probe.ready_fresh(InstanceType::Small, platform.default_region);
    /// assert!(fresh >= finish_a);
    /// ```
    #[must_use]
    pub fn probe(&self, task: TaskId) -> TaskProbe<'_, 'a> {
        // Observability only: the sampled wall-clock never feeds back
        // into simulated time, so replays stay pure functions of
        // (workload, platform, seed).
        let timed = self.counters.as_ref().map(|c| {
            c.probes.inc();
            std::time::Instant::now() // cws-lint: allow(wall-clock-in-sim)
        });
        let mut scratch = self.scratch.take();
        scratch.hosts.clear();
        scratch.edges.clear();
        if !self.is_naive() {
            // Epoch stamp instead of refilling `local_ready` with
            // NEG_INFINITY per probe: a slot is live only when its
            // stamp matches the current epoch, and a stale slot reads
            // as NEG_INFINITY — `NEG_INFINITY.max(x) == x` exactly, so
            // direct-set on first touch is bit-identical to the refill.
            scratch.epoch += 1;
            if scratch.local_epoch.len() < self.vms.len() {
                scratch.local_epoch.resize(self.vms.len(), 0);
                scratch
                    .local_ready
                    .resize(self.vms.len(), f64::NEG_INFINITY);
                scratch.host_epoch.resize(self.vms.len(), 0);
                scratch.host_slot.resize(self.vms.len(), 0);
            }
            let preds = self.wf.predecessors(task);
            scratch.edges.reserve(preds.len());
            for e in preds {
                let p = self.placements[e.from.index()]
                    .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
                let i = p.vm.index();
                let slot = if scratch.host_epoch[i] == scratch.epoch {
                    scratch.host_slot[i] as usize
                } else {
                    let hv = &self.vms[i];
                    scratch.hosts.push(HostPreds {
                        vm: p.vm,
                        region: hv.region,
                        itype: hv.itype,
                    });
                    scratch.host_epoch[i] = scratch.epoch;
                    scratch.host_slot[i] = (scratch.hosts.len() - 1) as u32;
                    scratch.hosts.len() - 1
                };
                if scratch.local_epoch[i] == scratch.epoch {
                    scratch.local_ready[i] = scratch.local_ready[i].max(p.finish);
                } else {
                    scratch.local_epoch[i] = scratch.epoch;
                    scratch.local_ready[i] = p.finish;
                }
                scratch.edges.push(ProbeEdge {
                    host: slot as u32,
                    data_mb: e.data_mb,
                    finish: p.finish,
                });
            }
            if scratch.arrivals.len() < scratch.hosts.len() {
                scratch
                    .arrivals
                    .resize(scratch.hosts.len(), f64::NEG_INFINITY);
            }
        }
        if let (Some(c), Some(t0)) = (&self.counters, timed) {
            c.probe_latency.record(t0.elapsed().as_nanos() as u64);
        }
        TaskProbe {
            sb: self,
            task,
            scratch,
            keys: [None; N_KEYS],
        }
    }

    /// Batched multi-candidate probe: evaluate **every** rented VM's
    /// start time for `task` in one cache-friendly pass over the dense
    /// `vm_key`/`vm_avail` lanes, instead of N independent per-VM
    /// queries. Ready keys are still built lazily per distinct
    /// `(region, itype)` key in VM-id first-encounter order, so the
    /// `kernel.key_ready_builds` counter (and every float operation)
    /// matches the sequential loops it replaces.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet.
    #[must_use]
    pub fn probe_all(&self, task: TaskId) -> BatchProbe<'_, 'a> {
        let mut probe = self.probe(task);
        if !self.is_naive() {
            if probe.scratch.starts.len() < self.vms.len() {
                probe.scratch.starts.resize(self.vms.len(), 0.0);
            }
            for i in 0..self.vms.len() {
                let ki = self.vm_key[i] as usize;
                let key = probe.key_ready_idx(ki);
                let cross = if key.top_vm == VmId(i as u32) {
                    key.second
                } else {
                    key.top
                };
                let local = if probe.scratch.local_epoch[i] == probe.scratch.epoch {
                    probe.scratch.local_ready[i]
                } else {
                    f64::NEG_INFINITY
                };
                let ready = cross.max(0.0).max(local);
                probe.scratch.starts[i] = ready.max(self.vm_avail[i]);
            }
        }
        BatchProbe { probe }
    }

    /// The candidate (VM, start, finish) triples `task` would get on
    /// every rented VM, in VM-id order — the fast replacement for
    /// hand-rolled `vms().iter().map(|v| finish_time_on(..))` scans.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet.
    pub fn candidates_for(&self, task: TaskId) -> impl Iterator<Item = Candidate> + '_ {
        let mut batch = self.probe_all(task);
        self.vms.iter().map(move |v| {
            let start = batch.start_of(v.id);
            Candidate {
                vm: v.id,
                itype: v.itype,
                start,
                finish: start + self.exec_time(task, v.itype),
            }
        })
    }

    /// Rent a fresh VM in the platform's default region and place `task`
    /// on it. The rental opens at the decision time (the task's data-ready
    /// instant) and the task starts once the configured boot delay has
    /// elapsed — a mid-schedule rental is never pre-booted for free.
    pub fn place_on_new(&mut self, task: TaskId, itype: InstanceType) -> VmId {
        self.place_on_new_in(task, itype, self.platform.default_region)
    }

    /// Rent a fresh VM in an explicit region and place `task` on it.
    pub fn place_on_new_in(&mut self, task: TaskId, itype: InstanceType, region: Region) -> VmId {
        let id = VmId(self.vms.len() as u32);
        let ready = self.ready_time(task, None, itype, region);
        let start = ready + self.platform.boot_time_s;
        let mut vm = Vm::new(id, itype, region, ready);
        let finish = start + self.exec_time(task, itype);
        vm.push_task(task, start, finish);
        self.vms.push(vm);
        self.vm_avail.push(self.vms[id.index()].available_at());
        self.vm_key.push(key_idx(region, itype) as u16);
        self.origins.push(None);
        // At boot 0 the gap index opens at 0 (the paper's pre-provisioned
        // fleet: insertion strategies may fill any pre-start idle). With a
        // non-zero boot there is no usable time before the first task —
        // the machine is still booting — so the index opens at `start`.
        let open = if self.platform.boot_time_s == 0.0 { 0.0 } else { start };
        let mut gaps = VmGaps::new(open);
        gaps.note_append(start, finish);
        self.gaps.push(gaps);
        self.refresh_busiest(id);
        self.set_placement(task, id, start, finish);
        self.observe_lease(id);
        self.observe_placement(task, id, start, finish, obs::PlacementKind::NewVm);
        id
    }

    /// For each rented VM (same order as [`Self::vms`]), the warm slot
    /// it was claimed from — `None` for fresh rentals.
    #[must_use]
    pub fn vm_origins(&self) -> &[Option<usize>] {
        &self.origins
    }

    /// The best still-unclaimed warm slot for `task`, or `None` when no
    /// slot beats renting fresh.
    ///
    /// A slot is eligible when it has the requested type and `task`
    /// could start on it no later than on a fresh rental (whose first
    /// task waits out [`Platform::boot_time_s`] *after* its data is
    /// ready — so a longer boot delay makes warm reuse strictly more
    /// attractive). With `require_fit`
    /// (the NotExceed policies) the task must additionally fit in the
    /// slot's current partially-consumed BTU. Ties prefer the earlier
    /// start, then the slot deeper into its BTU (pack paid time), then
    /// the lower slot id — so the result does not depend on the order
    /// the [`WarmOffers`] source visits its slots in.
    #[must_use]
    pub fn best_warm_slot(
        &self,
        task: TaskId,
        itype: InstanceType,
        require_fit: bool,
    ) -> Option<usize> {
        let duration = self.exec_time(task, itype);
        let boot = self.platform.boot_time_s;
        let mut probe = self.probe(task);
        let mut best: Option<(usize, f64, f64)> = None; // (slot, start, btu_elapsed)
        self.warm.offer(itype, &mut |i, slot| {
            if self.warm_claimed.binary_search(&i).is_ok() {
                return true;
            }
            let ready = probe.ready_fresh(itype, slot.region);
            let start = ready.max(slot.available_rel);
            let fresh_start = ready + boot;
            let beats_fresh = start <= fresh_start + EPS;
            let fits = !require_fit || fits_in_current_btu(slot.btu_elapsed, duration);
            let better = best.is_none_or(|(bi, bs, be)| {
                start
                    .total_cmp(&bs)
                    .then(be.total_cmp(&slot.btu_elapsed))
                    .then(i.cmp(&bi))
                    .is_lt()
            });
            if beats_fresh && fits && better {
                best = Some((i, start, slot.btu_elapsed));
            }
            beats_fresh
        });
        best.map(|(i, _, _)| i)
    }

    /// Claim warm slot `slot` for `task`: the slot becomes a rented VM
    /// whose meter carries the slot's already-consumed BTU seconds, so
    /// later `NotExceed` fit tests keep seeing the machine's true
    /// position in its billing unit.
    ///
    /// # Panics
    /// Panics if the slot was already claimed.
    pub fn claim_warm(&mut self, task: TaskId, slot: usize) -> VmId {
        match self.warm_claimed.binary_search(&slot) {
            Ok(_) => panic!("warm slot {slot} claimed twice"),
            Err(at) => self.warm_claimed.insert(at, slot),
        }
        let WarmVm {
            itype,
            region,
            available_rel,
            btu_elapsed,
        } = self.warm.slot(slot);
        let id = VmId(self.vms.len() as u32);
        let ready = self.ready_time(task, None, itype, region);
        let start = ready.max(available_rel);
        let mut vm = Vm::new(id, itype, region, start);
        // Carried busy time: `fits_on` and `busiest_vm` observe the
        // machine's whole current-BTU history, which is exactly what an
        // online provisioner can see. Schedule-level cost metrics stop
        // being meaningful for pooled schedules — the service layer
        // bills pool VMs by wall clock instead.
        vm.meter.busy = btu_elapsed;
        let finish = start + self.exec_time(task, itype);
        vm.push_task(task, start, finish);
        self.vms.push(vm);
        self.vm_avail.push(self.vms[id.index()].available_at());
        self.vm_key.push(key_idx(region, itype) as u16);
        self.origins.push(Some(slot));
        // A claimed slot is already booted, so its first task may start
        // before a fresh rental could. As with fresh rentals, no usable
        // idle exists before the first task, so the gap index opens
        // where the task starts (at 0 under the paper's zero-boot
        // setting, matching the naive scan's cursor).
        let open = if self.platform.boot_time_s == 0.0 { 0.0 } else { start };
        let mut gaps = VmGaps::new(open);
        gaps.note_append(start, finish);
        self.gaps.push(gaps);
        self.refresh_busiest(id);
        self.set_placement(task, id, start, finish);
        if let Some(c) = &self.counters {
            c.pool_hits.inc();
        }
        self.observe_lease(id);
        self.observe_placement(task, id, start, finish, obs::PlacementKind::WarmClaim);
        id
    }

    /// Place `task` on an existing VM, appending after its last task.
    pub fn place_on(&mut self, task: TaskId, vm: VmId) {
        let start = self.start_time_on(task, vm);
        let itype = self.vms[vm.index()].itype;
        let finish = start + self.exec_time(task, itype);
        self.vms[vm.index()].push_task(task, start, finish);
        self.vm_avail[vm.index()] = self.vms[vm.index()].available_at();
        self.gaps[vm.index()].note_append(start, finish);
        self.refresh_busiest(vm);
        self.set_placement(task, vm, start, finish);
        self.observe_placement(task, vm, start, finish, obs::PlacementKind::Append);
    }

    /// The earliest start `task` could get on `vm` using *insertion*:
    /// the task may fill an idle gap between already-placed tasks, not
    /// just the tail. This is classic HEFT's insertion policy.
    #[must_use]
    pub fn insertion_start_on(&self, task: TaskId, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::insertion_start_on(self, task, vm);
        }
        let v = &self.vms[vm.index()];
        let ready = self.ready_time(task, Some(vm), v.itype, v.region);
        let duration = self.exec_entry(task, v.itype);
        self.gaps[vm.index()].earliest_fit(ready, duration)
    }

    /// Place `task` on `vm` with the insertion policy: it lands in the
    /// earliest idle gap that fits (or at the tail).
    pub fn place_on_inserted(&mut self, task: TaskId, vm: VmId) {
        let start = self.insertion_start_on(task, vm);
        let itype = self.vms[vm.index()].itype;
        let finish = start + self.exec_time(task, itype);
        // A start strictly before the busy tail means the task filled an
        // indexed idle gap rather than appending — the event the
        // `kernel.gap_index_hits` counter measures.
        let gap_hit = start + EPS < self.gaps[vm.index()].tail;
        self.vms[vm.index()].insert_task(task, start, finish);
        self.vm_avail[vm.index()] = self.vms[vm.index()].available_at();
        self.gaps[vm.index()].note_insert(start, finish);
        self.refresh_busiest(vm);
        self.set_placement(task, vm, start, finish);
        if let Some(c) = &self.counters {
            if gap_hit {
                c.gap_hits.inc();
            }
        }
        self.observe_placement(task, vm, start, finish, obs::PlacementKind::Insert);
    }

    /// Count and trace one placement decision (every placement method
    /// funnels through here after updating its indices).
    fn observe_placement(
        &self,
        task: TaskId,
        vm: VmId,
        start: f64,
        finish: f64,
        kind: obs::PlacementKind,
    ) {
        if let Some(c) = &self.counters {
            c.placements.inc();
        }
        if self.trace_on {
            obs::emit(|| obs::TraceEvent::ProbeDecision {
                task: task.index() as u32,
                vm: vm.0,
                start,
                finish,
                kind,
            });
        }
    }

    /// Trace the lease of a freshly rented or warm-claimed VM, carrying
    /// its per-BTU price so a trace consumer can recompute run cost.
    fn observe_lease(&self, vm: VmId) {
        if self.trace_on {
            let v = &self.vms[vm.index()];
            obs::emit(|| obs::TraceEvent::VmLease {
                vm: v.id.0,
                itype: v.itype.name().to_string(),
                region: v.region.id().to_string(),
                price_per_btu: self.platform.price_in(v.region, v.itype),
                time: v.meter.start,
            });
        }
    }

    fn set_placement(&mut self, task: TaskId, vm: VmId, start: f64, finish: f64) {
        assert!(
            self.placements[task.index()].is_none(),
            "task {task} placed twice"
        );
        self.placements[task.index()] = Some(TaskPlacement { vm, start, finish });
    }

    /// Fold VM `vm`'s current busy time into the running argmax. Busy
    /// time only ever grows and placements touch one VM at a time, so
    /// the incremental update reproduces the full scan's result (max
    /// busy, ties towards the smaller id).
    fn refresh_busiest(&mut self, vm: VmId) {
        let busy = self.vms[vm.index()].busy_seconds();
        self.busiest = match self.busiest {
            Some((_, id)) if id == vm => Some((busy, id)),
            Some((best, id)) if busy > best || (busy == best && vm.0 < id.0) => Some((busy, vm)),
            None => Some((busy, vm)),
            keep => keep,
        };
    }

    /// Whether this builder routes probes through the naive reference
    /// kernel.
    #[inline]
    fn is_naive(&self) -> bool {
        #[cfg(any(test, feature = "naive"))]
        {
            self.kernel_naive
        }
        #[cfg(not(any(test, feature = "naive")))]
        {
            false
        }
    }

    /// The existing VM with the largest accumulated execution time —
    /// the paper's "VM with the largest execution time" used by the
    /// StartPar policies and by sequential tasks under the AllPar
    /// policies. Ties break towards the smaller VM id. `None` when no VM
    /// has been rented yet.
    #[must_use]
    pub fn busiest_vm(&self) -> Option<VmId> {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::busiest_vm(self);
        }
        self.busiest.map(|(_, id)| id)
    }

    /// Like [`Self::busiest_vm`] but restricted to VMs accepted by
    /// `keep`.
    #[must_use]
    pub fn busiest_vm_where(&self, mut keep: impl FnMut(&Vm) -> bool) -> Option<VmId> {
        self.vms
            .iter()
            .filter(|v| keep(v))
            .max_by(|a, b| {
                a.busy_seconds()
                    .total_cmp(&b.busy_seconds())
                    .then(b.id.0.cmp(&a.id.0))
            })
            .map(|v| v.id)
    }

    /// The VM (among those accepted by `keep`) on which `task` could
    /// start earliest — usually the VM hosting one of its predecessors,
    /// since that avoids both the transfer delay and any wait for a
    /// foreign VM to free up. Ties break towards the largest accumulated
    /// execution time (pack BTUs), then the smaller VM id.
    ///
    /// All of `task`'s predecessors must already be placed.
    #[must_use]
    pub fn earliest_start_vm_where(
        &self,
        task: TaskId,
        mut keep: impl FnMut(&Vm) -> bool,
    ) -> Option<VmId> {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::earliest_start_vm_where(self, task, keep);
        }
        // One probe, then a single fused pass: each kept VM's start time
        // is computed inline (the same per-key lazy ready reduction
        // `probe_all` performs, producing the same bits) and folded into
        // the running min immediately — no intermediate `starts` lane,
        // no second scan. The comparator is the sequential `min_by`'s —
        // earliest start, then largest busy time, then smallest id; ids
        // are unique so the order is total and first-vs-last min never
        // matters.
        let mut probe = self.probe(task);
        let mut best: Option<(VmId, f64, f64)> = None;
        for v in &self.vms {
            if !keep(v) {
                continue;
            }
            let i = v.id.index();
            let key = probe.key_ready_idx(self.vm_key[i] as usize);
            let cross = if key.top_vm == v.id {
                key.second
            } else {
                key.top
            };
            let local = if probe.scratch.local_epoch[i] == probe.scratch.epoch {
                probe.scratch.local_ready[i]
            } else {
                f64::NEG_INFINITY
            };
            let start = cross.max(0.0).max(local).max(self.vm_avail[i]);
            let busy = v.busy_seconds();
            best = match best {
                Some((bid, bs, bb))
                    if start
                        .total_cmp(&bs)
                        .then(bb.total_cmp(&busy))
                        .then(v.id.0.cmp(&bid.0))
                        != std::cmp::Ordering::Less =>
                {
                    Some((bid, bs, bb))
                }
                _ => Some((v.id, start, busy)),
            };
        }
        best.map(|(id, _, _)| id)
    }

    /// Number of tasks still unplaced.
    #[must_use]
    pub fn unplaced_count(&self) -> usize {
        self.placements.iter().filter(|p| p.is_none()).count()
    }

    /// Freeze into a [`Schedule`].
    ///
    /// # Panics
    /// Panics if any task is still unplaced.
    #[must_use]
    pub fn build(self, strategy: impl Into<String>) -> Schedule {
        if let Some(c) = &self.counters {
            c.schedules.inc();
        }
        let placements: Vec<TaskPlacement> = self
            .placements
            .iter()
            .enumerate()
            .map(|(i, p)| p.unwrap_or_else(|| panic!("task t{i} never placed")))
            .collect();
        Schedule {
            strategy: strategy.into(),
            vms: self.vms,
            placements,
        }
    }
}

/// One entry of a [`TaskProbe`]'s candidate stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate host.
    pub vm: VmId,
    /// Its instance type.
    pub itype: InstanceType,
    /// Start time the task would get (append policy).
    pub start: f64,
    /// Finish time the task would get (append policy).
    pub finish: f64,
}

/// The placed predecessors of a probed task that share one host VM.
#[derive(Debug, Clone, Copy)]
struct HostPreds {
    /// The host.
    vm: VmId,
    /// Its region (immutable once rented), snapshotted to spare the
    /// per-edge VM lookup in [`TaskProbe::key_ready`].
    region: Region,
    /// Its instance type, snapshotted for the same reason.
    itype: InstanceType,
}

/// One predecessor edge of a probed task, flattened so a probe performs
/// exactly three allocations however many hosts its predecessors span.
#[derive(Debug, Clone, Copy)]
struct ProbeEdge {
    /// Index into [`TaskProbe::hosts`].
    host: u32,
    /// Payload of the edge.
    data_mb: f64,
    /// Finish time of the placed predecessor.
    finish: f64,
}

/// Top-2 cross-host ready contributions for one (region, itype) key:
/// enough to answer "max over hosts except the candidate itself" in
/// O(1).
#[derive(Debug, Clone, Copy)]
struct KeyReady {
    /// Largest transfer-adjusted arrival over all hosts.
    top: f64,
    /// The host contributing `top`.
    top_vm: VmId,
    /// Largest arrival over the remaining hosts.
    second: f64,
}

/// Per-task probe answering candidate-VM queries in O(1); see
/// [`ScheduleBuilder::probe`]. Its workspace is taken from the
/// builder's scratch pool at construction and returned on drop, so a
/// strategy's probe loop allocates nothing after the first probe.
#[derive(Debug)]
pub struct TaskProbe<'b, 'a> {
    sb: &'b ScheduleBuilder<'a>,
    task: TaskId,
    scratch: ProbeScratch,
    keys: [Option<KeyReady>; N_KEYS],
}

impl Drop for TaskProbe<'_, '_> {
    fn drop(&mut self) {
        self.sb.scratch.put(std::mem::take(&mut self.scratch));
    }
}

impl TaskProbe<'_, '_> {
    /// The (lazily computed) cross-host reduction for one candidate key.
    fn key_ready(&mut self, region: Region, itype: InstanceType) -> KeyReady {
        self.key_ready_idx(key_idx(region, itype))
    }

    /// [`Self::key_ready`] addressed by pre-encoded [`key_idx`] code
    /// (the form the batched pass reads straight off `vm_key`).
    fn key_ready_idx(&mut self, ki: usize) -> KeyReady {
        if let Some(k) = self.keys[ki] {
            return k;
        }
        let region = Region::ALL[ki / N_TYPES];
        let itype = InstanceType::ALL[ki % N_TYPES];
        let sb = self.sb;
        if let Some(c) = &sb.counters {
            c.key_builds.inc();
        }
        let ProbeScratch {
            hosts,
            edges,
            arrivals,
            ..
        } = &mut self.scratch;
        let n_hosts = hosts.len();
        for a in &mut arrivals[..n_hosts] {
            *a = f64::NEG_INFINITY;
        }
        for e in edges.iter() {
            let h = &hosts[e.host as usize];
            // Same operation order as the naive path: the transfer
            // (bandwidth share + latency) is summed first, then added
            // to the predecessor finish. `f64::max` is exact, so the
            // per-host max is order-independent.
            let transfer = e.data_mb / sb.bw[pair_idx(h.itype, itype)]
                + sb.lat[h.region as usize][region as usize];
            let a = &mut arrivals[e.host as usize];
            *a = a.max(e.finish + transfer);
        }
        let mut top = f64::NEG_INFINITY;
        let mut top_vm = VmId(u32::MAX);
        let mut second = f64::NEG_INFINITY;
        for (h, &arrival) in hosts.iter().zip(arrivals.iter()) {
            if arrival > top {
                second = top;
                top = arrival;
                top_vm = h.vm;
            } else if arrival > second {
                second = arrival;
            }
        }
        let k = KeyReady {
            top,
            top_vm,
            second,
        };
        self.keys[ki] = Some(k);
        k
    }

    /// Epoch-checked local-ready read: NEG_INFINITY when no predecessor
    /// of the probed task is hosted on VM slot `i`.
    #[inline]
    fn local_ready_at(&self, i: usize) -> f64 {
        if self.scratch.local_epoch[i] == self.scratch.epoch {
            self.scratch.local_ready[i]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Ready time of the task on candidate VM `vm` (intra-VM edges cost
    /// zero). Equals `ScheduleBuilder::ready_time(task, Some(vm), ..)`.
    pub fn ready_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            let v = &self.sb.vms[vm.index()];
            return naive::ready_time(self.sb, self.task, Some(vm), v.itype, v.region);
        }
        let ki = self.sb.vm_key[vm.index()] as usize;
        let key = self.key_ready_idx(ki);
        let cross = if key.top_vm == vm {
            key.second
        } else {
            key.top
        };
        // NEG_INFINITY (no local predecessor) is the identity of the
        // max, matching the "host not found" case of a scan.
        cross.max(0.0).max(self.local_ready_at(vm.index()))
    }

    /// Ready time on a *new* VM of `itype` in `region` (every transfer
    /// is paid). Equals `ScheduleBuilder::ready_time(task, None, ..)`.
    pub fn ready_fresh(&mut self, itype: InstanceType, region: Region) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            return naive::ready_time(self.sb, self.task, None, itype, region);
        }
        self.key_ready(region, itype).top.max(0.0)
    }

    /// Start time the task would get on `vm` (append policy).
    pub fn start_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            let available = self.sb.vms[vm.index()].available_at();
            return self.ready_on(vm).max(available);
        }
        let available = self.sb.vm_avail[vm.index()];
        self.ready_on(vm).max(available)
    }

    /// Finish time the task would get on `vm` (append policy).
    pub fn finish_on(&mut self, vm: VmId) -> f64 {
        let itype = self.sb.vms[vm.index()].itype;
        self.start_on(vm) + self.sb.exec_time(self.task, itype)
    }

    /// Earliest start on `vm` under the insertion policy.
    pub fn insertion_start_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            return naive::insertion_start_on(self.sb, self.task, vm);
        }
        let ready = self.ready_on(vm);
        let v = &self.sb.vms[vm.index()];
        let duration = self.sb.exec_entry(self.task, v.itype);
        self.sb.gaps[vm.index()].earliest_fit(ready, duration)
    }

    /// Finish time on `vm` under the insertion policy.
    pub fn insertion_finish_on(&mut self, vm: VmId) -> f64 {
        let itype = self.sb.vms[vm.index()].itype;
        self.insertion_start_on(vm) + self.sb.exec_time(self.task, itype)
    }
}

/// The result of [`ScheduleBuilder::probe_all`]: one batched pass has
/// already computed the task's start time on every rented VM, so the
/// per-candidate accessors are plain array reads. Fresh-VM and
/// insertion queries delegate to the underlying [`TaskProbe`] (whose
/// ready keys the batch pass warmed), so a strategy can compare
/// existing-VM, new-VM and gap-insertion candidates from one probe.
#[derive(Debug)]
pub struct BatchProbe<'b, 'a> {
    probe: TaskProbe<'b, 'a>,
}

impl BatchProbe<'_, '_> {
    /// Start time the task would get on `vm` (append policy). Equals
    /// `TaskProbe::start_on(vm)`.
    pub fn start_of(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.probe.sb.kernel_naive {
            return self.probe.start_on(vm);
        }
        self.probe.scratch.starts[vm.index()]
    }

    /// Finish time the task would get on `vm` (append policy).
    pub fn finish_of(&mut self, vm: VmId) -> f64 {
        let itype = self.probe.sb.vms[vm.index()].itype;
        self.start_of(vm) + self.probe.sb.exec_time(self.probe.task, itype)
    }

    /// Ready time on a *new* VM of `itype` in `region`.
    pub fn fresh_ready(&mut self, itype: InstanceType, region: Region) -> f64 {
        self.probe.ready_fresh(itype, region)
    }

    /// Earliest start on `vm` under the insertion policy.
    pub fn insertion_start_of(&mut self, vm: VmId) -> f64 {
        self.probe.insertion_start_on(vm)
    }

    /// Finish time on `vm` under the insertion policy.
    pub fn insertion_finish_of(&mut self, vm: VmId) -> f64 {
        self.probe.insertion_finish_on(vm)
    }
}

/// The original (pre-fast-path) probe implementations, kept as the
/// reference kernel: the `fastpath_tests` property suite proves the fast
/// path bit-identical to these, and `cws-bench` (via the `naive`
/// feature) measures the speedup against them in the same process.
///
/// [`naive::set_reference_kernel`] switches a thread to the naive kernel;
/// builders capture the switch at construction time.
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use super::{ScheduleBuilder, TaskId, Vm, VmId};
    use cws_platform::{InstanceType, Region};
    use std::cell::Cell;

    thread_local! {
        static REFERENCE_KERNEL: Cell<bool> = const { Cell::new(false) };
    }

    /// Route all probes of builders constructed *after* this call (on
    /// this thread) through the naive reference kernel.
    pub fn set_reference_kernel(on: bool) {
        REFERENCE_KERNEL.with(|c| c.set(on));
    }

    /// Whether the reference kernel is enabled on this thread.
    #[must_use]
    pub fn reference_kernel_enabled() -> bool {
        REFERENCE_KERNEL.with(|c| c.get())
    }

    pub(super) fn exec_time(sb: &ScheduleBuilder<'_>, task: TaskId, itype: InstanceType) -> f64 {
        itype.execution_time(sb.wf.task(task).base_time)
    }

    pub(super) fn ready_time(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        on_vm: Option<VmId>,
        itype: InstanceType,
        region: Region,
    ) -> f64 {
        let mut ready: f64 = 0.0;
        for e in sb.wf.predecessors(task) {
            let p = sb.placements[e.from.index()]
                .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
            let from_vm = &sb.vms[p.vm.index()];
            let transfer = if Some(p.vm) == on_vm {
                0.0
            } else {
                sb.platform.transfer_time_between(
                    e.data_mb,
                    (from_vm.region, from_vm.itype),
                    (region, itype),
                )
            };
            ready = ready.max(p.finish + transfer);
        }
        ready
    }

    pub(super) fn start_time_on(sb: &ScheduleBuilder<'_>, task: TaskId, vm: VmId) -> f64 {
        let v = &sb.vms[vm.index()];
        ready_time(sb, task, Some(vm), v.itype, v.region).max(v.available_at())
    }

    pub(super) fn insertion_start_on(sb: &ScheduleBuilder<'_>, task: TaskId, vm: VmId) -> f64 {
        const EPS: f64 = 1e-9;
        let v = &sb.vms[vm.index()];
        let ready = ready_time(sb, task, Some(vm), v.itype, v.region);
        let duration = exec_time(sb, task, v.itype);
        // Candidate gaps: before the first task, between consecutive
        // tasks, after the last (v.tasks is chronological). At boot 0
        // the machine is usable from time 0 (pre-provisioned fleet);
        // with a non-zero boot no usable idle exists before the first
        // task, so the scan starts there — mirroring `VmGaps::new`.
        let mut cursor = if sb.platform.boot_time_s == 0.0 {
            0.0
        } else {
            v.tasks.first().map_or(0.0, |&(_, s, _)| s)
        };
        for &(_, s, e) in &v.tasks {
            let start = cursor.max(ready);
            if start + duration <= s + EPS {
                return start;
            }
            cursor = cursor.max(e);
        }
        cursor.max(ready)
    }

    pub(super) fn busiest_vm(sb: &ScheduleBuilder<'_>) -> Option<VmId> {
        sb.vms
            .iter()
            .max_by(|a, b| {
                a.busy_seconds()
                    .total_cmp(&b.busy_seconds())
                    .then(b.id.0.cmp(&a.id.0))
            })
            .map(|v| v.id)
    }

    pub(super) fn earliest_start_vm_where(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        mut keep: impl FnMut(&Vm) -> bool,
    ) -> Option<VmId> {
        sb.vms
            .iter()
            .filter(|v| keep(v))
            .map(|v| (v, start_time_on(sb, task, v.id)))
            .min_by(|(a, sa), (b, sb_)| {
                sa.total_cmp(sb_)
                    .then(b.busy_seconds().total_cmp(&a.busy_seconds()))
                    .then(a.id.0.cmp(&b.id.0))
            })
            .map(|(v, _)| v.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn chain2() -> Workflow {
        let mut b = WorkflowBuilder::new("chain2");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.edge(a, c);
        b.build().unwrap()
    }

    #[test]
    fn place_chain_on_one_vm() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.makespan(), 300.0);
        assert_eq!(s.vm_count(), 1);
    }

    #[test]
    fn place_chain_on_two_vms_pays_transfer() {
        let mut b = WorkflowBuilder::new("xfer");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.data_edge(a, c, 1250.0); // 10 s on 1 Gb/s
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        let start1 = s.placement(TaskId(1)).start;
        assert!((start1 - (100.0 + 10.0 + p.network.intra_region_latency_s)).abs() < 1e-9);
    }

    #[test]
    fn faster_instance_shortens_task() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::XLarge);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        assert!((s.makespan() - 300.0 / 2.7).abs() < 1e-9);
    }

    #[test]
    fn busiest_vm_picks_largest_execution() {
        let mut b = WorkflowBuilder::new("par");
        let a = b.task("a", 100.0);
        let c = b.task("c", 500.0);
        let _ = a;
        let _ = c;
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        assert_eq!(sb.busiest_vm(), Some(VmId(1)));
        assert_eq!(sb.busiest_vm_where(|v| v.id == VmId(0)), Some(VmId(0)));
    }

    #[test]
    fn busiest_tie_breaks_to_smaller_id() {
        let mut b = WorkflowBuilder::new("tie");
        b.task("a", 100.0);
        b.task("c", 100.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        assert_eq!(sb.busiest_vm(), Some(VmId(0)));
    }

    #[test]
    fn fits_on_tracks_btu_consumption() {
        let mut b = WorkflowBuilder::new("fit");
        b.task("big", 3000.0);
        b.task("small", 500.0);
        b.task("tiny", 200.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        assert!(sb.fits_on(TaskId(1), vm)); // 3000 + 500 <= 3600
        assert!(sb.fits_on(TaskId(2), vm)); // 3000 + 200 <= 3600
        sb.place_on(TaskId(1), vm); // now 3500 used
        assert!(!sb.fits_on(TaskId(2), vm)); // 3500 + 200 > 3600
    }

    #[test]
    fn boot_time_delays_first_task() {
        let wf = chain2();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        assert_eq!(s.placement(TaskId(0)).start, 120.0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_placement_panics() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(0), vm);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn incomplete_build_panics() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        let _ = sb.build("test");
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn ready_time_requires_predecessors_placed() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let sb = ScheduleBuilder::new(&wf, &p);
        let _ = sb.ready_time(TaskId(1), None, InstanceType::Small, Region::UsEastVirginia);
    }

    #[test]
    fn unplaced_count_decreases() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        assert_eq!(sb.unplaced_count(), 2);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        assert_eq!(sb.unplaced_count(), 1);
    }

    /// A diamond whose joins and transfers exercise every probe: the
    /// fast-path answers must match the retained naive implementations
    /// exactly, VM by VM.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 400.0);
        let x = b.task("x", 900.0);
        let y = b.task("y", 700.0);
        let z = b.task("z", 300.0);
        b.data_edge(a, x, 2500.0);
        b.data_edge(a, y, 125.0);
        b.data_edge(x, z, 625.0);
        b.data_edge(y, z, 1250.0);
        b.build().unwrap()
    }

    #[test]
    fn fast_probes_match_naive_reference() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new_in(TaskId(1), InstanceType::Large, Region::EuDublin);
        sb.place_on_new(TaskId(2), InstanceType::Medium);
        let task = TaskId(3);
        for v in 0..3 {
            let vm = VmId(v);
            let vt = sb.vm(vm).itype;
            let vr = sb.vm(vm).region;
            assert_eq!(
                sb.ready_time(task, Some(vm), vt, vr),
                naive::ready_time(&sb, task, Some(vm), vt, vr),
                "ready on {vm}"
            );
            assert_eq!(
                sb.start_time_on(task, vm),
                naive::start_time_on(&sb, task, vm),
                "start on {vm}"
            );
            assert_eq!(
                sb.insertion_start_on(task, vm),
                naive::insertion_start_on(&sb, task, vm),
                "insertion on {vm}"
            );
        }
        for it in InstanceType::ALL {
            for r in Region::ALL {
                assert_eq!(
                    sb.ready_time(task, None, it, r),
                    naive::ready_time(&sb, task, None, it, r),
                    "fresh ready for {it:?} in {r:?}"
                );
            }
        }
        assert_eq!(sb.busiest_vm(), naive::busiest_vm(&sb));
        assert_eq!(
            sb.earliest_start_vm_where(task, |_| true),
            naive::earliest_start_vm_where(&sb, task, |_| true)
        );
    }

    #[test]
    fn probe_matches_direct_queries() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        sb.place_on_new(TaskId(2), InstanceType::XLarge);
        let task = TaskId(3);
        let mut probe = sb.probe(task);
        for v in 0..3 {
            let vm = VmId(v);
            let (vt, vr) = (sb.vm(vm).itype, sb.vm(vm).region);
            assert_eq!(probe.ready_on(vm), sb.ready_time(task, Some(vm), vt, vr));
            assert_eq!(probe.start_on(vm), sb.start_time_on(task, vm));
            assert_eq!(probe.finish_on(vm), sb.finish_time_on(task, vm));
            assert_eq!(
                probe.insertion_start_on(vm),
                sb.insertion_start_on(task, vm)
            );
        }
        let candidates: Vec<Candidate> = sb.candidates_for(task).collect();
        assert_eq!(candidates.len(), 3);
        for c in &candidates {
            assert_eq!(c.start, sb.start_time_on(task, c.vm));
            assert_eq!(c.finish, sb.finish_time_on(task, c.vm));
        }
    }

    #[test]
    fn gap_index_tracks_insertions() {
        // Build one VM with a gap, fill it with the insertion policy and
        // verify subsequent insertion probes match the naive rescan.
        let mut b = WorkflowBuilder::new("gaps");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        let d = b.task("d", 50.0);
        let e = b.task("e", 40.0);
        b.data_edge(a, c, 12500.0); // 100 s transfer if cross-VM
        let _ = (d, e);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let v0 = sb.place_on_new(TaskId(0), InstanceType::Small); // [0, 100]
        sb.place_on_new(TaskId(1), InstanceType::Small);
        // c lands on its own VM after the transfer; v0 idles from 100.
        sb.place_on(TaskId(1 + 2), VmId(0)); // d appends at 100 on v0
        let _ = v0;
        // e fits nowhere special; probe both VMs against naive.
        for vm in [VmId(0), VmId(1)] {
            assert_eq!(
                sb.insertion_start_on(TaskId(3), vm),
                naive::insertion_start_on(&sb, TaskId(3), vm)
            );
        }
    }

    #[test]
    fn reference_kernel_switch_produces_identical_schedules() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let run = || {
            let mut sb = ScheduleBuilder::new(&wf, &p);
            sb.place_on_new(TaskId(0), InstanceType::Small);
            let vm = sb
                .earliest_start_vm_where(TaskId(1), |_| true)
                .expect("one VM");
            sb.place_on(TaskId(1), vm);
            sb.place_on_new(TaskId(2), InstanceType::Medium);
            let vm = sb.busiest_vm().expect("vms exist");
            sb.place_on_inserted(TaskId(3), vm);
            sb.build("probe")
        };
        let fast = run();
        naive::set_reference_kernel(true);
        let reference = run();
        naive::set_reference_kernel(false);
        assert_eq!(fast, reference);
    }
}
