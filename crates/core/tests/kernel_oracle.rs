//! The reference scheduling kernel, as a test-only oracle.
//!
//! `cws_core::state` answers every probe — ready, start, finish and
//! insertion times, the busiest VM, the earliest-start VM — from cached
//! tables and incrementally maintained indices. [`reference`] is a plain
//! transcription of the same semantics over the builder's public API,
//! and the tests below hold the fast kernel to it bit for bit:
//!
//! * **Replay audit.** Each strategy runs once on the fast kernel with a
//!   `cws_obs` ring sink installed. Its ordered `VmLease` and
//!   `ProbeDecision` events are the exact placement sequence. Replaying
//!   them into a fresh builder built the same way, every probe answer is
//!   compared with the reference *before* each step: for every ready
//!   task, every rented VM and every fresh `(itype, region)`, through
//!   the builder's direct queries, `probe` and `probe_all`. A strategy's
//!   decisions depend only on probe answers at the states it visits, so
//!   agreement at every visited state means a reference run would have
//!   made the same decisions. The replayed schedule must also equal the
//!   fast one.
//! * **Pick audit.** On wide, level-parallel inputs the full audit is
//!   too slow, so each step checks only `earliest_start_vm_where` for the
//!   task about to be placed, under the AllPar level filters, and that
//!   each call counts exactly the `kernel.key_ready_builds` a scan of
//!   every VM would.
//! * **Type loops.** The CPA-Eager and GAIN upgrade loops are compared
//!   directly with transcriptions over `critical_path`,
//!   `one_vm_per_task_cost` and `gain_matrix`.
//!
//! The trace sink is process-global, so every test here holds [`LOCK`].

use cws_core::alloc::cpa::{
    baseline_cost, cpa_eager_types, cpa_eager_types_with, one_vm_per_task_cost,
};
use cws_core::alloc::gain::{gain_matrix, gain_types, gain_types_with};
use cws_core::alloc::{heft_insertion, heft_pool, list_schedule, ListRule, PoolSpec};
use cws_core::state::Candidate;
use cws_core::{
    pooled_static, KernelTables, Schedule, ScheduleBuilder, StaticAlloc, Strategy, Vm, VmId, WarmVm,
};
use cws_dag::{TaskId, Workflow, WorkflowBuilder};
use cws_obs::metrics::names::KERNEL_KEY_BUILDS;
use cws_obs::{MetricsRegistry, PlacementKind, RingSink, TraceEvent};
use cws_platform::{InstanceType, Platform, Region};
use cws_workloads::random::{fork_join, layered_dag, ForkJoinShape, LayeredShape};
use cws_workloads::{cybershake, CyberShakeShape, Scenario};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The plain reading of the paper's semantics: every answer recomputed
/// from the placed tasks, with no tables, indices or caches.
mod reference {
    use super::*;

    pub fn exec_time(sb: &ScheduleBuilder<'_>, task: TaskId, itype: InstanceType) -> f64 {
        itype.execution_time(sb.workflow().task(task).base_time)
    }

    pub fn ready_time(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        on_vm: Option<VmId>,
        itype: InstanceType,
        region: Region,
    ) -> f64 {
        let mut ready: f64 = 0.0;
        for e in sb.workflow().predecessors(task) {
            let p = sb
                .placement(e.from)
                .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
            let from_vm = sb.vm(p.vm);
            let transfer = if Some(p.vm) == on_vm {
                0.0
            } else {
                sb.platform().transfer_time_between(
                    e.data_mb,
                    (from_vm.region, from_vm.itype),
                    (region, itype),
                )
            };
            ready = ready.max(p.finish + transfer);
        }
        ready
    }

    pub fn start_time_on(sb: &ScheduleBuilder<'_>, task: TaskId, vm: VmId) -> f64 {
        let v = sb.vm(vm);
        ready_time(sb, task, Some(vm), v.itype, v.region).max(v.available_at())
    }

    pub fn insertion_start_on(sb: &ScheduleBuilder<'_>, task: TaskId, vm: VmId) -> f64 {
        const EPS: f64 = 1e-9;
        let v = sb.vm(vm);
        let ready = ready_time(sb, task, Some(vm), v.itype, v.region);
        let duration = exec_time(sb, task, v.itype);
        // Candidate gaps: before the first task, between consecutive
        // tasks, after the last (`v.tasks` is chronological). At boot 0
        // the machine is usable from time 0 (pre-provisioned fleet);
        // with a non-zero boot no usable idle exists before the first
        // task, so the scan starts there.
        let mut cursor = if sb.platform().boot_time_s == 0.0 {
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

    pub fn busiest_vm(sb: &ScheduleBuilder<'_>) -> Option<VmId> {
        sb.vms()
            .iter()
            .max_by(|a, b| {
                a.busy_seconds()
                    .total_cmp(&b.busy_seconds())
                    .then(b.id.0.cmp(&a.id.0))
            })
            .map(|v| v.id)
    }

    pub fn earliest_start_vm_where(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        keep: impl Fn(&Vm) -> bool,
    ) -> Option<VmId> {
        sb.vms()
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

    /// CPA-Eager: recompute the critical path after every upgrade and
    /// promote the slowest upgradeable task on it one type step, as long
    /// as the one-VM-per-task rent, re-summed from scratch, fits.
    pub fn cpa_eager_types(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
        let mut types = vec![InstanceType::Small; wf.len()];
        loop {
            let cp = cws_dag::critical_path(
                wf,
                |t| types[t.index()].execution_time(wf.task(t).base_time),
                |e| platform.transfer_time(e.data_mb, types[e.from.index()], types[e.to.index()]),
            );
            let mut candidates: Vec<TaskId> = cp
                .tasks
                .iter()
                .copied()
                .filter(|t| types[t.index()].next_faster().is_some())
                .collect();
            candidates.sort_by(|a, b| {
                let ea = types[a.index()].execution_time(wf.task(*a).base_time);
                let eb = types[b.index()].execution_time(wf.task(*b).base_time);
                eb.total_cmp(&ea).then(a.0.cmp(&b.0))
            });
            let mut upgraded = false;
            for t in candidates {
                let prev = types[t.index()];
                types[t.index()] = prev.next_faster().expect("filtered to upgradeable");
                if one_vm_per_task_cost(wf, platform, &types) <= budget + 1e-9 {
                    upgraded = true;
                    break;
                }
                types[t.index()] = prev;
            }
            if !upgraded {
                return types;
            }
        }
    }

    /// GAIN: recompute and sort the whole gain matrix every iteration
    /// and apply the first entry whose from-scratch rent fits.
    pub fn gain_types(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
        let mut types = vec![InstanceType::Small; wf.len()];
        loop {
            let mut entries = gain_matrix(wf, platform, &types);
            entries.sort_by(|a, b| {
                b.gain
                    .total_cmp(&a.gain)
                    .then(a.task.0.cmp(&b.task.0))
                    .then(a.to.speedup().total_cmp(&b.to.speedup()))
            });
            let mut applied = false;
            for e in entries {
                let prev = types[e.task.index()];
                types[e.task.index()] = e.to;
                if one_vm_per_task_cost(wf, platform, &types) <= budget + 1e-9 {
                    applied = true;
                    break;
                }
                types[e.task.index()] = prev;
            }
            if !applied {
                return types;
            }
        }
    }
}

/// Serialises the tests of this binary: the trace sink is global.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bit-for-bit agreement of each `(query, fast, reference)` answer;
/// `at` names the state and candidate on failure.
fn assert_same(at: impl Fn() -> String, answers: &[(&str, f64, f64)]) {
    for &(query, fast, reference) in answers {
        assert!(
            fast.to_bits() == reference.to_bits(),
            "{}: {query}: fast {fast} != reference {reference}",
            at()
        );
    }
}

/// Unplaced tasks whose predecessors are all placed — the only tasks a
/// strategy can probe.
fn ready_tasks(sb: &ScheduleBuilder<'_>) -> Vec<TaskId> {
    let wf = sb.workflow();
    wf.ids()
        .filter(|&t| {
            sb.placement(t).is_none()
                && wf
                    .predecessors(t)
                    .iter()
                    .all(|e| sb.placement(e.from).is_some())
        })
        .collect()
}

/// A VM filter as `earliest_start_vm_where` takes it.
type VmFilter<'a> = &'a dyn Fn(&Vm) -> bool;

/// A named, owned [`VmFilter`].
type NamedFilter<'a> = (String, Box<dyn Fn(&Vm) -> bool + 'a>);

/// Compare every probe answer of the builder's current state with the
/// reference.
fn audit(sb: &ScheduleBuilder<'_>, ctx: &str) {
    assert_eq!(
        sb.busiest_vm(),
        reference::busiest_vm(sb),
        "{ctx}: busiest VM"
    );
    assert_eq!(
        sb.busiest_vm_where(|_| true),
        reference::busiest_vm(sb),
        "{ctx}: busiest VM (filtered)"
    );
    for task in ready_tasks(sb) {
        for it in InstanceType::ALL {
            assert_same(
                || format!("{ctx}: {task} on {it:?}"),
                &[(
                    "exec time",
                    sb.exec_time(task, it),
                    reference::exec_time(sb, task, it),
                )],
            );
        }
        let mut probe = sb.probe(task);
        let mut batch = sb.probe_all(task);
        for it in InstanceType::ALL {
            for r in Region::ALL {
                let want = reference::ready_time(sb, task, None, it, r);
                assert_same(
                    || format!("{ctx}: {task} on a fresh {it:?} in {r:?}"),
                    &[
                        ("ready", sb.ready_time(task, None, it, r), want),
                        ("probe ready", probe.ready_fresh(it, r), want),
                        ("batch ready", batch.fresh_ready(it, r), want),
                    ],
                );
            }
        }
        for v in sb.vms() {
            let vm = v.id;
            let exec = reference::exec_time(sb, task, v.itype);
            let ready = reference::ready_time(sb, task, Some(vm), v.itype, v.region);
            let start = reference::start_time_on(sb, task, vm);
            let inserted = reference::insertion_start_on(sb, task, vm);
            assert_same(
                || format!("{ctx}: {task} on {vm}"),
                &[
                    (
                        "ready",
                        sb.ready_time(task, Some(vm), v.itype, v.region),
                        ready,
                    ),
                    ("probe ready", probe.ready_on(vm), ready),
                    ("start", sb.start_time_on(task, vm), start),
                    ("probe start", probe.start_on(vm), start),
                    ("batch start", batch.start_of(vm), start),
                    ("finish", sb.finish_time_on(task, vm), start + exec),
                    ("probe finish", probe.finish_on(vm), start + exec),
                    ("batch finish", batch.finish_of(vm), start + exec),
                    ("insertion", sb.insertion_start_on(task, vm), inserted),
                    ("probe insertion", probe.insertion_start_on(vm), inserted),
                    ("batch insertion", batch.insertion_start_of(vm), inserted),
                    (
                        "probe insertion finish",
                        probe.insertion_finish_on(vm),
                        inserted + exec,
                    ),
                    (
                        "batch insertion finish",
                        batch.insertion_finish_of(vm),
                        inserted + exec,
                    ),
                ],
            );
            assert_eq!(
                sb.fits_on(task, vm),
                v.fits_without_new_btu(exec),
                "{ctx}: fit of {task} on {vm}"
            );
        }
        drop((probe, batch));
        let candidates: Vec<Candidate> = sb.candidates_for(task).collect();
        let want: Vec<Candidate> = sb
            .vms()
            .iter()
            .map(|v| {
                let start = reference::start_time_on(sb, task, v.id);
                Candidate {
                    vm: v.id,
                    itype: v.itype,
                    start,
                    finish: start + reference::exec_time(sb, task, v.itype),
                }
            })
            .collect();
        assert_eq!(candidates, want, "{ctx}: candidates of {task}");
        // The filters the provisioning policies and AllPar1LnS pass.
        let fits = |v: &Vm| v.fits_without_new_btu(reference::exec_time(sb, task, v.itype));
        let keeps: [(&str, VmFilter<'_>); 5] = [
            ("all", &|_| true),
            ("fits", &fits),
            ("even id", &|v| v.id.0.is_multiple_of(2)),
            ("small", &|v| v.itype == InstanceType::Small),
            ("xlarge", &|v| v.itype == InstanceType::XLarge),
        ];
        for (name, keep) in keeps {
            assert_eq!(
                sb.earliest_start_vm_where(task, |v| keep(v)),
                reference::earliest_start_vm_where(sb, task, |v| keep(v)),
                "{ctx}: earliest-start VM for {task} among {name}"
            );
        }
    }
}

/// Clears the global trace sink on drop, so a failing case cannot leave
/// tracing on for the next test.
struct SinkGuard;

impl Drop for SinkGuard {
    fn drop(&mut self) {
        cws_obs::clear_sink();
    }
}

/// Run `run` on the fast kernel with a ring sink installed; return its
/// result and every event it emitted.
fn traced<T>(run: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let ring = Arc::new(RingSink::new(1 << 22));
    cws_obs::install_sink(ring.clone());
    let guard = SinkGuard;
    let out = run();
    drop(guard);
    let events = ring.events();
    assert_eq!(
        events.len() as u64,
        ring.recorded(),
        "trace ring overflowed"
    );
    (out, events)
}

/// Replay `events` into `sb`, calling `check` with the task about to be
/// placed at every visited state, and require the replay to rebuild
/// `fast` exactly. A warm claim resolves through `origins`, the slot each
/// VM of `fast` was claimed from.
fn replay(
    mut sb: ScheduleBuilder<'_>,
    origins: &[Option<usize>],
    label: &str,
    fast: &Schedule,
    events: &[TraceEvent],
    mut check: impl FnMut(&ScheduleBuilder<'_>, TaskId, &str),
) {
    let wf = sb.workflow();
    let mut leases: Vec<(InstanceType, Region)> = Vec::new();
    let mut steps = 0;
    for event in events {
        match event {
            TraceEvent::VmLease {
                vm, itype, region, ..
            } => {
                assert_eq!(*vm as usize, leases.len(), "{label}: leases out of order");
                leases.push((
                    InstanceType::parse(itype).expect("known instance type"),
                    Region::parse(region).expect("known region"),
                ));
            }
            &TraceEvent::ProbeDecision {
                task,
                vm,
                start,
                finish,
                kind,
            } => {
                let (task, vm) = (TaskId(task), VmId(vm));
                check(
                    &sb,
                    task,
                    &format!("{label} on {} before step {steps}", wf.name()),
                );
                match kind {
                    PlacementKind::NewVm => {
                        let (itype, region) = leases[vm.index()];
                        assert_eq!(sb.place_on_new_in(task, itype, region), vm);
                    }
                    PlacementKind::Append => sb.place_on(task, vm),
                    PlacementKind::Insert => sb.place_on_inserted(task, vm),
                    PlacementKind::WarmClaim => {
                        let slot = origins
                            .get(vm.index())
                            .copied()
                            .flatten()
                            .unwrap_or_else(|| panic!("{label}: {vm} claimed from no slot"));
                        assert_eq!(sb.claim_warm(task, slot), vm);
                    }
                }
                let placed = sb.placement(task).expect("just placed");
                assert!(
                    placed.vm == vm
                        && placed.start.to_bits() == start.to_bits()
                        && placed.finish.to_bits() == finish.to_bits(),
                    "{label}: replayed step {steps} placed {placed:?}, trace says {vm} [{start}, {finish}]"
                );
                steps += 1;
            }
            _ => {}
        }
    }
    assert_eq!(steps, wf.len(), "{label}: one decision per task");
    let replayed = sb.build(fast.strategy.clone());
    assert!(
        replayed == *fast,
        "{label}: replay diverged from the fast schedule on {}",
        wf.name()
    );
}

/// Replay `events` into a fresh builder over `tables`, auditing every
/// visited state, and require the replay to rebuild `fast` exactly.
fn replay_audit(
    wf: &Workflow,
    platform: &Platform,
    tables: Option<&KernelTables>,
    label: &str,
    fast: &Schedule,
    events: &[TraceEvent],
) {
    let sb = ScheduleBuilder::with_optional_tables(wf, platform, tables);
    replay(sb, &[], label, fast, events, |sb, _, ctx| audit(sb, ctx));
    fast.validate(wf, platform)
        .unwrap_or_else(|e| panic!("{label}: invalid schedule: {e}"));
}

/// Each task's level index (the AllPar policies' unit of parallelism).
fn level_index(wf: &Workflow) -> Vec<usize> {
    let mut level = vec![0; wf.len()];
    for (i, tasks) in wf.levels().iter().enumerate() {
        for t in tasks {
            level[t.index()] = i;
        }
    }
    level
}

/// The earliest-start pick for `task`, under the filters the AllPar
/// policies, pooled AllPar and AllPar1LnS pass — VMs not yet used by
/// the task's level, alone, with the BTU-fit test and per instance
/// type — plus unfiltered and an id-parity filter. Each pick must equal
/// the reference's, and with metrics on each call must count one key
/// build per distinct `(region, itype)` among the kept VMs, as a scan
/// of every VM does.
fn audit_pick(sb: &ScheduleBuilder<'_>, task: TaskId, level: &[usize], ctx: &str) {
    let used: Vec<bool> = sb
        .vms()
        .iter()
        .map(|v| {
            v.tasks
                .iter()
                .any(|&(t, _, _)| level[t.index()] == level[task.index()])
        })
        .collect();
    let free = |v: &Vm| !used[v.id.index()];
    let fits = |v: &Vm| v.fits_without_new_btu(reference::exec_time(sb, task, v.itype));
    let mut keeps: Vec<NamedFilter<'_>> = vec![
        ("all".into(), Box::new(|_| true)),
        ("free".into(), Box::new(free)),
        ("free and fitting".into(), Box::new(|v| free(v) && fits(v))),
        ("odd id".into(), Box::new(|v| v.id.0 % 2 == 1)),
    ];
    for it in InstanceType::ALL {
        keeps.push((
            format!("free {it:?}"),
            Box::new(move |v| free(v) && v.itype == it),
        ));
    }
    let builds = MetricsRegistry::global().counter(KERNEL_KEY_BUILDS);
    for (name, keep) in &keeps {
        let before = builds.get();
        let pick = sb.earliest_start_vm_where(task, |v| keep(v));
        let counted = builds.get() - before;
        assert_eq!(
            pick,
            reference::earliest_start_vm_where(sb, task, |v| keep(v)),
            "{ctx}: earliest-start VM for {task} among {name}"
        );
        let mut keys: Vec<(Region, InstanceType)> = Vec::new();
        for v in sb.vms().iter().filter(|v| keep(v)) {
            if !keys.contains(&(v.region, v.itype)) {
                keys.push((v.region, v.itype));
            }
        }
        assert_eq!(
            counted,
            keys.len() as u64,
            "{ctx}: key builds for {task} among {name}"
        );
    }
}

/// Turns metrics collection off on drop.
struct MetricsGuard;

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        cws_obs::set_metrics_enabled(false);
    }
}

/// Trace `run` (which schedules on `warm`, recording each VM's slot in
/// the returned origins), then replay it on a metrics-counting builder
/// over the same pool, auditing the pick at every step.
fn assert_picks_agree(
    wf: &Workflow,
    platform: &Platform,
    label: &str,
    warm: &[WarmVm],
    run: impl FnOnce() -> (Schedule, Vec<Option<usize>>),
) {
    let ((fast, origins), events) = traced(run);
    let level = level_index(wf);
    cws_obs::set_metrics_enabled(true);
    let _metrics = MetricsGuard;
    let sb = ScheduleBuilder::with_warm_pool(wf, platform, &warm);
    replay(sb, &origins, label, &fast, &events, |sb, task, ctx| {
        audit_pick(sb, task, &level, ctx);
    });
}

/// All 19 paper pairings through the pick audit.
fn assert_paper_set_picks_agree(wf: &Workflow, platform: &Platform) {
    for strategy in Strategy::paper_set() {
        assert_picks_agree(wf, platform, &strategy.label(), &[], || {
            (strategy.schedule(wf, platform), Vec::new())
        });
    }
}

/// Trace `run` on the fast kernel and replay-audit it on a builder over
/// `replay_tables` (the same kind of tables `run` used).
fn assert_kernel_agrees(
    wf: &Workflow,
    platform: &Platform,
    label: &str,
    replay_tables: Option<&KernelTables>,
    run: impl FnOnce() -> Schedule,
) {
    let (fast, events) = traced(run);
    replay_audit(wf, platform, replay_tables, label, &fast, &events);
}

/// All 19 paper pairings through `Strategy::schedule` (builder-owned or
/// on-demand execution times, by DAG size).
fn assert_paper_set_agrees(wf: &Workflow, platform: &Platform) {
    for strategy in Strategy::paper_set() {
        assert_kernel_agrees(wf, platform, &strategy.label(), None, || {
            strategy.schedule(wf, platform)
        });
    }
}

/// The allocators beyond the paper set that consume the candidate,
/// batch-probe and insertion APIs directly.
fn assert_extended_allocators_agree(wf: &Workflow, platform: &Platform, machines: usize) {
    assert_kernel_agrees(wf, platform, "HEFT-pool", None, || {
        heft_pool(wf, platform, &PoolSpec::default())
    });
    assert_kernel_agrees(wf, platform, "HEFT-ins", None, || {
        heft_insertion(wf, platform, InstanceType::Medium, machines)
    });
    for rule in [ListRule::MinMin, ListRule::MaxMin] {
        assert_kernel_agrees(wf, platform, rule.name(), None, || {
            list_schedule(wf, platform, rule, InstanceType::Small, machines)
        });
    }
}

/// The fast CPA-Eager and GAIN type loops, with and without shared
/// tables, equal the reference loops at every multiple of the baseline.
fn assert_type_loops_agree(wf: &Workflow, platform: &Platform) {
    let tables = KernelTables::build(wf, platform);
    let base = baseline_cost(wf, platform);
    for multiplier in [1.0, 2.0, 4.0, 8.0] {
        let budget = multiplier * base;
        let cpa = reference::cpa_eager_types(wf, platform, budget);
        assert_eq!(
            cpa_eager_types(wf, platform, budget),
            cpa,
            "CPA-Eager at {multiplier}x on {}",
            wf.name()
        );
        assert_eq!(
            cpa_eager_types_with(wf, platform, budget, Some(&tables)),
            cpa,
            "CPA-Eager with tables at {multiplier}x on {}",
            wf.name()
        );
        let gain = reference::gain_types(wf, platform, budget);
        assert_eq!(
            gain_types(wf, platform, budget),
            gain,
            "GAIN at {multiplier}x on {}",
            wf.name()
        );
        assert_eq!(
            gain_types_with(wf, platform, budget, Some(&tables)),
            gain,
            "GAIN with tables at {multiplier}x on {}",
            wf.name()
        );
    }
}

fn arb_layered() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (2usize..6, 1usize..5, 0.05f64..0.9, 0u64..1000).prop_map(|(l, w, p, s)| {
        let wf = layered_dag(LayeredShape {
            levels: l,
            min_width: 1,
            max_width: w,
            edge_prob: p,
            seed: s,
        });
        Scenario::Pareto { seed: s }.apply(&wf)
    })
}

fn arb_fork_join() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (1usize..4, 1usize..5, 0u64..1000).prop_map(|(stages, fanout, seed)| {
        let wf = fork_join(ForkJoinShape { stages, fanout });
        Scenario::Pareto { seed }.apply(&wf)
    })
}

/// Layered and fork-join DAGs at their generators' uniform runtimes:
/// equal durations make equal starts, busy times and gains common, so
/// every tie-break is exercised.
fn arb_uniform() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (2usize..6, 1usize..5, 0.05f64..0.9, 0u64..1000).prop_map(|(l, w, p, s)| {
        if s % 2 == 0 {
            layered_dag(LayeredShape {
                levels: l,
                min_width: 1,
                max_width: w,
                edge_prob: p,
                seed: s,
            })
        } else {
            fork_join(ForkJoinShape {
                stages: l - 1,
                fanout: w,
            })
        }
    })
}

/// Layered DAGs of at least 128 tasks — past the size at which a
/// builder without offered tables builds its own execution-time table.
fn arb_large_layered() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (8usize..10, 0.05f64..0.3, 0u64..1000).prop_map(|(levels, p, seed)| {
        let wf = layered_dag(LayeredShape {
            levels,
            min_width: 16,
            max_width: 20,
            edge_prob: p,
            seed,
        });
        Scenario::Pareto { seed }.apply(&wf)
    })
}

/// A diamond whose joins and transfers exercise every probe.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All 19 paper pairings, random layered DAGs.
    #[test]
    fn paper_set_agrees_on_layered_dags(wf in arb_layered()) {
        let _serial = serial();
        assert_paper_set_agrees(&wf, &Platform::ec2_paper());
        assert_type_loops_agree(&wf, &Platform::ec2_paper());
    }

    /// All 19 paper pairings, fork-join DAGs (deep join fan-ins stress
    /// the ready-time reduction; repeated stages stress gap reuse).
    #[test]
    fn paper_set_agrees_on_fork_join_dags(wf in arb_fork_join()) {
        let _serial = serial();
        assert_paper_set_agrees(&wf, &Platform::ec2_paper());
        assert_type_loops_agree(&wf, &Platform::ec2_paper());
    }

    /// Extended allocators that consume the candidate/probe API directly.
    #[test]
    fn extended_allocators_agree(wf in arb_layered(), machines in 1usize..4) {
        let _serial = serial();
        assert_extended_allocators_agree(&wf, &Platform::ec2_paper(), machines);
    }

    /// All 19 pairings through the *reused-table* path: one
    /// [`KernelTables`] build lent to every schedule, replayed over a
    /// second shared build.
    #[test]
    fn paper_set_with_shared_tables_agrees(wf in arb_layered()) {
        let _serial = serial();
        let p = Platform::ec2_paper();
        let tables = KernelTables::build(&wf, &p);
        let replay_tables = KernelTables::build(&wf, &p);
        for strategy in Strategy::paper_set() {
            assert_kernel_agrees(&wf, &p, &strategy.label(), Some(&replay_tables), || {
                strategy.schedule_with(&wf, &p, Some(&tables))
            });
        }
        prop_assert_eq!(tables.uses(), 19);
    }

    /// A 120 s boot delay: fresh rentals start after the boot, and the
    /// insertion scan opens at the first task instead of time 0.
    #[test]
    fn boot_delay_agrees(wf in arb_layered(), machines in 1usize..4) {
        let _serial = serial();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        assert_paper_set_agrees(&wf, &p);
        assert_extended_allocators_agree(&wf, &p, machines);
    }

    /// Uniform runtimes, at boot 0 and with a boot delay.
    #[test]
    fn ties_agree_on_uniform_runtime_dags(wf in arb_uniform(), machines in 1usize..4) {
        let _serial = serial();
        for p in [Platform::ec2_paper(), Platform::ec2_paper().with_boot_time(120.0)] {
            assert_paper_set_agrees(&wf, &p);
            assert_extended_allocators_agree(&wf, &p, machines);
        }
        assert_type_loops_agree(&wf, &Platform::ec2_paper());
    }

    /// [`ScheduleBuilder::probe_all`] answers exactly what a fresh
    /// sequential [`ScheduleBuilder::probe`] would, for every rented VM,
    /// at every step of a growing schedule.
    #[test]
    fn probe_all_matches_sequential_probes(wf in arb_layered()) {
        let _serial = serial();
        let p = Platform::ec2_paper();
        let tables = KernelTables::build(&wf, &p);
        let mut sb = ScheduleBuilder::with_tables(&wf, &p, &tables);
        for &task in wf.topological_order() {
            let ids: Vec<VmId> = sb.vms().iter().map(|v| v.id).collect();
            let batch_starts: Vec<f64> = {
                let mut batch = sb.probe_all(task);
                ids.iter().map(|&id| batch.start_of(id)).collect()
            };
            let probe_starts: Vec<f64> = {
                let mut probe = sb.probe(task);
                ids.iter().map(|&id| probe.start_on(id)).collect()
            };
            prop_assert_eq!(&batch_starts, &probe_starts, "task {:?}", task);
            // Grow the schedule so later probes see occupied VMs: spill
            // every third task onto a new VM, pack the rest greedily.
            let spill = task.index() % 3 == 0 || sb.vms().is_empty();
            if spill {
                sb.place_on_new(task, InstanceType::Small);
            } else {
                let best = batch_starts
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| VmId(u32::try_from(i).unwrap()))
                    .unwrap();
                sb.place_on(task, best);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// ≥128-task DAGs scheduled without offered tables take the
    /// builder-owned table path.
    #[test]
    fn large_dags_agree_on_owned_tables(wf in arb_large_layered()) {
        let _serial = serial();
        prop_assert!(wf.len() >= 128);
        assert_paper_set_agrees(&wf, &Platform::ec2_paper());
        assert_type_loops_agree(&wf, &Platform::ec2_paper());
    }
}

/// All 19 pairings through the shared [`KernelTables`] path at pinned
/// seeds.
#[test]
fn paper_set_with_shared_tables_at_pinned_seeds() {
    let _serial = serial();
    let p = Platform::ec2_paper();
    for seed in [7u64, 42, 1337] {
        let wf = Scenario::Pareto { seed }.apply(&layered_dag(LayeredShape {
            levels: 5,
            min_width: 2,
            max_width: 8,
            edge_prob: 0.35,
            seed,
        }));
        let tables = KernelTables::build(&wf, &p);
        let replay_tables = KernelTables::build(&wf, &p);
        for strategy in Strategy::paper_set() {
            assert_kernel_agrees(&wf, &p, &strategy.label(), Some(&replay_tables), || {
                strategy.schedule_with(&wf, &p, Some(&tables))
            });
        }
        assert_type_loops_agree(&wf, &p);
        assert_eq!(tables.uses(), 19, "seed {seed}");
    }
}

/// Cross-region and mixed-type hosts: every probe of the join task.
#[test]
fn diamond_probes_match_reference() {
    let _serial = serial();
    let wf = diamond();
    let p = Platform::ec2_paper();
    let mut sb = ScheduleBuilder::new(&wf, &p);
    sb.place_on_new(TaskId(0), InstanceType::Small);
    audit(&sb, "diamond after a");
    sb.place_on_new_in(TaskId(1), InstanceType::Large, Region::EuDublin);
    sb.place_on_new(TaskId(2), InstanceType::Medium);
    audit(&sb, "diamond before z");
}

/// A hand-driven sequence over append, fresh-rental and insertion
/// placements, including the busiest-VM and earliest-start queries.
#[test]
fn hand_driven_schedule_matches_reference() {
    let _serial = serial();
    let wf = diamond();
    let p = Platform::ec2_paper();
    assert_kernel_agrees(&wf, &p, "hand-driven", None, || {
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
    });
}

/// Insertion probes after a VM idles between tasks, at boot 0 and with
/// a boot delay.
#[test]
fn gap_index_tracks_insertions() {
    let _serial = serial();
    let mut b = WorkflowBuilder::new("gaps");
    let a = b.task("a", 100.0);
    let c = b.task("c", 200.0);
    b.task("d", 50.0);
    b.task("e", 40.0);
    b.data_edge(a, c, 12500.0); // 100 s transfer if cross-VM
    let wf = b.build().unwrap();
    for p in [
        Platform::ec2_paper(),
        Platform::ec2_paper().with_boot_time(120.0),
    ] {
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        sb.place_on(TaskId(2), VmId(0));
        audit(&sb, "gaps before e");
        sb.place_on_inserted(TaskId(3), VmId(1));
        audit(&sb, "gaps after e");
    }
}

/// CyberShake's fan-out/fan-in at 300 tasks: two extractions, two
/// 148-wide levels, two zips — the wide levels the pruned pick is for.
#[test]
fn cybershake_fan_in_picks_agree() {
    let _serial = serial();
    let wf = Scenario::Pareto { seed: 42 }.apply(&cybershake(CyberShakeShape { synthesis: 148 }));
    assert_eq!(wf.len(), 300);
    for p in [
        Platform::ec2_paper(),
        Platform::ec2_paper().with_boot_time(120.0),
    ] {
        assert_paper_set_picks_agree(&wf, &p);
    }
}

/// `stages` forks of `width` tasks, each fork fed by one task and joined
/// by the next, over zero-byte edges; runtimes vary so busy times differ.
fn zero_byte_forks(width: usize, stages: usize) -> Workflow {
    let mut b = WorkflowBuilder::new(format!("zero-byte-forks-{width}x{stages}"));
    let mut head = b.task("head_0", 100.0);
    for s in 0..stages {
        let join = b.task(format!("head_{}", s + 1), 80.0);
        for i in 0..width {
            let t = b.task(format!("f{s}_{i}"), 50.0 + ((i * 37 + s * 11) % 211) as f64);
            b.edge(head, t);
            b.edge(t, join);
        }
        head = join;
    }
    b.build().unwrap()
}

/// Zero-byte edges cost only the path latency, so every instance type
/// of a region shares one floor. Once the level's host is taken, the
/// first key scanned sets the best start to that floor and the other
/// keys of the region tie it: they must still be scanned.
/// AllPar1LnSDyn mixes instance types.
#[test]
fn zero_byte_fork_ties_agree() {
    let _serial = serial();
    let wf = zero_byte_forks(24, 3);
    for p in [
        Platform::ec2_paper(),
        Platform::ec2_paper().with_boot_time(120.0),
    ] {
        assert_paper_set_picks_agree(&wf, &p);
    }
}

/// The tie across keys, driven by hand: a fork run on a fleet of every
/// instance type in two regions, then an AllPar-style level whose picks
/// must break floor ties by busy time across keys.
#[test]
fn mixed_fleet_ties_across_keys_agree() {
    let _serial = serial();
    let wf = zero_byte_forks(24, 2);
    let p = Platform::ec2_paper();
    let level = level_index(&wf);
    cws_obs::set_metrics_enabled(true);
    let _metrics = MetricsGuard;
    let mut sb = ScheduleBuilder::new(&wf, &p);
    let mut tasks = wf.topological_order().iter().copied();
    let head = tasks.next().expect("non-empty");
    sb.place_on_new(head, InstanceType::Small);
    for (i, task) in tasks.enumerate() {
        let ctx = format!("mixed fleet before {task}");
        audit_pick(&sb, task, &level, &ctx);
        if level[task.index()] == 1 {
            let region = if i % 5 == 4 {
                Region::EuDublin
            } else {
                p.default_region
            };
            sb.place_on_new_in(task, InstanceType::ALL[i % 4], region);
            continue;
        }
        let same_level = |v: &Vm| {
            v.tasks
                .iter()
                .any(|&(t, _, _)| level[t.index()] == level[task.index()])
        };
        match sb.earliest_start_vm_where(task, |v| !same_level(v)) {
            Some(vm) => sb.place_on(task, vm),
            None => {
                sb.place_on_new(task, InstanceType::Small);
            }
        }
    }
    assert_eq!(sb.unplaced_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// AllPar1LnS filters by instance type, leaving whole keys without a
    /// kept VM; AllPar1LnSDyn rents mixed types level by level.
    #[test]
    fn one_lns_mixed_fleets_agree(wf in arb_layered()) {
        let _serial = serial();
        for p in [Platform::ec2_paper(), Platform::ec2_paper().with_boot_time(120.0)] {
            for strategy in [Strategy::AllPar1LnS, Strategy::AllPar1LnSDyn] {
                assert_picks_agree(&wf, &p, &strategy.label(), &[], || {
                    (strategy.schedule(&wf, &p), Vec::new())
                });
            }
        }
    }
}

/// Pooled AllPar claiming warm slots in two regions: claimed slots join
/// the per-key VM lists like fresh rentals do.
#[test]
fn pooled_allpar_over_two_region_warm_slots_agrees() {
    let _serial = serial();
    let wf = Scenario::Pareto { seed: 7 }.apply(&cybershake(CyberShakeShape { synthesis: 40 }));
    let p = Platform::ec2_paper().with_boot_time(120.0);
    let warm: Vec<WarmVm> = (0..48)
        .map(|i| WarmVm {
            itype: [InstanceType::Small, InstanceType::Medium][i % 2],
            region: if i % 3 == 0 {
                Region::EuDublin
            } else {
                p.default_region
            },
            available_rel: ((i * 97) % 1500) as f64,
            btu_elapsed: ((i * 613) % 3600) as f64,
        })
        .collect();
    let mut claimed_regions: Vec<Region> = Vec::new();
    for alloc in [StaticAlloc::AllParExceed, StaticAlloc::AllParNotExceed] {
        for itype in [InstanceType::Small, InstanceType::Medium] {
            let label = format!("pooled {alloc:?}-{itype:?}");
            assert_picks_agree(&wf, &p, &label, &warm, || {
                let pooled = pooled_static(&wf, &p, alloc, itype, &warm);
                for slot in pooled.origins.iter().flatten() {
                    if !claimed_regions.contains(&warm[*slot].region) {
                        claimed_regions.push(warm[*slot].region);
                    }
                }
                (pooled.schedule, pooled.origins)
            });
        }
    }
    assert_eq!(claimed_regions.len(), 2, "claims in both regions");
}
