//! CPA-Eager: critical-path-driven speed upgrades under a budget.
//!
//! "CPA-Eager and Gain rely on the OneVMperTask provisioning method
//! during the initial schedule. Based on it they will attempt to increase
//! the speed of certain VMs according to their policies. CPA-Eager will
//! attempt to systematically increase the speed of VMs allocated to tasks
//! lying on the critical path." (Sect. III-B). The budget is a multiple
//! of the cost of HEFT + OneVMperTask on small instances — four times,
//! per Sect. IV.

use crate::schedule::Schedule;
use crate::state::{bandwidth_table, exec_table, pair_idx, KernelTables, ScheduleBuilder};
use cws_dag::{TaskId, Workflow};
use cws_platform::{billing::btus_for_span, InstanceType, Platform};

const N_TYPES: usize = InstanceType::ALL.len();

/// Per-task rental cost of a one-VM-per-task assignment: each task rents
/// its own VM for `ceil(exec / BTU)` BTUs at its type's price.
#[must_use]
pub fn one_vm_per_task_cost(wf: &Workflow, platform: &Platform, types: &[InstanceType]) -> f64 {
    assert_eq!(types.len(), wf.len(), "one type per task");
    wf.ids()
        .map(|t| {
            let et = types[t.index()].execution_time(wf.task(t).base_time);
            btus_for_span(et) as f64 * platform.price(types[t.index()])
        })
        .sum()
}

/// Materialize a one-VM-per-task assignment into a schedule: every task
/// on a fresh VM of its assigned type, visited in topological order.
#[must_use]
pub fn schedule_one_vm_per_task(
    wf: &Workflow,
    platform: &Platform,
    types: &[InstanceType],
    label: impl Into<String>,
) -> Schedule {
    schedule_one_vm_per_task_with(wf, platform, types, label, None)
}

/// [`schedule_one_vm_per_task`] borrowing shared [`KernelTables`] when a
/// sweep has them.
///
/// # Panics
/// Panics unless `types` has exactly one entry per task.
#[must_use]
pub fn schedule_one_vm_per_task_with(
    wf: &Workflow,
    platform: &Platform,
    types: &[InstanceType],
    label: impl Into<String>,
    tables: Option<&KernelTables>,
) -> Schedule {
    assert_eq!(types.len(), wf.len(), "one type per task");
    let mut sb = ScheduleBuilder::with_optional_tables(wf, platform, tables);
    for &task in wf.topological_order() {
        sb.place_on_new(task, types[task.index()]);
    }
    sb.build(label)
}

/// The baseline cost every dynamic budget is a multiple of: HEFT +
/// OneVMperTask on small instances. (With one VM per task, HEFT's order
/// does not change the rent, so the per-task BTU sum is exact.)
#[must_use]
pub fn baseline_cost(wf: &Workflow, platform: &Platform) -> f64 {
    one_vm_per_task_cost(wf, platform, &vec![InstanceType::Small; wf.len()])
}

/// Run the CPA-Eager type-assignment loop and return the per-task
/// instance types. Starting from all-small, the critical path is
/// recomputed after every upgrade and the slowest critical task is
/// promoted one type step, as long as the total one-VM-per-task rent
/// stays within `budget`.
#[must_use]
pub fn cpa_eager_types(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
    cpa_eager_types_with(wf, platform, budget, None)
}

/// [`cpa_eager_types`] borrowing the execution-time rows of shared
/// [`KernelTables`] (bit-identical entries) instead of rebuilding them.
#[must_use]
pub fn cpa_eager_types_with(
    wf: &Workflow,
    platform: &Platform,
    budget: f64,
    tables: Option<&KernelTables>,
) -> Vec<InstanceType> {
    // Per-(task, type) execution time and BTU rent plus the per-type-pair
    // bandwidth, hoisted out of the upgrade loop. Every value below is
    // computed exactly as the direct `execution_time` / `transfer_time` /
    // `one_vm_per_task_cost` calls compute it, so the loop's decisions
    // are unchanged.
    let owned_et: Vec<[f64; N_TYPES]>;
    let et: &[[f64; N_TYPES]] = match tables {
        Some(t) => t.exec_rows(),
        None => {
            owned_et = exec_table(wf);
            &owned_et
        }
    };
    let term: Vec<[f64; N_TYPES]> = et
        .iter()
        .map(|row| {
            let mut out = [0.0; N_TYPES];
            for (j, &it) in InstanceType::ALL.iter().enumerate() {
                out[j] = btus_for_span(row[j]) as f64 * platform.price(it);
            }
            out
        })
        .collect();
    let bw = bandwidth_table(platform);
    let lat = platform
        .network
        .path_latency_s(platform.default_region, platform.default_region);

    // Successor CSR with a per-edge communication-cost cache. Each
    // cached entry is exactly what a direct `transfer_time` call computes
    // — `data_mb / bw[pair] + lat` — and an upgrade changes the
    // operands of only the upgraded task's incident edges, so only those
    // entries are recomputed. The per-round critical-path walk below
    // replicates `cws_dag::critical_path` on the CSR: same edge order,
    // same `f64::max` fold, same `max_by` keep-on-Greater tie-breaks —
    // every comparison sees bit-identical keys in the identical order.
    let n = wf.len();
    let mut succ_off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut edge_from: Vec<u32> = Vec::new();
    let mut edge_to: Vec<u32> = Vec::new();
    let mut edge_data: Vec<f64> = Vec::new();
    succ_off.push(0);
    for t in wf.ids() {
        for e in wf.successors(t) {
            edge_from.push(t.0);
            edge_to.push(e.to.0);
            edge_data.push(e.data_mb);
        }
        succ_off.push(edge_to.len() as u32);
    }
    // Flat in-edge CSR (edge ids grouped by target, ascending within
    // each group) — one contiguous lane instead of a Vec per node.
    let mut in_off: Vec<u32> = vec![0; n + 1];
    for &to in &edge_to {
        in_off[to as usize + 1] += 1;
    }
    for i in 0..n {
        in_off[i + 1] += in_off[i];
    }
    let mut in_edge: Vec<u32> = vec![0; edge_to.len()];
    let mut in_cursor = in_off.clone();
    for (k, &to) in edge_to.iter().enumerate() {
        let c = &mut in_cursor[to as usize];
        in_edge[*c as usize] = k as u32;
        *c += 1;
    }
    let comm_val = |k: usize, types: &[InstanceType]| -> f64 {
        edge_data[k] / bw[pair_idx(types[edge_from[k] as usize], types[edge_to[k] as usize])] + lat
    };

    let mut types = vec![InstanceType::Small; wf.len()];
    let mut comm: Vec<f64> = (0..edge_data.len()).map(|k| comm_val(k, &types)).collect();
    let mut terms: Vec<f64> = term.iter().map(|row| row[0]).collect();
    let mut prefix = vec![0.0; wf.len()];
    let mut rank = vec![0.0; n];
    let mut tail = vec![0.0; n];
    let mut contrib = vec![0.0; edge_data.len()];
    let mut dirty = vec![false; n];
    let entries = wf.entries();
    let order = wf.topological_order();
    // Position of each task in the *reverse* topological order, so an
    // incremental rank refresh can start its sweep at the upgraded task
    // (every task's predecessors sit strictly later in that order).
    let mut rev_pos = vec![0u32; n];
    for (idx, &id) in order.iter().rev().enumerate() {
        rev_pos[id.index()] = idx as u32;
    }
    // Initial upward ranks, as `cws_dag::upward_ranks` computes them: a
    // reverse-topological sweep folding `comm + rank[succ]` with
    // `f64::max` from 0.0 in successor order. Two caches make the
    // per-upgrade refresh incremental: `contrib[k] = comm[k] +
    // rank[to]` per edge and `tail[i] = max(0, contribs of i)` per
    // node. All contributions are positive finite floats, for which
    // `f64::max` is order-independent in value, so a tail recomputed
    // from cached contributions — or left untouched because a changed
    // contribution neither was nor beats the cached max — is bitwise
    // the value the full fold would produce.
    for &id in order.iter().rev() {
        let i = id.index();
        let mut t = 0.0_f64;
        for k in succ_off[i] as usize..succ_off[i + 1] as usize {
            contrib[k] = comm[k] + rank[edge_to[k] as usize];
            t = t.max(contrib[k]);
        }
        tail[i] = t;
        rank[i] = et[i][types[i] as usize] + t;
    }
    loop {
        // Entry with the largest rank; `max_by` keeps the accumulator
        // only on Greater, so ties fall to the reversed-id order (the
        // smaller id wins), exactly as in `critical_path`.
        let mut start = entries[0];
        for &a in &entries[1..] {
            let ord = rank[start.index()]
                .total_cmp(&rank[a.index()])
                .then(a.0.cmp(&start.0));
            if ord != std::cmp::Ordering::Greater {
                start = a;
            }
        }
        // Walk the path, collecting the upgradeable tasks on it
        // (`cp.tasks` filtered, in path order).
        let mut candidates: Vec<TaskId> = Vec::new();
        let mut cur = start;
        loop {
            if types[cur.index()].next_faster().is_some() {
                candidates.push(cur);
            }
            let ci = cur.index();
            let mut next: Option<(f64, u32)> = None;
            for k in succ_off[ci] as usize..succ_off[ci + 1] as usize {
                // `contrib` is kept exactly at `comm + rank[to]`, so the
                // cached entry carries the same bits the sum would.
                let key = contrib[k];
                let to = edge_to[k];
                next = match next {
                    Some((bk, bt))
                        if bk.total_cmp(&key).then(to.cmp(&bt)) == std::cmp::Ordering::Greater =>
                    {
                        Some((bk, bt))
                    }
                    _ => Some((key, to)),
                };
            }
            match next {
                Some((_, t)) => cur = TaskId(t),
                None => break,
            }
        }
        // Candidate upgrades on the critical path, slowest task first.
        candidates.sort_by(|a, b| {
            let ea = et[a.index()][types[a.index()] as usize];
            let eb = et[b.index()][types[b.index()] as usize];
            eb.total_cmp(&ea).then(a.0.cmp(&b.0))
        });
        // prefix[i] = the rent sum over tasks 0..i, accumulated left to
        // right exactly as `one_vm_per_task_cost` does.
        let mut acc = 0.0;
        for (p, &x) in prefix.iter_mut().zip(&terms) {
            *p = acc;
            acc += x;
        }
        let mut upgraded = false;
        for t in candidates {
            let faster = types[t.index()]
                .next_faster()
                // Candidates are pre-filtered to types with a faster tier.
                // cws-lint: allow(unwrap-in-kernel)
                .expect("filtered to upgradeable");
            let i = t.index();
            // Total rent with the trial type in slot i, in the exact
            // task order of `one_vm_per_task_cost`.
            let mut cost = prefix[i] + term[i][faster as usize];
            for &x in &terms[i + 1..] {
                cost += x;
            }
            if cost <= budget + 1e-9 {
                types[i] = faster;
                terms[i] = term[i][faster as usize];
                // Only edges touching the upgraded task see different
                // bandwidth operands; refresh those comm entries, then
                // chase the change up the reverse-topological order. A
                // predecessor is re-examined only when a refreshed
                // contribution could move its tail — it beats the cached
                // max or the stale value *was* the max — which prunes
                // the ancestor region whose max path avoids the
                // upgraded task.
                for k in succ_off[i] as usize..succ_off[i + 1] as usize {
                    comm[k] = comm_val(k, &types);
                    contrib[k] = comm[k] + rank[edge_to[k] as usize];
                }
                let mut t0 = 0.0_f64;
                for &c in &contrib[succ_off[i] as usize..succ_off[i + 1] as usize] {
                    t0 = t0.max(c);
                }
                tail[i] = t0;
                rank[i] = et[i][types[i] as usize] + t0;
                for &k in &in_edge[in_off[i] as usize..in_off[i + 1] as usize] {
                    let k = k as usize;
                    comm[k] = comm_val(k, &types);
                    let old = contrib[k];
                    let new = comm[k] + rank[i];
                    if new != old {
                        contrib[k] = new;
                        let p = edge_from[k] as usize;
                        if new > tail[p] || old == tail[p] {
                            dirty[p] = true;
                        }
                    }
                }
                for idx in rev_pos[i] as usize + 1..n {
                    let j = order[n - 1 - idx].index();
                    if !std::mem::replace(&mut dirty[j], false) {
                        continue;
                    }
                    let mut t = 0.0_f64;
                    for &c in &contrib[succ_off[j] as usize..succ_off[j + 1] as usize] {
                        t = t.max(c);
                    }
                    tail[j] = t;
                    let new = et[j][types[j] as usize] + t;
                    if new != rank[j] {
                        rank[j] = new;
                        for &k in &in_edge[in_off[j] as usize..in_off[j + 1] as usize] {
                            let k = k as usize;
                            let old = contrib[k];
                            let c = comm[k] + new;
                            if c != old {
                                contrib[k] = c;
                                let p = edge_from[k] as usize;
                                if c > tail[p] || old == tail[p] {
                                    dirty[p] = true;
                                }
                            }
                        }
                    }
                }
                upgraded = true;
                break;
            }
        }
        if !upgraded {
            return types;
        }
    }
}

/// Schedule `wf` with CPA-Eager under a budget of
/// `budget_multiplier × baseline_cost` (the paper uses 4).
#[must_use]
pub fn cpa_eager(wf: &Workflow, platform: &Platform, budget_multiplier: f64) -> Schedule {
    cpa_eager_with(wf, platform, budget_multiplier, None)
}

/// [`cpa_eager`] borrowing shared [`KernelTables`] when a sweep has them.
///
/// # Panics
/// Panics if `budget_multiplier < 1.0`.
#[must_use]
pub fn cpa_eager_with(
    wf: &Workflow,
    platform: &Platform,
    budget_multiplier: f64,
    tables: Option<&KernelTables>,
) -> Schedule {
    assert!(
        budget_multiplier >= 1.0,
        "budget multiplier must be at least 1, got {budget_multiplier}"
    );
    let budget = budget_multiplier * baseline_cost(wf, platform);
    let types = cpa_eager_types_with(wf, platform, budget, tables);
    schedule_one_vm_per_task_with(wf, platform, &types, "CPA-Eager", tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn chain3() -> Workflow {
        let mut b = WorkflowBuilder::new("chain3");
        let a = b.task("a", 1000.0);
        let c = b.task("c", 2000.0);
        let d = b.task("d", 500.0);
        b.edge(a, c).edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn baseline_cost_counts_btus() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        // all three tasks < 1 BTU on small
        assert!((baseline_cost(&wf, &p) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn generous_budget_upgrades_whole_chain() {
        // A chain is always entirely critical.
        let wf = chain3();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, 100.0);
        assert!(types.iter().all(|&t| t == InstanceType::XLarge));
    }

    #[test]
    fn tight_budget_changes_nothing() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, baseline_cost(&wf, &p));
        assert!(types.iter().all(|&t| t == InstanceType::Small));
    }

    #[test]
    fn upgrades_prefer_slowest_critical_task() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        // budget for exactly one upgrade step: base 0.24 -> +0.08 = 0.32
        let types = cpa_eager_types(&wf, &p, 0.32);
        assert_eq!(types[1], InstanceType::Medium, "the 2000s task upgrades");
        assert_eq!(types[0], InstanceType::Small);
        assert_eq!(types[2], InstanceType::Small);
    }

    #[test]
    fn off_critical_tasks_stay_small() {
        // diamond where one branch is much longer
        let mut b = WorkflowBuilder::new("d");
        let a = b.task("a", 100.0);
        let long = b.task("long", 3000.0);
        let short = b.task("short", 100.0);
        let z = b.task("z", 100.0);
        b.edge(a, long).edge(a, short).edge(long, z).edge(short, z);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, 4.0 * baseline_cost(&wf, &p));
        assert_eq!(
            types[short.index()],
            InstanceType::Small,
            "short branch never critical"
        );
        assert_eq!(types[long.index()], InstanceType::XLarge);
    }

    #[test]
    fn cpa_schedule_validates_and_beats_baseline_makespan() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let base = schedule_one_vm_per_task(&wf, &p, &vec![InstanceType::Small; wf.len()], "base");
        let s = cpa_eager(&wf, &p, 4.0);
        s.validate(&wf, &p).unwrap();
        assert!(s.makespan() < base.makespan());
        assert_eq!(s.strategy, "CPA-Eager");
        assert_eq!(s.vm_count(), wf.len());
    }

    #[test]
    fn cost_stays_within_budget() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        for mult in [1.0, 2.0, 4.0, 8.0] {
            let types = cpa_eager_types(&wf, &p, mult * baseline_cost(&wf, &p));
            assert!(one_vm_per_task_cost(&wf, &p, &types) <= mult * baseline_cost(&wf, &p) + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "budget multiplier")]
    fn sub_unit_multiplier_rejected() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let _ = cpa_eager(&wf, &p, 0.5);
    }
}
