//! The warm-pool path: arrivals (`cws_service::TicketStream`), pooled
//! planning (`cws_core::pooled_static`) and the sharded pool's reclaim,
//! warm-slot lookup, commit and fold (`cws_serve::ShardedPool`) — plus
//! the daemon's wire parsing and `ServeCore::submit`.

use crate::{fail, print_metrics, Flags, Ledger};
use cws_core::pooled::pooled_static;
use cws_core::StaticAlloc;
use cws_dag::Workflow;
use cws_platform::{InstanceType, Platform};
use cws_serve::{parse_request, run_sharded_summary, Request, ServeCore, ServeOptions};
use cws_serve::{ShardedConfig, ShardedPool};
use cws_service::{
    ArrivalModel, ReclaimPolicy, ReportAccumulator, ServiceConfig, TenantSpec, TicketStream,
    WorkflowRecord, WorkloadKind,
};

/// Warm-pool shards of the batch workload.
const SHARDS: usize = 4;

/// The batch service profile: one Montage24 tenant at 2000 submissions
/// per hour, BTU-boundary reclaim and a 120 s boot, so warm reuse pays.
fn service_config(seed: u64, hours: f64) -> ServiceConfig {
    ServiceConfig {
        alloc: StaticAlloc::HeftStartParExceed,
        itype: InstanceType::Small,
        reclaim: ReclaimPolicy::AtBtuBoundary,
        boot_time_s: 120.0,
        tenants: vec![TenantSpec {
            name: "astro".to_string(),
            kind: WorkloadKind::Montage24,
            rate_per_hour: 2000.0,
        }],
        model: ArrivalModel::Poisson {
            horizon_s: hours * 3600.0,
        },
        seed,
    }
}

fn sharded(service: ServiceConfig) -> ShardedConfig {
    ShardedConfig {
        service,
        shards: SHARDS,
        // One thread: the batch runs pinned to one CPU (see run.py), and
        // the summary is the same at any thread count.
        threads: 1,
        epoch: 64,
    }
}

/// `serve`: one `run_sharded_summary` batch; prints the summary JSON.
pub fn serve(flags: &Flags) {
    let cfg = sharded(service_config(flags.num("seed"), flags.num("hours")));
    println!(
        "{}",
        run_sharded_summary(&Platform::ec2_paper(), &cfg).to_json()
    );
}

/// The commit path of the sharded engine and the daemon, rebuilt from
/// public calls so each call can be timed.
struct PoolRun {
    platform: Platform,
    alloc: StaticAlloc,
    itype: InstanceType,
    pool: ShardedPool,
    acc: ReportAccumulator,
    clock: f64,
    pool_max: usize,
    admitted: usize,
}

impl PoolRun {
    fn new(platform: &Platform, cfg: &ServiceConfig, shards: usize) -> PoolRun {
        PoolRun {
            platform: platform.clone().with_boot_time(cfg.boot_time_s),
            alloc: cfg.alloc,
            itype: cfg.itype,
            pool: ShardedPool::new(cfg.reclaim, shards),
            acc: ReportAccumulator::new(cfg.tenants.len()),
            clock: 0.0,
            pool_max: 0,
            admitted: 0,
        }
    }

    /// The cold one-shot reference makespan of `wf`.
    fn cold(&self, ledger: &mut Ledger, wf: &Workflow) -> f64 {
        let (alloc, itype) = (self.alloc, self.itype);
        ledger
            .time("core", || {
                pooled_static(wf, &self.platform, alloc, itype, &[])
                    .schedule
                    .makespan()
            })
            .0
    }

    /// Admit one submission against the pool.
    fn admit(&mut self, ledger: &mut Ledger, tenant: usize, time: f64, wf: &Workflow, cold: f64) {
        let now = time.max(self.clock);
        self.clock = now;
        let (pool, acc, platform) = (&mut self.pool, &mut self.acc, &self.platform);
        let ((), s) = ledger.time("serve", || pool.reclaim_until(now));
        ledger.add("serve.reclaim_us", s * 1e6);
        let ((), s) = ledger.time("serve", || pool.drain_folded(acc, platform));
        ledger.add("serve.fold_us", s * 1e6);
        let ((warm, slot_map), s) = ledger.time("serve", || pool.warm_slots(now));
        ledger.add("serve.warm_slots_us", s * 1e6);
        let (alloc, itype) = (self.alloc, self.itype);
        let (pooled, s) = ledger.time("core", || pooled_static(wf, platform, alloc, itype, &warm));
        ledger.add("core.pooled_plan_us", s * 1e6);
        let record = WorkflowRecord {
            tenant,
            arrival_s: now,
            makespan_s: pooled.schedule.makespan(),
            cold_makespan_s: cold,
            queue_delay_s: pooled
                .schedule
                .placements
                .iter()
                .map(|p| p.start)
                .fold(f64::INFINITY, f64::min),
            pool_hits: pooled.pool_hits(),
            cold_rentals: pooled.cold_rentals(),
            tasks: wf.len(),
        };
        ledger.time("service", || acc.record(&record));
        let ((), s) = ledger.time("serve", || {
            pool.commit(now, tenant, &pooled, &slot_map, platform);
        });
        ledger.add("serve.commit_us", s * 1e6);
        self.pool_max = self.pool_max.max(pool.live_count());
        self.admitted += 1;
    }

    /// Terminate the pool, fold every machine and turn the per-call
    /// sums into per-submission means.
    fn finish(&mut self, ledger: &mut Ledger) {
        let (pool, acc, platform) = (&mut self.pool, &mut self.acc, &self.platform);
        let ((), s) = ledger.time("serve", || {
            pool.finish();
            pool.drain_folded(acc, platform);
        });
        ledger.add("serve.fold_us", s * 1e6);
        let n = self.admitted.max(1) as f64;
        for name in [
            "serve.reclaim_us",
            "serve.fold_us",
            "serve.warm_slots_us",
            "core.pooled_plan_us",
            "serve.commit_us",
        ] {
            ledger.set(name, ledger.metrics.get(name).copied().unwrap_or(0.0) / n);
        }
        let (hits, cold) = self.acc.rentals();
        ledger.set("serve.hit_rate", hits as f64 / (hits + cold).max(1) as f64);
        ledger.set("serve.pool_size_max", self.pool_max as f64);
        ledger.set("serve.submissions", self.admitted as f64);
    }
}

/// `layers-serve`: the batch profile inline on one thread, every pool
/// call timed; its summary must equal `run_sharded_summary`'s.
pub fn layers_serve(flags: &Flags) {
    let platform = Platform::ec2_paper();
    let cfg = service_config(flags.num("seed"), flags.num("hours"));
    let mut ledger = Ledger::start();
    let mut run = PoolRun::new(&platform, &cfg, SHARDS);
    let kinds: Vec<WorkloadKind> = cfg.tenants.iter().map(|t| t.kind).collect();
    let (mut tickets, mut arrivals_s) = ledger.time("service", || {
        TicketStream::new(&cfg.tenants, &cfg.model, cfg.seed)
    });
    loop {
        let (ticket, s) = ledger.time("service", || tickets.next());
        arrivals_s += s;
        let Some(ticket) = ticket else { break };
        let (wf, s) = ledger.time("service", || ticket.realize(kinds[ticket.tenant]));
        arrivals_s += s;
        let cold = run.cold(&mut ledger, &wf);
        run.admit(&mut ledger, ticket.tenant, ticket.time, &wf, cold);
    }
    run.finish(&mut ledger);
    ledger.set("service.arrivals_s", arrivals_s);
    let inline = run.acc.finish_summary(&cfg).to_json();
    let metrics = ledger.finish();
    let engine = run_sharded_summary(&platform, &sharded(cfg)).to_json();
    if inline != engine {
        fail("the timed inline pool loop disagrees with run_sharded_summary");
    }
    print_metrics(&metrics);
}

/// `layers-daemon`: the daemon's request sequence in process — every
/// line through `wire::parse_request`, every submission through a real
/// `ServeCore` — then once more through the timed pool loop, whose
/// final report must equal the `ServeCore`'s.
pub fn layers_daemon(flags: &Flags) {
    let platform = Platform::ec2_paper();
    let seed: u64 = flags.num("seed");
    let path = flags.str("requests");
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let mut ledger = Ledger::start();

    let mut subs = Vec::new();
    let mut parse_s = 0.0;
    for line in src.lines() {
        let (req, s) = ledger.time("serve", || parse_request(line));
        parse_s += s;
        match req {
            Ok(Request::Submit {
                tenant,
                time,
                workflow,
            }) => subs.push((tenant, time.unwrap_or(0.0), workflow)),
            Ok(other) => fail(&format!("unexpected request {other:?}")),
            Err(e) => fail(&format!("request does not parse: {e}")),
        }
    }
    let n = subs.len().max(1) as f64;
    ledger.set("serve.wire_parse_us", parse_s / n * 1e6);

    let opts = ServeOptions {
        seed,
        ..ServeOptions::default()
    };
    let mut core = ServeCore::new(&platform, opts.clone());
    let mut submit_s = 0.0;
    for (tenant, time, wf) in &subs {
        submit_s += ledger
            .time("serve", || core.submit(tenant, Some(*time), wf))
            .1;
    }
    core.finish();
    let daemon_report = core.report().to_json();
    ledger.set("serve.submit_us", submit_s / n * 1e6);

    let mut names: Vec<String> = Vec::new();
    let cfg = ServiceConfig {
        alloc: opts.alloc,
        itype: opts.itype,
        reclaim: opts.reclaim,
        boot_time_s: opts.boot_time_s,
        tenants: Vec::new(),
        model: ArrivalModel::Trace(Vec::new()),
        seed,
    };
    let mut run = PoolRun::new(&platform, &cfg, opts.shards);
    for (tenant, time, wf) in &subs {
        let id = names.iter().position(|t| t == tenant).unwrap_or_else(|| {
            names.push(tenant.clone());
            names.len() - 1
        });
        run.acc.ensure_tenants(names.len());
        let cold = run.cold(&mut ledger, wf);
        run.admit(&mut ledger, id, *time, wf, cold);
    }
    run.finish(&mut ledger);
    let cfg = ServiceConfig {
        tenants: names
            .into_iter()
            .map(|name| TenantSpec {
                name,
                kind: WorkloadKind::BagOfTasks(0),
                rate_per_hour: 0.0,
            })
            .collect(),
        ..cfg
    };
    if run.acc.finish_report(&cfg).to_json() != daemon_report {
        fail("the timed pool loop disagrees with ServeCore");
    }
    print_metrics(&ledger.finish());
}

/// `daemon-expect`: the reply the daemon's `shutdown` must give after
/// `--requests`, from an in-process `ServeCore` fed the same lines.
pub fn daemon_expect(flags: &Flags) {
    let path = flags.str("requests");
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let opts = ServeOptions {
        seed: flags.num("seed"),
        ..ServeOptions::default()
    };
    let mut core = ServeCore::new(&Platform::ec2_paper(), opts);
    for line in src.lines() {
        let req = parse_request(line).unwrap_or_else(|e| fail(&format!("request: {e}")));
        core.handle(&req);
    }
    println!("{}", core.handle(&Request::Shutdown).0);
}
