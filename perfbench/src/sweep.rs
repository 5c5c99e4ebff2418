//! The sweep path, layer by layer: read and parse the document
//! (`cws_dag::interchange`), build the kernel tables and the baseline,
//! then for each of the 19 paper pairings plan, validate, replay
//! (`cws_sim::verify`) and measure — the same calls, in the same order,
//! that `cws-exp sweep --workflow FILE --threads 1` makes.

use crate::{fail, print_metrics, record_counters, Flags, Ledger};
use cws_core::{KernelTables, RelativeMetrics, ScheduleMetrics, Strategy};
use cws_dag::Workflow;
use cws_experiments::run::StrategyResult;
use cws_experiments::trace_sweep::{prepare_as_given, TraceSweep};
use cws_experiments::ExperimentConfig;
use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")))
}

fn parse(src: &str) -> Workflow {
    Workflow::from_json(src).unwrap_or_else(|e| fail(&format!("parse: {e}")))
}

/// `setup`: time read + parse + `prepare_as_given` (tables and
/// baseline) `--reps` times; prints `{"setup_s":[...]}`.
pub fn setup(flags: &Flags) {
    let config = ExperimentConfig::default();
    let path = flags.str("doc");
    let reps: usize = flags.num("reps");
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let wf = parse(&read(path));
        let prepared = prepare_as_given(&config, &wf);
        times.push(t.elapsed().as_secs_f64());
        drop(prepared);
    }
    let list: Vec<String> = times.iter().map(|t| cws_obs::json::json_f64(*t)).collect();
    println!("{{\"setup_s\":[{}]}}", list.join(","));
}

/// One instrumented sweep; returns the rendered CSV. Metric names carry
/// `prefix` so a traced and an untraced pass can share a ledger.
fn sweep_pass(ledger: &mut Ledger, config: &ExperimentConfig, path: &str, prefix: &str) -> String {
    let platform = &config.platform;
    let t = Instant::now();
    let (src, read_s) = ledger.time("dag", || read(path));
    let (wf, parse_s) = ledger.time("dag", || parse(&src));
    ledger.add(&format!("{prefix}dag.parse_s"), read_s + parse_s);
    ledger.add(
        &format!("{prefix}dag.parse_mib_per_s"),
        src.len() as f64 / (1024.0 * 1024.0) / (read_s + parse_s),
    );
    drop(src);

    let (tables, s) = ledger.time("core", || KernelTables::build(&wf, platform));
    ledger.add(&format!("{prefix}core.tables_s"), s);
    let (baseline, s) = ledger.time("core", || {
        let plan = Strategy::BASELINE.schedule_with(&wf, platform, Some(&tables));
        ScheduleMetrics::of(&plan, &wf, platform)
    });
    ledger.add(&format!("{prefix}core.baseline_s"), s);

    let mut results = Vec::with_capacity(19);
    for strategy in Strategy::paper_set() {
        let label = strategy.label();
        let (plan, s) = ledger.time("core", || {
            strategy.schedule_with(&wf, platform, Some(&tables))
        });
        ledger.add(&format!("{prefix}core.plan_s"), s);
        ledger.add(&format!("{prefix}core.plan_s.{label}"), s);
        let (ok, s) = ledger.time("core", || plan.validate(&wf, platform));
        ledger.add(&format!("{prefix}core.validate_s"), s);
        if let Err(e) = ok {
            fail(&format!("{label} produced an invalid schedule: {e}"));
        }
        let (replay, s) = ledger.time("sim", || cws_sim::verify(&wf, platform, &plan, 1e-6));
        ledger.add(&format!("{prefix}sim.verify_s"), s);
        if let Err(e) = replay {
            fail(&format!("{label} diverged under replay: {e}"));
        }
        let (result, s) = ledger.time("core", || {
            let metrics = ScheduleMetrics::of(&plan, &wf, platform);
            StrategyResult {
                label: label.clone(),
                metrics,
                relative: RelativeMetrics::vs(&metrics, &baseline),
            }
        });
        ledger.add(&format!("{prefix}core.metrics_s"), s);
        results.push(result);
    }

    let (csv, s) = ledger.time("exp", || {
        TraceSweep {
            workflow: wf.name().to_string(),
            tasks: wf.len(),
            edges: wf.edge_count(),
            depth: wf.depth(),
            total_work_s: wf.total_work(),
            results,
        }
        .to_table()
        .to_csv()
    });
    ledger.add(&format!("{prefix}exp.render_s"), s);
    ledger.add(&format!("{prefix}sweep_s"), t.elapsed().as_secs_f64());
    csv
}

/// `layers-sweep`: one instrumented untraced sweep; with `--trace FILE`
/// also a traced one (JSONL sink on, as `cws-exp --trace`), followed by
/// a streaming reduce of that trace and the `report::check`
/// reconciliation. The untraced pass's CSV goes to `--csv`.
pub fn layers(flags: &Flags) {
    let config = ExperimentConfig::default();
    let doc = flags.str("doc");
    let mut ledger = Ledger::start();

    cws_obs::MetricsRegistry::global().reset();
    cws_obs::set_metrics_enabled(true);
    let csv = sweep_pass(&mut ledger, &config, doc, "");
    let events = record_counters(&mut ledger);
    ledger.set(
        "sim.events_per_s",
        events as f64 / ledger.metrics["sim.verify_s"],
    );
    if let Err(e) = std::fs::write(flags.str("csv"), &csv) {
        fail(&format!("write csv: {e}"));
    }

    if flags.has("trace") {
        let path = flags.str("trace");
        cws_obs::MetricsRegistry::global().reset();
        let sink = cws_obs::JsonlSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("create trace {path}: {e}")));
        cws_obs::install_sink(std::sync::Arc::new(sink));
        let traced_csv = sweep_pass(&mut ledger, &config, doc, "traced.");
        let ((), s) = ledger.time("obs", || {
            cws_obs::flush();
            cws_obs::clear_sink();
        });
        let traced_s = ledger.metrics["traced.sweep_s"] + s;
        let overhead = traced_s - ledger.metrics["sweep_s"];
        ledger.set("obs.trace_overhead_s", overhead);
        if traced_csv != csv {
            fail("tracing changed the sweep's output");
        }
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        ledger.set("obs.trace_mib", bytes as f64 / (1024.0 * 1024.0));

        let manifest = cws_obs::MetricsRegistry::global().snapshot().to_json();
        let (report, reduce_s) = ledger.time("obs", || {
            use std::io::BufRead as _;
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| fail(&format!("open trace {path}: {e}")));
            let mut reducer = cws_obs::TraceReducer::new();
            for line in std::io::BufReader::new(file).lines() {
                reducer.feed_line(&line.unwrap_or_else(|e| fail(&format!("read trace: {e}"))));
            }
            reducer.finish()
        });
        let (failures, check_s) = ledger.time("obs", || {
            let m = cws_obs::report::parse_manifest_metrics(&manifest)
                .unwrap_or_else(|e| fail(&format!("metrics snapshot: {e}")));
            cws_obs::report::check(&report, &m)
        });
        if report.events == 0 {
            fail("the traced sweep wrote no events");
        }
        if let Some(f) = failures.first() {
            fail(&format!("trace does not reconcile: {f}"));
        }
        ledger.set("obs.trace_events", report.events as f64);
        ledger.set("obs.reduce_s", reduce_s + check_s);
        ledger.set(
            "obs.reduce_events_per_s",
            report.events as f64 / (reduce_s + check_s),
        );
        for key in ledger.metrics.keys().cloned().collect::<Vec<_>>() {
            if key.starts_with("traced.") {
                ledger.metrics.remove(&key);
            }
        }
    }
    print_metrics(&ledger.finish());
}
