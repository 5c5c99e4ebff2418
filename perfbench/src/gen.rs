//! Seeded benchmark inputs, written as the documents and request lines
//! the shipped program reads. The same seed always writes the same
//! bytes.

use crate::Flags;
use cws_dag::WorkflowBuilder;
use cws_workloads::{cybershake as cybershake_dag, CyberShakeShape, Scenario};
use std::fmt::Write as _;

fn write(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| crate::fail(&format!("write {path}: {e}")));
}

/// The transfer-heavy document: CyberShake with 4000 synthesis tasks,
/// Pareto runtimes drawn from the seed, generator payloads kept (the
/// 5 MB seismogram edges are what make transfers priced).
pub fn cybershake(flags: &Flags) {
    let wf = cybershake_dag(CyberShakeShape { synthesis: 4000 });
    let wf = Scenario::Pareto {
        seed: flags.num("seed"),
    }
    .apply(&wf);
    write(flags.str("out"), &wf.to_json());
}

/// splitmix64: a seeded stream of well-mixed 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds of simulated time between two daemon submissions. With
/// ~900 s tasks and BTU-boundary reclaim this keeps a few hundred
/// machines in the warm pool.
const STEP_S: u64 = 10;

/// Daemon submission lines: `count` 4-task bags from four tenants,
/// tasks of 900 s ± 10 % drawn from the seed, simulated time advancing
/// a fixed step per request.
pub fn requests(flags: &Flags) {
    let count: usize = flags.num("count");
    let mut state: u64 = flags.num("seed");
    let mut out = String::new();
    for i in 0..count {
        let mut b = WorkflowBuilder::new(format!("bag-{i}"));
        for t in 0..4 {
            let jitter = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let runtime = (810.0 + 180.0 * jitter).round();
            b.task(format!("t{t}"), runtime);
        }
        let wf = b
            .build()
            .unwrap_or_else(|e| crate::fail(&format!("bag: {e}")));
        let _ = writeln!(
            out,
            "{{\"tenant\":\"tenant-{}\",\"time\":{},\"workflow\":{}}}",
            i % 4,
            i as u64 * STEP_S,
            wf.to_json()
        );
    }
    write(flags.str("out"), &out);
}
