//! `cws-perfbench` — the compiled half of the repository benchmark.
//!
//! `perfbench/run.py` owns the workloads, the end-to-end timing, the
//! output checks and the result line; this binary does the parts that
//! need the library:
//!
//! ```text
//! cws-perfbench gen-cybershake --seed N --out FILE
//! cws-perfbench gen-requests   --seed N --count N --out FILE
//! cws-perfbench setup          --doc FILE --reps K
//! cws-perfbench serve          --seed N --hours H
//! cws-perfbench client         --sock PATH --requests FILE --final FILE
//!                              (--window W | --rate R)
//! cws-perfbench layers-sweep   --doc FILE --csv FILE [--trace FILE]
//! cws-perfbench layers-serve   --seed N --hours H
//! cws-perfbench layers-daemon  --requests FILE --seed N
//! cws-perfbench daemon-expect  --requests FILE --seed N
//! ```
//!
//! Every `layers-*` command times one layer's public functions from
//! the outside and prints one JSON object of per-layer metrics as its
//! last stdout line. Nothing here reaches into a crate's private state.

mod client;
mod gen;
mod pool;
mod sweep;

use std::collections::BTreeMap;
use std::time::Instant;

/// `--key value` flags (and bare `--flag` switches) of one command.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Flags {
        let mut map = BTreeMap::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let key = a
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument {a:?}")))
                .to_string();
            let value = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().unwrap_or_default(),
                _ => String::new(),
            };
            map.insert(key, value);
        }
        Flags(map)
    }

    /// The value of `--key`, or exit with a usage error.
    pub fn str(&self, key: &str) -> &str {
        self.0
            .get(key)
            .map(String::as_str)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    /// `--key` parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key} must be a number")))
    }

    /// Whether `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// Print `msg` and exit 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("cws-perfbench: {msg}");
    std::process::exit(2);
}

/// Per-layer self-time ledger for one instrumented pass. Every timed
/// call is a leaf call into one layer's public API, so a layer's self
/// time is the plain sum of its calls; whatever the pass spent outside
/// timed calls is the unaccounted share.
pub struct Ledger {
    start: Instant,
    self_s: BTreeMap<&'static str, f64>,
    /// Named metrics, printed as one JSON object.
    pub metrics: BTreeMap<String, f64>,
}

/// The layers a ledger attributes time to (the crate or module whose
/// public function was called).
pub const LAYERS: [&str; 7] = ["dag", "core", "sim", "exp", "obs", "service", "serve"];

impl Ledger {
    pub fn start() -> Ledger {
        Ledger {
            start: Instant::now(),
            self_s: LAYERS.iter().map(|&l| (l, 0.0)).collect(),
            metrics: BTreeMap::new(),
        }
    }

    /// Run `f`, charging its wall time to `layer`; returns the result
    /// and the seconds it took.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        *self.self_s.get_mut(layer).expect("known layer") += s;
        (r, s)
    }

    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Close the pass: record each layer's self time and the share of
    /// the pass's wall time that no timed call accounts for.
    pub fn finish(mut self) -> BTreeMap<String, f64> {
        let wall = self.start.elapsed().as_secs_f64();
        let accounted: f64 = self.self_s.values().sum();
        for (layer, s) in &self.self_s {
            self.metrics.insert(format!("{layer}.self_s"), *s);
        }
        self.metrics.insert(
            "unaccounted_frac".to_string(),
            ((wall - accounted) / wall).max(0.0),
        );
        self.metrics.insert("pass_s".to_string(), wall);
        self.metrics
    }
}

/// Print a flat metric map as one JSON object line.
pub fn print_metrics(metrics: &BTreeMap<String, f64>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                cws_obs::json::json_str(k),
                cws_obs::json::json_f64(*v)
            )
        })
        .collect();
    println!("{{{}}}", body.join(","));
}

/// Copy the kernel counters out of the global metrics registry into
/// `ledger`; returns the simulator's event count.
pub fn record_counters(ledger: &mut Ledger) -> u64 {
    use cws_obs::metrics::names;
    let snap = cws_obs::MetricsRegistry::global().snapshot();
    for name in [
        names::KERNEL_PROBES,
        names::KERNEL_PLACEMENTS,
        names::KERNEL_SCHEDULES,
    ] {
        ledger.set(name, snap.counter(name) as f64);
    }
    snap.counter(names::SIM_EVENTS)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| fail("missing command"));
    let flags = Flags::parse(args);
    match cmd.as_str() {
        "gen-cybershake" => gen::cybershake(&flags),
        "gen-requests" => gen::requests(&flags),
        "setup" => sweep::setup(&flags),
        "layers-sweep" => sweep::layers(&flags),
        "serve" => pool::serve(&flags),
        "layers-serve" => pool::layers_serve(&flags),
        "layers-daemon" => pool::layers_daemon(&flags),
        "daemon-expect" => pool::daemon_expect(&flags),
        "client" => client::run(&flags),
        other => fail(&format!("unknown command {other:?}")),
    }
}
