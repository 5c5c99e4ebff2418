//! Process-global trace and metrics switches.
//!
//! Emission sites sit on scheduling hot paths, so the disabled case
//! must cost next to nothing. [`emit`] performs exactly one relaxed
//! atomic load when tracing is off; the event itself is constructed
//! inside a caller-supplied closure that never runs in that case.
//! Long-lived emitters (e.g. `cws-core`'s `ScheduleBuilder`) go one
//! step further and capture [`trace_enabled`] / [`metrics_enabled`]
//! into a plain `bool` at construction, so their per-probe cost while
//! disabled is a predictable branch on a local.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Per-thread observability mute (see [`quiet`]).
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

fn sink_slot() -> &'static RwLock<Option<Arc<dyn TraceSink>>> {
    static SLOT: std::sync::OnceLock<RwLock<Option<Arc<dyn TraceSink>>>> =
        std::sync::OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Install `sink` as the process-wide trace destination and enable
/// tracing. Replaces (and flushes) any previous sink.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    let prev = sink_slot()
        .write()
        .expect("trace sink lock poisoned")
        .replace(sink);
    if let Some(prev) = prev {
        prev.flush();
    }
    TRACE_ON.store(true, Ordering::Release);
}

/// Disable tracing and drop the installed sink (flushing it first).
pub fn clear_sink() {
    TRACE_ON.store(false, Ordering::Release);
    let prev = sink_slot()
        .write()
        .expect("trace sink lock poisoned")
        .take();
    if let Some(prev) = prev {
        prev.flush();
    }
}

/// Whether a trace sink is installed and this thread is not muted.
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed) && !QUIET.with(Cell::get)
}

/// Whether metrics collection is enabled (see [`crate::metrics`]) and
/// this thread is not muted.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed) && !QUIET.with(Cell::get)
}

/// Run `f` with tracing *and* metrics suppressed on the current thread.
///
/// Counterfactual work — the service engines' cold one-shot reference
/// schedules, or pipeline stages replayed on worker threads — must not
/// leave a mark in the observability stream, or the event order (and
/// hence the recorded trace bytes) would depend on the thread count.
/// The mute is per-thread and re-entrant; the previous state is
/// restored even if `f` panics (the guard restores on drop).
pub fn quiet<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            QUIET.with(|q| q.set(self.0));
        }
    }
    let _guard = Restore(QUIET.with(|q| q.replace(true)));
    f()
}

/// Turn global metrics collection on or off.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::Release);
}

/// Emit one event if tracing is enabled. The closure runs only when a
/// sink is installed, so disabled call sites pay one relaxed load.
#[inline]
pub fn emit(build: impl FnOnce() -> TraceEvent) {
    if !trace_enabled() {
        return;
    }
    emit_cold(build());
}

/// Flush the installed sink, if any (call at the end of a traced run).
pub fn flush() {
    if let Some(sink) = sink_slot()
        .read()
        .expect("trace sink lock poisoned")
        .as_ref()
    {
        sink.flush();
    }
}

#[cold]
fn emit_cold(event: TraceEvent) {
    if let Some(sink) = sink_slot()
        .read()
        .expect("trace sink lock poisoned")
        .as_ref()
    {
        sink.record(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global sink.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn emit_is_a_no_op_without_a_sink() {
        let _g = GUARD.lock().unwrap();
        clear_sink();
        let mut ran = false;
        emit(|| {
            ran = true;
            TraceEvent::VmBoot { vm: 0, time: 0.0 }
        });
        assert!(!ran, "event closure must not run while tracing is off");
    }

    #[test]
    fn installed_ring_receives_events() {
        let _g = GUARD.lock().unwrap();
        let ring = Arc::new(RingSink::new(8));
        install_sink(ring.clone());
        assert!(trace_enabled());
        emit(|| TraceEvent::VmBoot { vm: 7, time: 1.0 });
        clear_sink();
        assert!(!trace_enabled());
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.events()[0], TraceEvent::VmBoot { vm: 7, time: 1.0 });
    }

    #[test]
    fn quiet_mutes_this_thread_and_restores() {
        let _g = GUARD.lock().unwrap();
        let ring = Arc::new(RingSink::new(8));
        install_sink(ring.clone());
        quiet(|| {
            assert!(!trace_enabled(), "quiet must mute tracing");
            emit(|| TraceEvent::VmBoot { vm: 1, time: 0.0 });
            // Re-entrant: nesting keeps the mute and unwinds cleanly.
            quiet(|| assert!(!trace_enabled()));
            assert!(!trace_enabled());
        });
        assert!(trace_enabled(), "mute must lift after quiet()");
        emit(|| TraceEvent::VmBoot { vm: 2, time: 1.0 });
        clear_sink();
        assert_eq!(ring.recorded(), 1, "only the unmuted event lands");
        assert_eq!(ring.events()[0], TraceEvent::VmBoot { vm: 2, time: 1.0 });
    }

    #[test]
    fn metrics_switch_toggles() {
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
    }
}
