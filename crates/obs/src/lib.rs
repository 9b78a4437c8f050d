//! Zero-cost observability for the hybridcast engines.
//!
//! The engines in `hybridcast-core` and the simulator runtimes in
//! `hybridcast-sim` accept a generic probe parameter (`P: Probe`) and emit
//! the structured [`event::TraceEvent`] stream — message sends, drops,
//! deliveries, hop/round boundaries, membership gossip, churn and
//! partition schedules — into whatever sink the caller supplies:
//!
//! * [`NullProbe`] — the default. Monomorphization turns every `record`
//!   call into nothing; the instrumented engines stay bit-identical to the
//!   uninstrumented ones and keep their warm-run zero-allocation contract.
//! * [`sink::RingSink`] — bounded ring buffer, allocation-free recording.
//! * [`sink::JsonlProbe`] — JSON Lines trace export for offline analysis
//!   (`--trace` on the figure binaries; `trace_summary` folds it back).
//! * [`metrics::MetricsProbe`] — folds events into a
//!   [`metrics::MetricsRegistry`] of Prometheus-style counters.
//!
//! The crate sits below `core`/`sim` in the workspace layering and only
//! depends on the vendored `serde`/`serde_json`. Wall-clock access for the
//! harness ([`clock`]) and process memory introspection ([`mem`]) live
//! here too, behind the determinism policy's explicit exceptions (see
//! `docs/OBSERVABILITY.md` and `docs/DETERMINISM.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod mem;
pub mod metrics;
pub mod sink;

pub use clock::{Heartbeat, StageProfiler};
pub use event::{DeliveryOutcome, ProtocolKind, TraceEvent, SCHEMA_VERSION};
pub use metrics::{CounterId, GaugeId, MetricsProbe, MetricsRegistry};
pub use sink::{parse_jsonl, JsonlProbe, RingSink, VecProbe};

/// An event consumer threaded through the engines as a generic parameter.
///
/// Implementations must not consult the engine RNG or mutate anything an
/// engine reads: a probe observes a run, it never steers one. That is the
/// invariant that keeps every probed engine bit-identical to its
/// unprobed twin regardless of the sink attached.
///
/// The `Sized` bound rules out `dyn Probe`: a trait object would put a
/// virtual call on every event, where a concrete `P: Probe` monomorphizes
/// [`NullProbe`] to nothing.
pub trait Probe: Sized {
    /// `false` if recording is a no-op, letting harness code skip
    /// trace-only work (the engines themselves call [`Probe::record`]
    /// unconditionally and rely on monomorphization to erase it).
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one trace event.
    fn record(&mut self, event: TraceEvent);
}

/// The default probe: disabled, and `record` compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _event: TraceEvent) {}
}

impl<P: Probe> Probe for &mut P {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// Tee: record every event into both probes (e.g. a ring sink plus a
/// metrics registry). Enabled if either side is.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.0.record(event);
        self.1.record(event);
    }
}

/// A probe that may be absent: `None` is inert like [`NullProbe`], `Some`
/// delegates. This is how a binary turns an optional `--trace` sink into
/// one statically dispatched probe type.
impl<P: Probe> Probe for Option<P> {
    #[inline]
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Probe::enabled)
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if let Some(probe) = self {
            probe.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_inert() {
        let mut p = NullProbe;
        assert!(!p.enabled());
        p.record(TraceEvent::RunEnd { reached: 1 });
    }

    #[test]
    fn tee_records_into_both_sides() {
        let mut tee = (VecProbe::new(), VecProbe::new());
        assert!(tee.enabled());
        tee.record(TraceEvent::RunEnd { reached: 3 });
        assert_eq!(tee.0.events, tee.1.events);
        assert_eq!(tee.0.events.len(), 1);
    }

    #[test]
    fn optional_probe_is_inert_when_absent_and_delegates_when_present() {
        let mut absent: Option<VecProbe> = None;
        assert!(!absent.enabled());
        absent.record(TraceEvent::RunEnd { reached: 1 });

        let mut present = Some(VecProbe::new());
        assert!(present.enabled());
        present.record(TraceEvent::RunEnd { reached: 1 });
        assert_eq!(present.unwrap().events.len(), 1);
    }

    #[test]
    fn mut_reference_delegates() {
        fn record_generically<P: Probe>(mut probe: P) {
            assert!(probe.enabled());
            probe.record(TraceEvent::RunEnd { reached: 2 });
        }
        let mut sink = VecProbe::new();
        record_generically(&mut sink);
        assert_eq!(sink.events.len(), 1);
    }
}
