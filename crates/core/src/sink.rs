//! Event sinks: zero-copy consumers of pipeline output.
//!
//! Every streaming entry point of the pipeline ([`Session::process_frame_with`],
//! [`Session::push_chunk_with`], [`Session::push_input_with`],
//! [`Session::process_recording_with`]) emits
//! [`PerceptionEvent`]s **by reference** through a caller-supplied [`EventSink`].
//! The event is built on the stack and handed to the sink; nothing is boxed,
//! cloned or collected unless the sink chooses to — so a sink that only counts,
//! thresholds or forwards to a fixed-size slot keeps the whole streaming path at
//! zero heap allocations per frame in steady state.
//!
//! `Vec<PerceptionEvent>` implements `EventSink` by cloning each event into the
//! vector, for callers that simply want every event collected.
//!
//! [`Session::process_frame_with`]: crate::api::Session::process_frame_with
//! [`Session::push_chunk_with`]: crate::api::Session::push_chunk_with
//! [`Session::push_input_with`]: crate::api::Session::push_input_with
//! [`Session::process_recording_with`]: crate::api::Session::process_recording_with

use crate::events::PerceptionEvent;
use crate::stages::FrameOutcome;

/// A consumer of pipeline output, fed by reference as frames complete.
///
/// Implementations decide what (if anything) to retain; the pipeline itself
/// never stores or clones events on the sink's behalf.
///
/// # Example
///
/// ```
/// use ispot_core::prelude::*;
///
/// /// Keeps only the most confident alert seen so far.
/// #[derive(Default)]
/// struct BestAlert(Option<PerceptionEvent>);
///
/// impl EventSink for BestAlert {
///     fn on_event(&mut self, event: &PerceptionEvent) {
///         if self.0.as_ref().is_none_or(|b| event.confidence > b.confidence) {
///             self.0 = Some(event.clone());
///         }
///     }
/// }
/// ```
pub trait EventSink {
    /// Called once per emitted perception event, before
    /// [`on_frame`](EventSink::on_frame) for the frame that produced it.
    fn on_event(&mut self, event: &PerceptionEvent);

    /// Called once per completed frame with its [`FrameOutcome`] (gated,
    /// analyzed, or detection). Default: ignored.
    fn on_frame(&mut self, outcome: &FrameOutcome) {
        let _ = outcome;
    }
}

/// Events are cloned into the vector; frame outcomes are ignored. This is the
/// adapter behind the `Vec`-returning convenience wrappers.
impl EventSink for Vec<PerceptionEvent> {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.push(event.clone());
    }
}

/// A sink that collects every event into an owned `Vec`.
///
/// Functionally equivalent to sinking into a `Vec<PerceptionEvent>` directly;
/// exists as a named adapter for code that wants to be explicit about the
/// collection behaviour.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<PerceptionEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[PerceptionEvent] {
        &self.events
    }

    /// Consumes the sink, returning the collected events.
    pub fn into_events(self) -> Vec<PerceptionEvent> {
        self.events
    }

    /// Discards the collected events, keeping the allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.events.push(event.clone());
    }
}

/// A sink that keeps only the most recent event — a fixed-size slot, so feeding
/// it never allocates ([`PerceptionEvent`] owns no heap memory).
///
/// This is the typical shape of a real-time alerting consumer: the HMI shows the
/// latest alert, not a history.
#[derive(Debug, Clone, Default)]
pub struct LatestEvent {
    latest: Option<PerceptionEvent>,
}

impl LatestEvent {
    /// Creates an empty slot.
    pub fn new() -> Self {
        LatestEvent::default()
    }

    /// The most recent event, if any was emitted.
    pub fn latest(&self) -> Option<&PerceptionEvent> {
        self.latest.as_ref()
    }

    /// Takes the most recent event, leaving the slot empty.
    pub fn take(&mut self) -> Option<PerceptionEvent> {
        self.latest.take()
    }
}

impl EventSink for LatestEvent {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.latest = Some(event.clone());
    }
}

/// A sink that counts frames and events without retaining anything — never
/// allocates, whatever the event rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlertCounter {
    /// Number of events whose class is an emergency sound.
    pub alerts: usize,
    /// Total number of emitted events. The current pipeline only emits events
    /// for emergency classes, so this equals [`alerts`](AlertCounter::alerts)
    /// unless the sink is also fed from a source that reports non-alert events.
    pub events: usize,
    /// Number of completed frames (gated + analyzed + detections).
    pub frames: usize,
    /// Number of frames the park-mode trigger kept asleep.
    pub gated: usize,
}

impl AlertCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        AlertCounter::default()
    }
}

impl EventSink for AlertCounter {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.events += 1;
        if event.is_alert() {
            self.alerts += 1;
        }
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        self.frames += 1;
        if matches!(outcome, FrameOutcome::Gated) {
            self.gated += 1;
        }
    }
}

/// Adapts a closure into an [`EventSink`] (frame outcomes are ignored).
///
/// ```
/// use ispot_core::sink::{EventSink, FnSink};
///
/// let mut count = 0;
/// let mut sink = FnSink(|_event: &ispot_core::events::PerceptionEvent| count += 1);
/// # let _ = &mut sink;
/// ```
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(&PerceptionEvent)> EventSink for FnSink<F> {
    fn on_event(&mut self, event: &PerceptionEvent) {
        (self.0)(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_sed::EventClass;

    fn event(class: EventClass, confidence: f64) -> PerceptionEvent {
        PerceptionEvent {
            frame_index: 0,
            time_s: 0.0,
            class,
            confidence,
            azimuth_deg: None,
            tracked_azimuth_deg: None,
            tracks: crate::events::TrackList::default(),
        }
    }

    #[test]
    fn vec_and_vecsink_collect_clones() {
        let e = event(EventClass::WailSiren, 0.9);
        let mut vec: Vec<PerceptionEvent> = Vec::new();
        vec.on_event(&e);
        assert_eq!(vec.len(), 1);
        let mut sink = VecSink::new();
        sink.on_event(&e);
        sink.on_frame(&FrameOutcome::Analyzed);
        assert_eq!(sink.events(), &vec[..]);
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn latest_event_keeps_only_the_newest() {
        let mut sink = LatestEvent::new();
        assert!(sink.latest().is_none());
        sink.on_event(&event(EventClass::CarHorn, 0.4));
        sink.on_event(&event(EventClass::WailSiren, 0.8));
        assert_eq!(sink.latest().unwrap().class, EventClass::WailSiren);
        assert_eq!(sink.take().unwrap().confidence, 0.8);
        assert!(sink.latest().is_none());
    }

    #[test]
    fn alert_counter_tallies_frames_events_and_gating() {
        let mut sink = AlertCounter::new();
        sink.on_event(&event(EventClass::WailSiren, 0.9));
        sink.on_frame(&FrameOutcome::Detection {
            class: EventClass::WailSiren,
            confidence: 0.9,
            azimuth_deg: None,
            tracked_azimuth_deg: None,
        });
        sink.on_frame(&FrameOutcome::Gated);
        sink.on_frame(&FrameOutcome::Analyzed);
        assert_eq!(
            sink,
            AlertCounter {
                alerts: 1,
                events: 1,
                frames: 3,
                gated: 1
            }
        );
    }

    #[test]
    fn fn_sink_invokes_the_closure() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|e: &PerceptionEvent| seen.push(e.class));
        sink.on_event(&event(EventClass::YelpSiren, 0.5));
        sink.on_frame(&FrameOutcome::Analyzed);
        let FnSink(_) = sink;
        assert_eq!(seen, vec![EventClass::YelpSiren]);
    }
}
