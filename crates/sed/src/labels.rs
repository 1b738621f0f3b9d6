//! Event classes for the emergency-sound detection task.

use std::fmt;

/// The sound classes of the I-SPOT emergency-sound dataset (Sec. IV-A of the paper):
/// three siren patterns, car horns, and background (traffic/urban noise only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Two-tone "hi-low" siren (common on European emergency vehicles).
    HiLowSiren,
    /// Slow-sweep "wail" siren.
    WailSiren,
    /// Fast-sweep "yelp" siren.
    YelpSiren,
    /// Car horn.
    CarHorn,
    /// No event of interest: urban/traffic background only.
    Background,
}

impl EventClass {
    /// All classes in index order.
    pub const ALL: [EventClass; 5] = [
        EventClass::HiLowSiren,
        EventClass::WailSiren,
        EventClass::YelpSiren,
        EventClass::CarHorn,
        EventClass::Background,
    ];

    /// Number of classes.
    pub const COUNT: usize = 5;

    /// Numeric index of the class (stable, used as the network target).
    pub fn index(self) -> usize {
        match self {
            EventClass::HiLowSiren => 0,
            EventClass::WailSiren => 1,
            EventClass::YelpSiren => 2,
            EventClass::CarHorn => 3,
            EventClass::Background => 4,
        }
    }

    /// Class for a numeric index, if valid.
    pub fn from_index(index: usize) -> Option<EventClass> {
        EventClass::ALL.get(index).copied()
    }

    /// Returns true for classes that represent an emergency event (anything but
    /// background).
    pub fn is_event(self) -> bool {
        self != EventClass::Background
    }

    /// Short lowercase label, e.g. `"hi-low"`.
    pub fn label(self) -> &'static str {
        match self {
            EventClass::HiLowSiren => "hi-low",
            EventClass::WailSiren => "wail",
            EventClass::YelpSiren => "yelp",
            EventClass::CarHorn => "horn",
            EventClass::Background => "background",
        }
    }
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One labeled activity interval in a scene timeline: `class` is audible from
/// `start_s` to `end_s` (seconds of scene time).
///
/// A road scene's ground truth is a list of these — one per event-emitting source,
/// derived from the source's onset time and signal length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledInterval {
    /// The sound class audible during the interval.
    pub class: EventClass,
    /// Interval start in seconds.
    pub start_s: f64,
    /// Interval end in seconds (exclusive).
    pub end_s: f64,
}

impl LabeledInterval {
    /// Creates an interval; `end_s` below `start_s` is clamped to an empty interval.
    pub fn new(class: EventClass, start_s: f64, end_s: f64) -> Self {
        LabeledInterval {
            class,
            start_s,
            end_s: end_s.max(start_s),
        }
    }

    /// Overlap (seconds) between this interval and `[from_s, to_s)`.
    pub fn overlap_s(&self, from_s: f64, to_s: f64) -> f64 {
        (self.end_s.min(to_s) - self.start_s.max(from_s)).max(0.0)
    }

    /// Interval length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Generates one ground-truth [`EventClass`] per analysis frame from a scene
/// timeline, matching the pipeline's framing (`frame_len` samples every `hop`).
///
/// Frame `i` spans `[i * hop, i * hop + frame_len)` samples. It is labeled with the
/// event class that overlaps it the most, provided that overlap covers at least half
/// the frame **or** half the event interval (so a transient much shorter than a frame
/// still labels the frame it lands in); otherwise the frame is
/// [`EventClass::Background`]. Background intervals in the timeline are ignored —
/// background is the absence of any event.
///
/// # Example
///
/// ```
/// use ispot_sed::labels::{frame_labels, EventClass, LabeledInterval};
///
/// let fs = 16_000.0;
/// // A siren audible from 0.5 s to 1.5 s of a 2 s scene.
/// let timeline = [LabeledInterval::new(EventClass::WailSiren, 0.5, 1.5)];
/// let labels = frame_labels(&timeline, 16, 2048, 2048, fs);
/// assert_eq!(labels.len(), 16);
/// assert_eq!(labels[0], EventClass::Background);
/// assert_eq!(labels[8], EventClass::WailSiren);
/// ```
pub fn frame_labels(
    timeline: &[LabeledInterval],
    num_frames: usize,
    frame_len: usize,
    hop: usize,
    fs: f64,
) -> Vec<EventClass> {
    let frame_s = frame_len as f64 / fs;
    (0..num_frames)
        .map(|i| {
            let from_s = i as f64 * hop as f64 / fs;
            let to_s = from_s + frame_s;
            let mut best = EventClass::Background;
            let mut best_overlap = 0.0;
            for interval in timeline {
                if interval.class == EventClass::Background {
                    continue;
                }
                let overlap = interval.overlap_s(from_s, to_s);
                let needed = 0.5 * frame_s.min(interval.duration_s());
                if overlap > best_overlap && overlap >= needed && overlap > 0.0 {
                    best_overlap = overlap;
                    best = interval.class;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for class in EventClass::ALL {
            assert_eq!(EventClass::from_index(class.index()), Some(class));
        }
        assert_eq!(EventClass::from_index(99), None);
        assert_eq!(EventClass::ALL.len(), EventClass::COUNT);
    }

    #[test]
    fn frame_labels_follow_interval_overlap() {
        let fs = 1000.0;
        // 10 frames of 100 samples, hop 100: scene spans [0, 1) s.
        let timeline = [
            LabeledInterval::new(EventClass::YelpSiren, 0.2, 0.6),
            LabeledInterval::new(EventClass::Background, 0.0, 1.0), // ignored
        ];
        let labels = frame_labels(&timeline, 10, 100, 100, fs);
        assert_eq!(labels.len(), 10);
        assert_eq!(labels[0], EventClass::Background);
        assert_eq!(labels[1], EventClass::Background); // [0.1, 0.2): no overlap
        for (i, label) in labels.iter().enumerate().take(6).skip(2) {
            assert_eq!(*label, EventClass::YelpSiren, "frame {i}");
        }
        assert_eq!(labels[6], EventClass::Background);
    }

    #[test]
    fn short_transients_still_label_their_frame() {
        let fs = 1000.0;
        // A 30 ms horn inside a 100 ms frame: covers less than half the frame but
        // all of itself, so the frame is labeled.
        let timeline = [LabeledInterval::new(EventClass::CarHorn, 0.43, 0.46)];
        let labels = frame_labels(&timeline, 10, 100, 100, fs);
        assert_eq!(labels[4], EventClass::CarHorn);
        assert_eq!(labels[3], EventClass::Background);
        assert_eq!(labels[5], EventClass::Background);
    }

    #[test]
    fn overlapping_events_pick_the_larger_overlap() {
        let fs = 1000.0;
        let timeline = [
            LabeledInterval::new(EventClass::WailSiren, 0.0, 1.0),
            LabeledInterval::new(EventClass::CarHorn, 0.35, 0.45),
        ];
        // Frame [0.3, 0.4): wail covers all 0.1 s, horn covers 0.05 s.
        let labels = frame_labels(&timeline, 10, 100, 100, fs);
        assert_eq!(labels[3], EventClass::WailSiren);
        // Degenerate interval never labels anything.
        let empty = [LabeledInterval::new(EventClass::CarHorn, 0.5, 0.2)];
        assert!(frame_labels(&empty, 10, 100, 100, fs)
            .iter()
            .all(|&c| c == EventClass::Background));
    }

    #[test]
    fn event_flag_and_labels() {
        assert!(EventClass::WailSiren.is_event());
        assert!(!EventClass::Background.is_event());
        assert_eq!(EventClass::CarHorn.to_string(), "horn");
        // Labels are unique.
        let mut labels: Vec<&str> = EventClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventClass::COUNT);
    }
}
