//! Perception events emitted by the pipeline.

use ispot_sed::EventClass;
use ispot_ssl::multitrack::{TrackSnapshot, MAX_TRACKS};
use std::fmt::Write as _;

/// One detection (optionally with localization and multi-target tracking)
/// produced for an analysis frame.
///
/// Multi-source scenes surface as the [`tracks`](PerceptionEvent::tracks) view
/// — one [`TrackSnapshot`] per live track, best first. The legacy single-source
/// fields are kept and always agree with that view:
/// [`azimuth_deg`](PerceptionEvent::azimuth_deg) is the strongest raw SRP peak
/// and [`tracked_azimuth_deg`](PerceptionEvent::tracked_azimuth_deg) is the best
/// (confirmed, strongest) track, so every pre-multi-track consumer keeps
/// working unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionEvent {
    /// Index of the analysis frame that produced the event.
    pub frame_index: usize,
    /// Time of the frame start in seconds from the beginning of the stream.
    pub time_s: f64,
    /// Detected sound class.
    pub class: EventClass,
    /// Detector confidence in `[0, 1]` (softmax probability or template similarity).
    pub confidence: f64,
    /// Instantaneous azimuth estimate of the **strongest** SRP peak in degrees,
    /// if localization ran.
    pub azimuth_deg: Option<f64>,
    /// Azimuth of the best track (Kalman-smoothed) in degrees, if tracking ran.
    pub tracked_azimuth_deg: Option<f64>,
    /// Snapshots of every live track at this frame, best first (inline,
    /// heap-free storage — events stay zero-copy through [`EventSink`]s).
    ///
    /// [`EventSink`]: crate::sink::EventSink
    pub tracks: TrackList,
}

/// A fixed-capacity, heap-free list of [`TrackSnapshot`]s embedded in every
/// [`PerceptionEvent`].
///
/// Capacity is [`MAX_TRACKS`] (the validated upper bound of
/// `TrackingConfig::max_tracks`), so the event — and therefore the whole
/// sink-based streaming path — never touches the allocator however many sources
/// the scene holds. Dereferences to `&[TrackSnapshot]`.
///
/// # Example
///
/// ```
/// use ispot_core::events::TrackList;
///
/// let list = TrackList::default();
/// assert!(list.is_empty());
/// for track in list.iter() {
///     println!("track {} at {:+.1} deg", track.id, track.azimuth_deg);
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackList {
    len: u8,
    items: [TrackSnapshot; MAX_TRACKS],
}

impl TrackList {
    /// Builds a list from a snapshot slice, keeping the first [`MAX_TRACKS`]
    /// entries (the tracker's own capacity bound guarantees no truncation in
    /// the pipeline).
    pub fn from_slice(tracks: &[TrackSnapshot]) -> Self {
        let mut list = TrackList::default();
        let n = tracks.len().min(MAX_TRACKS);
        list.items[..n].copy_from_slice(&tracks[..n]);
        list.len = n as u8;
        list
    }

    /// The stored snapshots, best track first.
    pub fn as_slice(&self) -> &[TrackSnapshot] {
        // Clamp rather than index blindly: `len` could exceed the inline
        // capacity only through a corrupted deserialization, and that must not
        // turn into a panic on every later access.
        &self.items[..(self.len as usize).min(MAX_TRACKS)]
    }

    /// Snapshots of confirmed (or coasting) tracks only.
    pub fn confirmed(&self) -> impl Iterator<Item = &TrackSnapshot> {
        self.as_slice().iter().filter(|t| t.is_confirmed())
    }
}

impl std::ops::Deref for TrackList {
    type Target = [TrackSnapshot];

    fn deref(&self) -> &[TrackSnapshot] {
        self.as_slice()
    }
}

impl PartialEq for TrackList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a TrackList {
    type Item = &'a TrackSnapshot;
    type IntoIter = std::slice::Iter<'a, TrackSnapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PerceptionEvent {
    /// Returns true if this event reports an emergency sound (not background).
    pub fn is_alert(&self) -> bool {
        self.class.is_event()
    }

    /// One-line human-readable summary. Events carrying several **confirmed**
    /// tracks list every confirmed bearing ("2 tracks: +34.1°, -120.5°")
    /// instead of silently printing only the best one; tentative association
    /// hypotheses are never shown.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "t={:.2}s {} (conf {:.2})",
            self.time_s, self.class, self.confidence
        );
        let confirmed = self.tracks.confirmed().count();
        if confirmed >= 2 {
            let _ = write!(s, " {confirmed} tracks:");
            for (i, track) in self.tracks.confirmed().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                let _ = write!(s, "{sep}{:+.1}°", track.azimuth_deg);
            }
            return s;
        }
        match (self.tracked_azimuth_deg, self.azimuth_deg) {
            (Some(tracked), _) => {
                let _ = write!(s, " at {tracked:+.1} deg (tracked)");
            }
            (None, Some(az)) => {
                let _ = write!(s, " at {az:+.1} deg");
            }
            (None, None) => {}
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_ssl::multitrack::{TrackId, TrackStatus};

    fn snapshot(azimuth_deg: f64, status: TrackStatus) -> TrackSnapshot {
        TrackSnapshot {
            azimuth_deg,
            status,
            ..TrackSnapshot::default()
        }
    }

    #[test]
    fn alert_flag_and_summary() {
        let event = PerceptionEvent {
            frame_index: 3,
            time_s: 0.38,
            class: EventClass::WailSiren,
            confidence: 0.91,
            azimuth_deg: Some(-34.0),
            tracked_azimuth_deg: Some(-32.5),
            tracks: TrackList::default(),
        };
        assert!(event.is_alert());
        let s = event.summary();
        assert!(s.contains("wail") && s.contains("tracked"));
        let background = PerceptionEvent {
            class: EventClass::Background,
            azimuth_deg: None,
            tracked_azimuth_deg: None,
            ..event
        };
        assert!(!background.is_alert());
        assert!(!background.summary().contains("deg"));
    }

    #[test]
    fn summary_renders_every_track_of_a_multi_track_event() {
        // Regression for the satellite fix: two concurrent tracks used to be
        // summarized as just the best bearing, hiding the second vehicle.
        let event = PerceptionEvent {
            frame_index: 10,
            time_s: 1.25,
            class: EventClass::WailSiren,
            confidence: 0.9,
            azimuth_deg: Some(34.3),
            tracked_azimuth_deg: Some(34.1),
            tracks: TrackList::from_slice(&[
                snapshot(34.1, TrackStatus::Confirmed),
                snapshot(-120.5, TrackStatus::Confirmed),
            ]),
        };
        let s = event.summary();
        assert!(s.contains("2 tracks:"), "summary was {s}");
        assert!(
            s.contains("+34.1°") && s.contains("-120.5°"),
            "summary was {s}"
        );
        // A single-track event keeps the classic format.
        let single = PerceptionEvent {
            tracks: TrackList::from_slice(&[snapshot(34.1, TrackStatus::Confirmed)]),
            ..event
        };
        assert!(single.summary().contains("at +34.1 deg (tracked)"));
        assert!(!single.summary().contains("tracks"));
    }

    #[test]
    fn track_list_is_bounded_sliceable_and_comparable() {
        let snaps: Vec<TrackSnapshot> = (0..MAX_TRACKS + 3)
            .map(|i| TrackSnapshot {
                id: TrackId::default(),
                azimuth_deg: i as f64,
                status: if i % 2 == 0 {
                    TrackStatus::Confirmed
                } else {
                    TrackStatus::Tentative
                },
                ..TrackSnapshot::default()
            })
            .collect();
        let list = TrackList::from_slice(&snaps);
        assert_eq!(list.len(), MAX_TRACKS, "capacity bound applies");
        assert_eq!(list[0].azimuth_deg, 0.0);
        assert_eq!(list.confirmed().count(), MAX_TRACKS / 2);
        // Equality ignores the unused tail slots.
        let same = TrackList::from_slice(&snaps[..MAX_TRACKS]);
        assert_eq!(list, same);
        let different = TrackList::from_slice(&snaps[..2]);
        assert_ne!(list, different);
        assert_eq!((&different).into_iter().count(), 2);
        assert!(TrackList::default().is_empty());
    }
}
