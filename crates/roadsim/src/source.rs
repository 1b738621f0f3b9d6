//! Sound sources: an emitted signal attached to a trajectory.

use crate::trajectory::Trajectory;

/// One omnidirectional sound source emitting a user-defined signal while moving
/// along a [`Trajectory`].
///
/// A scene may contain any number of sources (see
/// [`SceneBuilder::source`](crate::scene::SceneBuilder::source)); each one carries its
/// own signal, trajectory, emission gain and optional onset time, and the engine sums
/// their direct and road-reflected contributions at every microphone.
///
/// # Example
///
/// ```
/// use ispot_roadsim::{geometry::Position, source::SoundSource, trajectory::Trajectory};
///
/// let signal = vec![0.0_f64; 16_000];
/// let source = SoundSource::new(signal, Trajectory::fixed(Position::new(5.0, 0.0, 1.0)))
///     .with_start(0.5);
/// assert_eq!(source.len(), 16_000);
/// assert_eq!(source.start_delay_samples(16_000.0), 8000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoundSource {
    signal: Vec<f64>,
    trajectory: Trajectory,
    gain: f64,
    start_s: f64,
}

impl SoundSource {
    /// Creates a source emitting `signal` while following `trajectory`.
    pub fn new(signal: Vec<f64>, trajectory: Trajectory) -> Self {
        SoundSource {
            signal,
            trajectory,
            gain: 1.0,
            start_s: 0.0,
        }
    }

    /// Sets an overall emission gain (default 1.0).
    pub fn with_gain(mut self, gain: f64) -> Self {
        self.gain = gain;
        self
    }

    /// Delays the signal onset to `start_s` seconds of scene time (default 0.0).
    ///
    /// The trajectory remains parameterized by absolute scene time — only the emitted
    /// signal is shifted, so a door slam can fire mid-scene from wherever its (static
    /// or moving) source happens to be at that moment.
    pub fn with_start(mut self, start_s: f64) -> Self {
        self.start_s = start_s;
        self
    }

    /// The emitted signal samples.
    pub fn signal(&self) -> &[f64] {
        &self.signal
    }

    /// The source trajectory.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// The emission gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Scene time (seconds) at which the signal starts playing.
    pub fn start_s(&self) -> f64 {
        self.start_s
    }

    /// The signal onset expressed in whole samples at sampling rate `fs`.
    pub fn start_delay_samples(&self, fs: f64) -> usize {
        (self.start_s * fs).round().max(0.0) as usize
    }

    /// Number of scene samples this source spans at sampling rate `fs`: onset delay
    /// plus signal length.
    pub fn end_sample(&self, fs: f64) -> usize {
        self.start_delay_samples(fs) + self.signal.len()
    }

    /// Number of samples in the emitted signal.
    pub fn len(&self) -> usize {
        self.signal.len()
    }

    /// Returns true if the source signal is empty.
    pub fn is_empty(&self) -> bool {
        self.signal.is_empty()
    }

    /// Returns the emitted sample at index `n` scaled by the gain, or 0 beyond the end
    /// of the signal.
    pub fn sample(&self, n: usize) -> f64 {
        self.signal.get(n).copied().unwrap_or(0.0) * self.gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Position;

    #[test]
    fn sample_applies_gain_and_pads_with_silence() {
        let s =
            SoundSource::new(vec![1.0, -0.5], Trajectory::fixed(Position::ORIGIN)).with_gain(2.0);
        assert_eq!(s.sample(0), 2.0);
        assert_eq!(s.sample(1), -1.0);
        assert_eq!(s.sample(5), 0.0);
    }

    #[test]
    fn accessors_round_trip() {
        let traj = Trajectory::fixed(Position::new(1.0, 2.0, 3.0));
        let s = SoundSource::new(vec![0.25; 10], traj.clone());
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.trajectory(), &traj);
        assert_eq!(s.gain(), 1.0);
        assert_eq!(s.start_s(), 0.0);
        assert_eq!(s.end_sample(8000.0), 10);
    }

    #[test]
    fn start_delay_rounds_to_whole_samples() {
        let s =
            SoundSource::new(vec![0.1; 100], Trajectory::fixed(Position::ORIGIN)).with_start(0.25);
        assert_eq!(s.start_delay_samples(16_000.0), 4000);
        assert_eq!(s.end_sample(16_000.0), 4100);
        // Negative onsets clamp to the scene start.
        let early =
            SoundSource::new(vec![0.1; 4], Trajectory::fixed(Position::ORIGIN)).with_start(-1.0);
        assert_eq!(early.start_delay_samples(16_000.0), 0);
    }
}
