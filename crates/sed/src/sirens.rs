//! Parametric siren and car-horn synthesisers.
//!
//! The paper's dataset is built from freesound.org recordings of hi-low, wail and yelp
//! sirens plus car horns (Sec. IV-A). Those recordings cannot be redistributed, so this
//! module synthesises signals with the same spectro-temporal structure: the
//! characteristic frequency trajectories of each siren pattern with a small number of
//! harmonics, and a dual-tone horn with a rich harmonic stack.

use crate::labels::EventClass;
use std::f64::consts::PI;

/// The three siren patterns evaluated in the emergency-vehicle-detection literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SirenKind {
    /// Two alternating steady tones (e.g. 440 Hz / 585 Hz, ~0.5 s each).
    HiLow,
    /// Slow continuous sweep between ~600 Hz and ~1350 Hz (period of several seconds).
    Wail,
    /// Fast continuous sweep over the same range (period ~0.3 s).
    Yelp,
}

impl SirenKind {
    /// The [`EventClass`] corresponding to this siren pattern.
    pub fn event_class(self) -> EventClass {
        match self {
            SirenKind::HiLow => EventClass::HiLowSiren,
            SirenKind::Wail => EventClass::WailSiren,
            SirenKind::Yelp => EventClass::YelpSiren,
        }
    }
}

/// Synthesises siren signals of a given [`SirenKind`].
///
/// # Example
///
/// ```
/// use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
///
/// let fs = 16_000.0;
/// let yelp = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(0.5);
/// assert_eq!(yelp.len(), 8000);
/// assert!(yelp.iter().all(|x| x.abs() <= 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SirenSynthesizer {
    kind: SirenKind,
    fs: f64,
    low_hz: f64,
    high_hz: f64,
    period_s: f64,
    num_harmonics: usize,
}

impl SirenSynthesizer {
    /// Creates a synthesiser with the standard parameters for the given pattern.
    pub fn new(kind: SirenKind, fs: f64) -> Self {
        let (low_hz, high_hz, period_s) = match kind {
            SirenKind::HiLow => (440.0, 585.0, 1.0),
            SirenKind::Wail => (600.0, 1350.0, 4.0),
            SirenKind::Yelp => (600.0, 1350.0, 0.32),
        };
        SirenSynthesizer {
            kind,
            fs,
            low_hz,
            high_hz,
            period_s,
            num_harmonics: 3,
        }
    }

    /// Overrides the sweep (or alternation) period in seconds.
    pub fn with_period(mut self, period_s: f64) -> Self {
        self.period_s = period_s.max(1e-3);
        self
    }

    /// Overrides the frequency range, emulating region-specific sirens (the paper notes
    /// sirens "are usually different in each country or region").
    pub fn with_frequency_range(mut self, low_hz: f64, high_hz: f64) -> Self {
        self.low_hz = low_hz;
        self.high_hz = high_hz.max(low_hz + 1.0);
        self
    }

    /// Sets the number of harmonics (default 3).
    pub fn with_harmonics(mut self, num_harmonics: usize) -> Self {
        self.num_harmonics = num_harmonics.max(1);
        self
    }

    /// Returns the siren pattern.
    pub fn kind(&self) -> SirenKind {
        self.kind
    }

    /// Instantaneous fundamental frequency at time `t` seconds.
    pub fn instantaneous_frequency(&self, t: f64) -> f64 {
        let phase = (t / self.period_s).fract();
        match self.kind {
            SirenKind::HiLow => {
                if phase < 0.5 {
                    self.low_hz
                } else {
                    self.high_hz
                }
            }
            SirenKind::Wail | SirenKind::Yelp => {
                // Triangular up-down sweep, continuous at the period boundary.
                let tri = if phase < 0.5 {
                    2.0 * phase
                } else {
                    2.0 * (1.0 - phase)
                };
                self.low_hz + (self.high_hz - self.low_hz) * tri
            }
        }
    }

    /// Synthesises `duration_s` seconds of the siren, peak-normalized to 0.9.
    pub fn synthesize(&self, duration_s: f64) -> Vec<f64> {
        let n = (duration_s * self.fs).max(0.0) as usize;
        let mut phase = vec![0.0f64; self.num_harmonics];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / self.fs;
            let f0 = self.instantaneous_frequency(t);
            let mut sample = 0.0;
            for (h, ph) in phase.iter_mut().enumerate() {
                let harmonic = (h + 1) as f64;
                // Harmonic amplitudes fall off as 1/h.
                sample += (*ph).sin() / harmonic;
                *ph += 2.0 * PI * f0 * harmonic / self.fs;
                if *ph > 2.0 * PI {
                    *ph -= 2.0 * PI;
                }
            }
            out.push(sample);
        }
        normalize(&mut out, 0.9);
        out
    }
}

/// Synthesises car-horn signals: two simultaneous fundamental tones (a musical interval,
/// as used by most dual-horn cars) with a rich harmonic stack.
#[derive(Debug, Clone)]
pub struct CarHornSynthesizer {
    fs: f64,
    f1_hz: f64,
    f2_hz: f64,
    num_harmonics: usize,
}

impl CarHornSynthesizer {
    /// Creates a horn synthesiser with the typical dual fundamental (circa 420/510 Hz).
    pub fn new(fs: f64) -> Self {
        CarHornSynthesizer {
            fs,
            f1_hz: 420.0,
            f2_hz: 510.0,
            num_harmonics: 5,
        }
    }

    /// Overrides the two fundamentals.
    pub fn with_fundamentals(mut self, f1_hz: f64, f2_hz: f64) -> Self {
        self.f1_hz = f1_hz;
        self.f2_hz = f2_hz;
        self
    }

    /// Synthesises `duration_s` seconds of horn, peak-normalized to 0.9, with a short
    /// attack/release envelope so clips do not click.
    pub fn synthesize(&self, duration_s: f64) -> Vec<f64> {
        let n = (duration_s * self.fs).max(0.0) as usize;
        let ramp = (0.01 * self.fs) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / self.fs;
            let mut sample = 0.0;
            for h in 1..=self.num_harmonics {
                let hf = h as f64;
                sample += (2.0 * PI * self.f1_hz * hf * t).sin() / hf;
                sample += (2.0 * PI * self.f2_hz * hf * t).sin() / hf;
            }
            // Envelope.
            let env_in = if i < ramp {
                i as f64 / ramp as f64
            } else {
                1.0
            };
            let env_out = if n - i <= ramp {
                (n - i) as f64 / ramp as f64
            } else {
                1.0
            };
            out.push(sample * env_in.min(env_out));
        }
        normalize(&mut out, 0.9);
        out
    }
}

/// Synthesises the clean (pre-propagation) event signal for any [`EventClass`]; for
/// [`EventClass::Background`] the output is silence of the requested length, since the
/// background is added separately by the dataset mixer.
pub fn synthesize_event(class: EventClass, fs: f64, duration_s: f64) -> Vec<f64> {
    match class {
        EventClass::HiLowSiren => {
            SirenSynthesizer::new(SirenKind::HiLow, fs).synthesize(duration_s)
        }
        EventClass::WailSiren => SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s),
        EventClass::YelpSiren => SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(duration_s),
        EventClass::CarHorn => CarHornSynthesizer::new(fs).synthesize(duration_s),
        EventClass::Background => vec![0.0; (duration_s * fs) as usize],
    }
}

fn normalize(signal: &mut [f64], target: f64) {
    let peak = signal.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if peak > 0.0 {
        let g = target / peak;
        for x in signal.iter_mut() {
            *x *= g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_features::spectrogram::{SpectrogramConfig, SpectrogramExtractor};

    fn peak_frequency_per_frame(signal: &[f64], fs: f64) -> Vec<f64> {
        let ex = SpectrogramExtractor::new(SpectrogramConfig::default()).unwrap();
        let spec = ex.compute(signal).unwrap();
        spec.iter_rows()
            .map(|row| {
                let peak = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap()
                    .0;
                peak as f64 * fs / 512.0
            })
            .collect()
    }

    #[test]
    fn hilow_alternates_between_two_tones() {
        let fs = 16_000.0;
        let s = SirenSynthesizer::new(SirenKind::HiLow, fs).synthesize(2.0);
        let peaks = peak_frequency_per_frame(&s, fs);
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = peaks.iter().cloned().fold(0.0f64, f64::max);
        assert!((min - 440.0).abs() < 50.0, "low tone {min}");
        assert!((max - 585.0).abs() < 50.0, "high tone {max}");
        // Both tones appear a substantial fraction of the time.
        let low_frames = peaks.iter().filter(|&&p| (p - 440.0).abs() < 60.0).count();
        let high_frames = peaks.iter().filter(|&&p| (p - 585.0).abs() < 60.0).count();
        assert!(low_frames > peaks.len() / 4);
        assert!(high_frames > peaks.len() / 4);
    }

    #[test]
    fn wail_sweeps_through_the_band() {
        let fs = 16_000.0;
        let s = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(4.0);
        let peaks = peak_frequency_per_frame(&s, fs);
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = peaks.iter().cloned().fold(0.0f64, f64::max);
        assert!(min < 750.0, "wail reaches low frequencies: {min}");
        assert!(max > 1200.0, "wail reaches high frequencies: {max}");
    }

    #[test]
    fn yelp_sweeps_much_faster_than_wail() {
        let fs = 16_000.0;
        let yelp = SirenSynthesizer::new(SirenKind::Yelp, fs);
        let wail = SirenSynthesizer::new(SirenKind::Wail, fs);
        // Count direction changes of the instantaneous frequency over 2 seconds.
        let changes = |syn: &SirenSynthesizer| {
            let f: Vec<f64> = (0..2000)
                .map(|i| syn.instantaneous_frequency(i as f64 * 0.001))
                .collect();
            f.windows(3)
                .filter(|w| (w[1] - w[0]).signum() != (w[2] - w[1]).signum())
                .count()
        };
        assert!(changes(&yelp) > 4 * changes(&wail).max(1));
    }

    #[test]
    fn horn_contains_both_fundamentals() {
        let fs = 16_000.0;
        let horn = CarHornSynthesizer::new(fs).synthesize(1.0);
        let ex = SpectrogramExtractor::new(SpectrogramConfig::default()).unwrap();
        let spec = ex.compute(&horn).unwrap();
        let mean_spectrum: Vec<f64> = (0..spec.num_cols())
            .map(|c| (0..spec.num_rows()).map(|r| spec.get(r, c)).sum::<f64>())
            .collect();
        let bin_hz = fs / 512.0;
        let energy_near = |f: f64| {
            let bin = (f / bin_hz).round() as usize;
            mean_spectrum[bin - 1..=bin + 1].iter().sum::<f64>()
        };
        let total: f64 = mean_spectrum.iter().sum();
        assert!(energy_near(420.0) / total > 0.05);
        assert!(energy_near(510.0) / total > 0.05);
    }

    #[test]
    fn synthesize_event_covers_all_classes() {
        let fs = 8000.0;
        for class in EventClass::ALL {
            let s = synthesize_event(class, fs, 0.25);
            assert_eq!(s.len(), 2000);
            if class.is_event() {
                assert!(s.iter().any(|&x| x.abs() > 0.1), "{class} is silent");
            } else {
                assert!(s.iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn custom_frequency_range_is_respected() {
        let fs = 16_000.0;
        let s = SirenSynthesizer::new(SirenKind::Wail, fs)
            .with_frequency_range(900.0, 1800.0)
            .synthesize(4.0);
        let peaks = peak_frequency_per_frame(&s, fs);
        assert!(peaks.iter().all(|&p| p > 800.0));
    }

    #[test]
    fn output_is_normalized_and_finite() {
        for kind in [SirenKind::HiLow, SirenKind::Wail, SirenKind::Yelp] {
            let s = SirenSynthesizer::new(kind, 16_000.0).synthesize(0.5);
            assert!(s.iter().all(|x| x.is_finite() && x.abs() <= 0.9 + 1e-12));
        }
    }
}
