//! Environmental masker synthesis: wind, rain and road noise.
//!
//! These are the weather and traffic backgrounds the scenario matrix mixes
//! under its event sources. Each synthesizer is fully seeded — the same
//! `(kind, fs, seed)` triple always produces the bit-identical waveform — so
//! generated scenes can be pinned by determinism tests. The spectral shapes
//! are first-order approximations of the measured spectra:
//!
//! * **wind** — low-passed pink noise with slow gust amplitude modulation
//!   (energy concentrated below ~250 Hz, 0.2–0.6 Hz gust rate);
//! * **rain** — high-passed white noise (broadband drop impacts, rising
//!   spectrum above ~1 kHz) with a light fast shimmer;
//! * **road noise** — brown-noise rumble low-passed at 300 Hz plus a pink
//!   tyre-hiss band, the distant-traffic bed.

use crate::error::RoadSimError;
use ispot_dsp::biquad::{Biquad, BiquadDesign};
use ispot_dsp::generator::{NoiseKind, NoiseSource};

/// Which environmental masker to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmbienceKind {
    /// Gusting wind: low-frequency pink noise with slow amplitude modulation.
    Wind,
    /// Rain: broadband high-frequency noise from drop impacts.
    Rain,
    /// Distant traffic: rumble plus tyre hiss.
    RoadNoise,
}

impl AmbienceKind {
    /// Stable lowercase label, used in scene names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AmbienceKind::Wind => "wind",
            AmbienceKind::Rain => "rain",
            AmbienceKind::RoadNoise => "road-noise",
        }
    }
}

/// Seeded synthesizer for one environmental masker.
///
/// # Example
///
/// ```
/// use ispot_roadsim::ambience::{AmbienceKind, AmbienceSynthesizer};
///
/// let synth = AmbienceSynthesizer::new(AmbienceKind::Rain, 16_000.0, 42);
/// let a = synth.synthesize(0.5).unwrap();
/// let b = synth.synthesize(0.5).unwrap();
/// assert_eq!(a.len(), 8000);
/// assert_eq!(a, b); // same seed -> bit-identical
/// assert!(a.iter().all(|x| x.abs() <= 0.9 + 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct AmbienceSynthesizer {
    kind: AmbienceKind,
    fs: f64,
    seed: u64,
}

impl AmbienceSynthesizer {
    /// Creates a synthesizer of `kind` at sampling rate `fs` with random `seed`.
    pub fn new(kind: AmbienceKind, fs: f64, seed: u64) -> Self {
        AmbienceSynthesizer { kind, fs, seed }
    }

    /// The masker kind.
    pub fn kind(&self) -> AmbienceKind {
        self.kind
    }

    /// Synthesizes `duration_s` seconds of the masker, peak-normalized to 0.9.
    ///
    /// # Errors
    ///
    /// Returns [`RoadSimError::InvalidParameter`] if the sampling rate cannot
    /// support the synthesis filters (non-positive or non-finite `fs`).
    pub fn synthesize(&self, duration_s: f64) -> Result<Vec<f64>, RoadSimError> {
        let n = (duration_s * self.fs).max(0.0) as usize;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = match self.kind {
            AmbienceKind::Wind => self.wind(n)?,
            AmbienceKind::Rain => self.rain(n)?,
            AmbienceKind::RoadNoise => self.road_noise(n)?,
        };
        let peak = out.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if peak > 0.0 {
            let g = 0.9 / peak;
            for x in out.iter_mut() {
                *x *= g;
            }
        }
        Ok(out)
    }

    fn lowpass(&self, freq_hz: f64) -> Result<Biquad, RoadSimError> {
        Biquad::design(BiquadDesign::Lowpass { freq_hz, q: 0.707 }, self.fs).map_err(Into::into)
    }

    fn highpass(&self, freq_hz: f64) -> Result<Biquad, RoadSimError> {
        Biquad::design(BiquadDesign::Highpass { freq_hz, q: 0.707 }, self.fs).map_err(Into::into)
    }

    fn wind(&self, n: usize) -> Result<Vec<f64>, RoadSimError> {
        // Body: pink noise low-passed twice at 250 Hz (~24 dB/oct rolloff).
        let mut lp1 = self.lowpass(250.0)?;
        let mut lp2 = self.lowpass(250.0)?;
        let body = NoiseSource::new(NoiseKind::Pink, self.seed).take(n);
        // Gust envelope: a slow sine whose rate and phase derive from the seed.
        let mut lfo = NoiseSource::new(NoiseKind::White, self.seed ^ 0x57AB_11F0);
        let gust_rate = 0.2 + 0.2 * (lfo.next().unwrap_or(0.0) + 1.0); // 0.2-0.6 Hz
        let mut phase = (lfo.next().unwrap_or(0.0) + 1.0) * std::f64::consts::PI;
        let step = 2.0 * std::f64::consts::PI * gust_rate / self.fs;
        let out = body
            .map(|x| {
                let gust = 0.55 + 0.45 * phase.sin();
                phase += step;
                gust * lp2.process(lp1.process(x))
            })
            .collect();
        Ok(out)
    }

    fn rain(&self, n: usize) -> Result<Vec<f64>, RoadSimError> {
        // Drop impacts: white noise high-passed at 1 kHz.
        let mut hp = self.highpass(1000.0)?;
        let body = NoiseSource::new(NoiseKind::White, self.seed).take(n);
        // Light fast shimmer (4-7 Hz) mimicking uneven drop density.
        let mut lfo = NoiseSource::new(NoiseKind::White, self.seed ^ 0x4A1D_BEEF);
        let rate = 4.0 + 3.0 * (lfo.next().unwrap_or(0.0) + 1.0) * 0.5;
        let mut phase = (lfo.next().unwrap_or(0.0) + 1.0) * std::f64::consts::PI;
        let step = 2.0 * std::f64::consts::PI * rate / self.fs;
        let out = body
            .map(|x| {
                let shimmer = 0.85 + 0.15 * phase.sin();
                phase += step;
                shimmer * hp.process(x)
            })
            .collect();
        Ok(out)
    }

    fn road_noise(&self, n: usize) -> Result<Vec<f64>, RoadSimError> {
        // Rumble: brown noise low-passed at 300 Hz, plus a pink tyre-hiss band
        // (top clamped below Nyquist for low sampling rates).
        let mut rumble_lp = self.lowpass(300.0)?;
        let mut hiss_hp = self.highpass(500.0)?;
        let mut hiss_lp = self.lowpass(4000.0_f64.min(0.4 * self.fs))?;
        let mut rumble = NoiseSource::new(NoiseKind::Brown, self.seed);
        let mut hiss = NoiseSource::new(NoiseKind::Pink, self.seed ^ 0x7EA7_0AD5);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let r = rumble_lp.process(rumble.next().unwrap_or(0.0));
            let h = hiss_lp.process(hiss_hp.process(hiss.next().unwrap_or(0.0)));
            out.push(r + 0.3 * h);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_dsp::fft::Fft;

    const FS: f64 = 16_000.0;

    fn centroid_hz(x: &[f64]) -> f64 {
        let n = 4096;
        let spec = Fft::new(n).forward_real(&x[..n]).unwrap();
        let mut num = 0.0;
        let mut den = 0.0;
        for (k, c) in spec.iter().take(n / 2).enumerate() {
            num += k as f64 * c.norm_sqr();
            den += c.norm_sqr();
        }
        num / den * FS / n as f64
    }

    #[test]
    fn all_kinds_are_deterministic_per_seed() {
        for kind in [
            AmbienceKind::Wind,
            AmbienceKind::Rain,
            AmbienceKind::RoadNoise,
        ] {
            let a = AmbienceSynthesizer::new(kind, FS, 5)
                .synthesize(0.3)
                .unwrap();
            let b = AmbienceSynthesizer::new(kind, FS, 5)
                .synthesize(0.3)
                .unwrap();
            let c = AmbienceSynthesizer::new(kind, FS, 6)
                .synthesize(0.3)
                .unwrap();
            assert_eq!(a, b, "{} not deterministic", kind.label());
            assert_ne!(a, c, "{} ignores seed", kind.label());
            assert!(a.iter().all(|v| v.is_finite() && v.abs() <= 0.9 + 1e-12));
        }
    }

    #[test]
    fn spectral_shapes_match_the_models() {
        let synth = |k| AmbienceSynthesizer::new(k, FS, 11).synthesize(0.5).unwrap();
        let wind = centroid_hz(&synth(AmbienceKind::Wind));
        let road = centroid_hz(&synth(AmbienceKind::RoadNoise));
        let rain = centroid_hz(&synth(AmbienceKind::Rain));
        // Road noise is rumble-dominated (lowest), wind is low-passed pink,
        // rain is broadband high-frequency drop noise (highest by far).
        assert!(road < wind, "road centroid {road} >= wind {wind}");
        assert!(wind < 400.0, "wind centroid {wind} too high");
        assert!(rain > 1000.0, "rain centroid {rain} too low");
        assert!(rain > 4.0 * wind, "rain {rain} not well above wind {wind}");
    }

    #[test]
    fn zero_duration_is_empty_and_labels_are_stable() {
        let s = AmbienceSynthesizer::new(AmbienceKind::Wind, FS, 1);
        assert!(s.synthesize(0.0).unwrap().is_empty());
        assert_eq!(s.kind(), AmbienceKind::Wind);
        assert_eq!(AmbienceKind::Wind.label(), "wind");
        assert_eq!(AmbienceKind::Rain.label(), "rain");
        assert_eq!(AmbienceKind::RoadNoise.label(), "road-noise");
    }
}
