//! Urban / traffic background-noise synthesis.
//!
//! The paper's dataset mixes events with 2.5 hours of urban ambience and traffic noise;
//! this synthesiser produces a statistically similar background: low-frequency traffic
//! rumble (filtered brown/pink noise), broadband "passing car" swells and wind-like
//! gusts, all seeded and therefore reproducible.

use ispot_dsp::biquad::{Biquad, BiquadDesign};
use ispot_dsp::generator::{NoiseKind, NoiseSource};

/// Synthesises urban background-noise clips.
///
/// # Example
///
/// ```
/// use ispot_sed::noise::UrbanNoiseSynthesizer;
///
/// let noise = UrbanNoiseSynthesizer::new(16_000.0, 7).synthesize(0.5);
/// assert_eq!(noise.len(), 8000);
/// // Non-silent, bounded output.
/// assert!(noise.iter().any(|x| x.abs() > 0.01));
/// assert!(noise.iter().all(|x| x.abs() <= 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct UrbanNoiseSynthesizer {
    fs: f64,
    seed: u64,
    /// Relative level of the low-frequency traffic rumble.
    rumble_level: f64,
    /// Relative level of the broadband component.
    broadband_level: f64,
    /// Relative level of the slowly gusting wind-like component.
    wind_level: f64,
}

impl UrbanNoiseSynthesizer {
    /// Creates a synthesiser for sampling rate `fs` with the given random `seed`.
    pub fn new(fs: f64, seed: u64) -> Self {
        UrbanNoiseSynthesizer {
            fs,
            seed,
            rumble_level: 1.0,
            broadband_level: 0.35,
            wind_level: 0.5,
        }
    }

    /// Adjusts the mixture levels (rumble, broadband, wind).
    pub fn with_levels(mut self, rumble: f64, broadband: f64, wind: f64) -> Self {
        self.rumble_level = rumble.max(0.0);
        self.broadband_level = broadband.max(0.0);
        self.wind_level = wind.max(0.0);
        self
    }

    /// Synthesises `duration_s` seconds of background noise, peak-normalized to 0.9.
    pub fn synthesize(&self, duration_s: f64) -> Vec<f64> {
        let n = (duration_s * self.fs).max(0.0) as usize;
        if n == 0 {
            return Vec::new();
        }
        // Corner frequencies are clamped below Nyquist for low sampling rates;
        // from 10 kHz up none moves.
        let corner = |hz: f64| hz.min(0.4 * self.fs);
        // Traffic rumble: brown noise low-passed at 300 Hz.
        let mut rumble_lp = Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: corner(300.0),
                q: 0.707,
            },
            self.fs,
        )
        .expect("valid filter parameters");
        let rumble: Vec<f64> = NoiseSource::new(NoiseKind::Brown, self.seed)
            .take(n)
            .map(|x| rumble_lp.process(x))
            .collect();
        // Broadband tyre/asphalt hiss: pink noise band-passed 500-4000 Hz.
        let mut hiss_hp = Biquad::design(
            BiquadDesign::Highpass {
                freq_hz: corner(500.0),
                q: 0.707,
            },
            self.fs,
        )
        .expect("valid filter parameters");
        let mut hiss_lp = Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: corner(4000.0),
                q: 0.707,
            },
            self.fs,
        )
        .expect("valid filter parameters");
        let hiss: Vec<f64> = NoiseSource::new(NoiseKind::Pink, self.seed ^ 0xA5A5)
            .take(n)
            .map(|x| hiss_lp.process(hiss_hp.process(x)))
            .collect();
        // Wind gusts: pink noise with a slow (0.5 Hz-ish) amplitude modulation.
        let wind_raw: Vec<f64> = NoiseSource::new(NoiseKind::Pink, self.seed ^ 0x5A5A)
            .take(n)
            .collect();
        let mut lfo_noise = NoiseSource::new(NoiseKind::White, self.seed ^ 0x1234);
        let lfo_rate = 0.5;
        let mut lfo_phase = (lfo_noise.next().unwrap_or(0.0) + 1.0) * std::f64::consts::PI;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let gust = 0.5 + 0.5 * lfo_phase.sin();
            lfo_phase += 2.0 * std::f64::consts::PI * lfo_rate / self.fs;
            let sample = self.rumble_level * rumble[i]
                + self.broadband_level * hiss[i]
                + self.wind_level * gust * wind_raw[i];
            out.push(sample);
        }
        // Peak normalize.
        let peak = out.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if peak > 0.0 {
            let g = 0.9 / peak;
            for x in out.iter_mut() {
                *x *= g;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_dsp::fft::Fft;

    #[test]
    fn output_is_deterministic_per_seed() {
        let a = UrbanNoiseSynthesizer::new(16_000.0, 1).synthesize(0.25);
        let b = UrbanNoiseSynthesizer::new(16_000.0, 1).synthesize(0.25);
        let c = UrbanNoiseSynthesizer::new(16_000.0, 2).synthesize(0.25);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spectrum_is_low_frequency_dominated() {
        let fs = 16_000.0;
        let x = UrbanNoiseSynthesizer::new(fs, 3).synthesize(1.0);
        let n = 8192;
        let spec = Fft::new(n).forward_real(&x[..n]).unwrap();
        let low: f64 = spec[1..n / 32].iter().map(|c| c.norm_sqr()).sum();
        let high: f64 = spec[n / 4..n / 2].iter().map(|c| c.norm_sqr()).sum();
        assert!(low > 3.0 * high, "low {low} vs high {high}");
    }

    #[test]
    fn levels_change_the_character() {
        let fs = 16_000.0;
        let rumble_only = UrbanNoiseSynthesizer::new(fs, 4)
            .with_levels(1.0, 0.0, 0.0)
            .synthesize(0.5);
        let hiss_only = UrbanNoiseSynthesizer::new(fs, 4)
            .with_levels(0.0, 1.0, 0.0)
            .synthesize(0.5);
        let n = 4096;
        let fft = Fft::new(n);
        let centroid = |x: &[f64]| {
            let spec = fft.forward_real(&x[..n]).unwrap();
            let mut num = 0.0;
            let mut den = 0.0;
            for (k, c) in spec.iter().take(n / 2).enumerate() {
                num += k as f64 * c.norm_sqr();
                den += c.norm_sqr();
            }
            num / den
        };
        assert!(centroid(&hiss_only) > 2.0 * centroid(&rumble_only));
    }

    #[test]
    fn zero_duration_gives_empty_output() {
        assert!(UrbanNoiseSynthesizer::new(16_000.0, 1)
            .synthesize(0.0)
            .is_empty());
    }

    #[test]
    fn output_is_bounded_and_finite() {
        let x = UrbanNoiseSynthesizer::new(16_000.0, 9).synthesize(0.5);
        assert!(x.iter().all(|v| v.is_finite() && v.abs() <= 0.9 + 1e-12));
    }
}
