//! Signal generators: tones, sweeps, chirps and noise.
//!
//! These are the primitives from which the siren, horn and urban-noise synthesisers in
//! `ispot-sed` are assembled, and they drive the validation experiments for the road
//! simulator.

use std::f64::consts::PI;

/// An infinite sine-wave generator.
///
/// # Example
///
/// ```
/// use ispot_dsp::generator::Sine;
///
/// let samples: Vec<f64> = Sine::new(1000.0, 8000.0).take(8).collect();
/// assert!((samples[2] - 1.0).abs() < 1e-12); // quarter period of 1 kHz at 8 kHz
/// ```
#[derive(Debug, Clone)]
pub struct Sine {
    phase: f64,
    step: f64,
    amplitude: f64,
}

impl Sine {
    /// Creates a sine generator at `freq_hz` for sampling rate `fs`, unit amplitude.
    pub fn new(freq_hz: f64, fs: f64) -> Self {
        Sine {
            phase: 0.0,
            step: 2.0 * PI * freq_hz / fs,
            amplitude: 1.0,
        }
    }

    /// Sets the amplitude.
    pub fn with_amplitude(mut self, amplitude: f64) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Sets the initial phase in radians.
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }
}

impl Iterator for Sine {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let v = self.amplitude * self.phase.sin();
        self.phase += self.step;
        if self.phase > 2.0 * PI {
            self.phase -= 2.0 * PI;
        }
        Some(v)
    }
}

/// A linear frequency sweep between two frequencies over a fixed duration, repeating.
///
/// Used for the "wail" siren pattern.
#[derive(Debug, Clone)]
pub struct Sweep {
    f_start: f64,
    f_end: f64,
    period_samples: usize,
    fs: f64,
    index: usize,
    phase: f64,
}

impl Sweep {
    /// Creates a repeating sweep from `f_start` to `f_end` Hz with period `period_s`
    /// seconds at sampling rate `fs`.
    pub fn new(f_start: f64, f_end: f64, period_s: f64, fs: f64) -> Self {
        Sweep {
            f_start,
            f_end,
            period_samples: (period_s * fs).max(1.0) as usize,
            fs,
            index: 0,
            phase: 0.0,
        }
    }

    /// Returns the instantaneous frequency at the current position (triangular up-down
    /// profile so that the sweep is continuous when it repeats).
    pub fn instantaneous_frequency(&self) -> f64 {
        let pos = (self.index % self.period_samples) as f64 / self.period_samples as f64;
        let tri = if pos < 0.5 {
            2.0 * pos
        } else {
            2.0 * (1.0 - pos)
        };
        self.f_start + (self.f_end - self.f_start) * tri
    }
}

impl Iterator for Sweep {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let f = self.instantaneous_frequency();
        let v = self.phase.sin();
        self.phase += 2.0 * PI * f / self.fs;
        if self.phase > 2.0 * PI {
            self.phase -= 2.0 * PI;
        }
        self.index += 1;
        Some(v)
    }
}

/// A single linear chirp (non-repeating), from `f0` to `f1` over `duration_s`.
#[derive(Debug, Clone)]
pub struct Chirp {
    f0: f64,
    f1: f64,
    total: usize,
    fs: f64,
    index: usize,
    phase: f64,
}

impl Chirp {
    /// Creates a chirp from `f0` to `f1` Hz lasting `duration_s` seconds at rate `fs`.
    pub fn new(f0: f64, f1: f64, duration_s: f64, fs: f64) -> Self {
        Chirp {
            f0,
            f1,
            total: (duration_s * fs).max(1.0) as usize,
            fs,
            index: 0,
            phase: 0.0,
        }
    }
}

impl Iterator for Chirp {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.index >= self.total {
            return None;
        }
        let t = self.index as f64 / self.total as f64;
        let f = self.f0 + (self.f1 - self.f0) * t;
        let v = self.phase.sin();
        self.phase += 2.0 * PI * f / self.fs;
        self.index += 1;
        Some(v)
    }
}

/// The spectral shape of generated noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseKind {
    /// Flat spectrum.
    #[default]
    White,
    /// 1/f spectrum (Voss–McCartney style approximation).
    Pink,
    /// 1/f^2 spectrum (integrated white noise, leaky).
    Brown,
}

/// A deterministic pseudo-random noise source (xorshift64*, seeded).
///
/// The generator is deliberately self-contained so that dataset generation is exactly
/// reproducible across platforms.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    state: u64,
    kind: NoiseKind,
    // Pink-noise row state (Voss-McCartney).
    rows: [f64; 8],
    counter: u64,
    // Brown-noise integrator.
    brown: f64,
}

impl NoiseSource {
    /// Creates a noise source with the given `kind` and `seed`.
    pub fn new(kind: NoiseKind, seed: u64) -> Self {
        // Scramble the seed (splitmix64 step) so that small seeds still start the
        // xorshift sequence in a well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        NoiseSource {
            state: z.max(1),
            kind,
            rows: [0.0; 8],
            counter: 0,
            brown: 0.0,
        }
    }

    /// Returns the spectral kind of this source.
    pub fn kind(&self) -> NoiseKind {
        self.kind
    }

    fn next_uniform(&mut self) -> f64 {
        // xorshift64* — fast, good enough for audio noise.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Map the top 53 bits to [-1, 1).
        (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

impl Iterator for NoiseSource {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let v = match self.kind {
            NoiseKind::White => self.next_uniform(),
            NoiseKind::Pink => {
                // Voss–McCartney: update the row whose index is the number of trailing
                // zeros of the counter.
                let row = (self.counter.trailing_zeros() as usize).min(7);
                self.counter = self.counter.wrapping_add(1);
                self.rows[row] = self.next_uniform();
                self.rows.iter().sum::<f64>() / 8.0
            }
            NoiseKind::Brown => {
                let white = self.next_uniform();
                self.brown = 0.995 * self.brown + 0.1 * white;
                self.brown.clamp(-1.0, 1.0)
            }
        };
        Some(v)
    }
}

/// Generates `len` samples of silence.
pub fn silence(len: usize) -> Vec<f64> {
    vec![0.0; len]
}

/// Generates a unit impulse of length `len` (1 at index 0, 0 elsewhere).
pub fn impulse(len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    if len > 0 {
        v[0] = 1.0;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    #[test]
    fn sine_frequency_matches_request() {
        let fs = 8000.0;
        let f0 = 500.0;
        let x: Vec<f64> = Sine::new(f0, fs).take(1024).collect();
        let spec = Fft::new(1024).forward_real(&x).unwrap();
        let peak = spec
            .iter()
            .take(512)
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        assert_eq!(peak, (f0 / fs * 1024.0).round() as usize);
    }

    #[test]
    fn sine_amplitude_is_respected() {
        let x: Vec<f64> = Sine::new(100.0, 8000.0)
            .with_amplitude(0.25)
            .take(1000)
            .collect();
        let max = x.iter().cloned().fold(0.0f64, f64::max);
        assert!(max <= 0.25 + 1e-12);
        assert!(max > 0.24);
    }

    #[test]
    fn chirp_terminates_and_sweep_does_not() {
        let fs = 1000.0;
        let chirp: Vec<f64> = Chirp::new(10.0, 100.0, 0.5, fs).collect();
        assert_eq!(chirp.len(), 500);
        let sweep: Vec<f64> = Sweep::new(10.0, 100.0, 0.5, fs).take(2000).collect();
        assert_eq!(sweep.len(), 2000);
    }

    #[test]
    fn sweep_instantaneous_frequency_is_within_bounds() {
        let mut s = Sweep::new(600.0, 1400.0, 1.0, 8000.0);
        for _ in 0..16_000 {
            let f = s.instantaneous_frequency();
            assert!((600.0..=1400.0).contains(&f));
            s.next();
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let a: Vec<f64> = NoiseSource::new(NoiseKind::White, 42).take(64).collect();
        let b: Vec<f64> = NoiseSource::new(NoiseKind::White, 42).take(64).collect();
        let c: Vec<f64> = NoiseSource::new(NoiseKind::White, 43).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn white_noise_is_roughly_zero_mean_and_bounded() {
        let x: Vec<f64> = NoiseSource::new(NoiseKind::White, 7)
            .take(100_000)
            .collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 0.02);
        assert!(x.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn pink_noise_has_more_low_frequency_energy_than_white() {
        let n = 16_384;
        let fft = Fft::new(n);
        let energy_ratio = |kind: NoiseKind| -> f64 {
            let x: Vec<f64> = NoiseSource::new(kind, 11).take(n).collect();
            let spec = fft.forward_real(&x).unwrap();
            let low: f64 = spec[1..n / 32].iter().map(|c| c.norm_sqr()).sum();
            let high: f64 = spec[n / 4..n / 2].iter().map(|c| c.norm_sqr()).sum();
            low / high
        };
        assert!(energy_ratio(NoiseKind::Pink) > 4.0 * energy_ratio(NoiseKind::White));
    }

    #[test]
    fn impulse_and_silence_shapes() {
        assert_eq!(impulse(4), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(silence(3), vec![0.0; 3]);
        assert!(impulse(0).is_empty());
    }
}
