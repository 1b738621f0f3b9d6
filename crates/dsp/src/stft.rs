//! Short-time Fourier transform (STFT) analysis.
//!
//! The STFT is the front door of the feature extractors in `ispot-features`
//! (spectrograms and the mel features built on them).

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::Fft;
use crate::window::{Window, WindowKind};

/// Builder for [`Stft`] analysis configurations.
///
/// # Example
///
/// ```
/// use ispot_dsp::stft::StftBuilder;
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// let stft = StftBuilder::new(512).hop(256).build()?;
/// let signal = vec![0.0; 2048];
/// let frames = stft.process(&signal);
/// assert_eq!(frames.num_frames(), 7);
/// assert_eq!(frames.num_bins(), 257);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StftBuilder {
    frame_len: usize,
    hop: usize,
    fft_size: usize,
    window: WindowKind,
}

impl StftBuilder {
    /// Starts a builder for frames of `frame_len` samples (hop defaults to half the
    /// frame, FFT size to the frame length, window to Hann).
    pub fn new(frame_len: usize) -> Self {
        StftBuilder {
            frame_len,
            hop: frame_len / 2,
            fft_size: frame_len,
            window: WindowKind::Hann,
        }
    }

    /// Sets the hop size in samples.
    pub fn hop(mut self, hop: usize) -> Self {
        self.hop = hop;
        self
    }

    /// Sets the FFT size (zero-padded if larger than the frame).
    pub fn fft_size(mut self, fft_size: usize) -> Self {
        self.fft_size = fft_size;
        self
    }

    /// Sets the analysis window kind.
    pub fn window(mut self, window: WindowKind) -> Self {
        self.window = window;
        self
    }

    /// Builds the [`Stft`] analyser.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame length or hop is zero, or the FFT size is smaller
    /// than the frame length.
    pub fn build(self) -> Result<Stft, DspError> {
        if self.frame_len == 0 {
            return Err(DspError::InvalidSize {
                name: "frame_len",
                value: 0,
                constraint: "must be positive",
            });
        }
        if self.hop == 0 {
            return Err(DspError::InvalidSize {
                name: "hop",
                value: 0,
                constraint: "must be positive",
            });
        }
        if self.fft_size < self.frame_len {
            return Err(DspError::InvalidSize {
                name: "fft_size",
                value: self.fft_size,
                constraint: "must be at least the frame length",
            });
        }
        Ok(Stft {
            frame_len: self.frame_len,
            hop: self.hop,
            fft: Fft::new(self.fft_size),
            window: Window::new(self.window, self.frame_len),
        })
    }
}

/// An STFT analyser with a fixed frame length, hop and window.
#[derive(Debug, Clone)]
pub struct Stft {
    frame_len: usize,
    hop: usize,
    fft: Fft,
    window: Window,
}

impl Stft {
    /// Returns the analysis frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Returns the hop size in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Returns the FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft.len()
    }

    /// Returns the number of non-redundant frequency bins (`fft_size/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.fft.len() / 2 + 1
    }

    /// Returns the number of frames produced for a signal of `len` samples.
    pub fn frames_for(&self, len: usize) -> usize {
        if len < self.frame_len {
            0
        } else {
            (len - self.frame_len) / self.hop + 1
        }
    }

    /// Computes the complex STFT of `signal`.
    ///
    /// Frames that would run past the end of the signal are dropped (no padding), so a
    /// signal shorter than one frame produces zero frames.
    pub fn process(&self, signal: &[f64]) -> Spectrogram {
        let n_frames = self.frames_for(signal.len());
        let n_bins = self.num_bins();
        let mut data = Vec::with_capacity(n_frames * n_bins);
        let mut scratch = self.make_scratch();
        for f in 0..n_frames {
            let start = f * self.hop;
            let frame = &signal[start..start + self.frame_len];
            let spec = self
                .frame_spectrum_into(frame, &mut scratch)
                .expect("frame length bounded by frames_for");
            data.extend_from_slice(spec);
        }
        Spectrogram {
            data,
            num_frames: n_frames,
            num_bins: n_bins,
            hop: self.hop,
            fft_size: self.fft.len(),
        }
    }

    /// Creates a scratch pre-sized for this analyser, so even the first
    /// [`Stft::frame_spectrum_into`] call allocates nothing.
    pub fn make_scratch(&self) -> StftScratch {
        StftScratch {
            padded: vec![0.0; self.fft.len()],
            spec: vec![Complex::ZERO; self.fft.len()],
        }
    }

    /// Computes the windowed spectrum of **one** exactly-`frame_len` frame,
    /// returning the `num_bins` non-redundant bins borrowed from `scratch`.
    ///
    /// This is the streaming sibling of [`Stft::process`]: identical numerics
    /// (window, zero-padding, FFT), but the workspace lives in a caller-owned
    /// [`StftScratch`], so repeated calls perform no heap allocation in steady
    /// state (for power-of-two FFT sizes).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `frame.len() != self.frame_len()`.
    pub fn frame_spectrum_into<'s>(
        &self,
        frame: &[f64],
        scratch: &'s mut StftScratch,
    ) -> Result<&'s [Complex], DspError> {
        if frame.len() != self.frame_len {
            return Err(DspError::LengthMismatch {
                expected: self.frame_len,
                actual: frame.len(),
            });
        }
        scratch.padded.resize(self.fft.len(), 0.0);
        scratch.spec.resize(self.fft.len(), Complex::ZERO);
        for ((slot, &x), &w) in scratch
            .padded
            .iter_mut()
            .zip(frame)
            .zip(self.window.coefficients())
        {
            *slot = x * w;
        }
        for p in scratch.padded[self.frame_len..].iter_mut() {
            *p = 0.0;
        }
        self.fft
            .forward_real_into(&scratch.padded, &mut scratch.spec)?;
        Ok(&scratch.spec[..self.num_bins()])
    }
}

/// Reusable workspace for [`Stft::frame_spectrum_into`].
///
/// Buffers are sized lazily on first use (or pre-sized by [`Stft::make_scratch`])
/// and reused afterwards; one scratch serves one analyser at a time.
#[derive(Debug, Clone, Default)]
pub struct StftScratch {
    /// Windowed, zero-padded frame (`fft_size` samples).
    padded: Vec<f64>,
    /// Full complex spectrum workspace (`fft_size` bins).
    spec: Vec<Complex>,
}

impl StftScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        StftScratch::default()
    }
}

/// A complex time–frequency representation produced by [`Stft::process`].
#[derive(Debug, Clone)]
pub struct Spectrogram {
    data: Vec<Complex>,
    num_frames: usize,
    num_bins: usize,
    hop: usize,
    fft_size: usize,
}

impl Spectrogram {
    /// Returns the number of analysis frames.
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// Returns the number of frequency bins per frame.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Returns the hop size used by the analysis.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Returns the FFT size used by the analysis.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Returns the complex spectrum of frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= self.num_frames()`.
    pub fn frame(&self, frame: usize) -> &[Complex] {
        assert!(frame < self.num_frames, "frame index out of range");
        &self.data[frame * self.num_bins..(frame + 1) * self.num_bins]
    }

    /// Iterates over frames in time order.
    pub fn iter_frames(&self) -> impl Iterator<Item = &[Complex]> {
        (0..self.num_frames).map(move |f| self.frame(f))
    }

    /// Returns the power spectrogram (`|X|^2`) as a row-major `frames x bins` matrix.
    pub fn power(&self) -> Vec<Vec<f64>> {
        self.iter_frames()
            .map(|fr| fr.iter().map(|c| c.norm_sqr()).collect())
            .collect()
    }

    /// Returns the magnitude spectrogram as a row-major `frames x bins` matrix.
    pub fn magnitude(&self) -> Vec<Vec<f64>> {
        self.iter_frames()
            .map(|fr| fr.iter().map(|c| c.norm()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Sine;
    use std::f64::consts::PI;

    #[test]
    fn frame_spectrum_into_matches_process() {
        let fs = 16_000.0;
        let x: Vec<f64> = Sine::new(740.0, fs).take(2048).collect();
        let stft = StftBuilder::new(512)
            .hop(256)
            .fft_size(1024)
            .build()
            .unwrap();
        let spec = stft.process(&x);
        let mut scratch = StftScratch::new();
        for f in 0..spec.num_frames() {
            let frame = &x[f * 256..f * 256 + 512];
            let bins = stft.frame_spectrum_into(frame, &mut scratch).unwrap();
            assert_eq!(bins, spec.frame(f), "frame {f}");
        }
        assert!(stft.frame_spectrum_into(&x[..100], &mut scratch).is_err());
    }

    #[test]
    fn frame_count_matches_formula() {
        let stft = StftBuilder::new(256).hop(128).build().unwrap();
        assert_eq!(stft.frames_for(256), 1);
        assert_eq!(stft.frames_for(255), 0);
        assert_eq!(stft.frames_for(512), 3);
        let spec = stft.process(&vec![0.0; 512]);
        assert_eq!(spec.num_frames(), 3);
    }

    #[test]
    fn stationary_tone_peaks_at_same_bin_in_every_frame() {
        let fs = 16_000.0;
        let f0 = 1250.0;
        let x: Vec<f64> = Sine::new(f0, fs).take(4096).collect();
        let stft = StftBuilder::new(512).hop(256).build().unwrap();
        let spec = stft.process(&x);
        let expected_bin = (f0 / fs * 512.0).round() as usize;
        for frame in spec.iter_frames() {
            let peak = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
                .unwrap()
                .0;
            assert_eq!(peak, expected_bin);
        }
    }

    #[test]
    fn chirp_peak_bin_moves_up_over_time() {
        let fs = 16_000.0;
        let n = 16_000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                // 200 Hz -> 4000 Hz over 1 s.
                let f = 200.0 + 3800.0 * t;
                (2.0 * PI * (200.0 * t + 0.5 * 3800.0 * t * t)).sin() * (f / f).max(1.0)
            })
            .collect();
        let stft = StftBuilder::new(1024).hop(512).build().unwrap();
        let spec = stft.process(&x);
        let peak_of = |f: usize| {
            spec.frame(f)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
                .unwrap()
                .0
        };
        assert!(peak_of(spec.num_frames() - 2) > peak_of(1) + 20);
    }

    #[test]
    fn zero_padding_increases_bin_count() {
        let stft = StftBuilder::new(256).fft_size(1024).build().unwrap();
        assert_eq!(stft.num_bins(), 513);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(StftBuilder::new(0).build().is_err());
        assert!(StftBuilder::new(256).hop(0).build().is_err());
        assert!(StftBuilder::new(256).fft_size(128).build().is_err());
    }

    #[test]
    fn power_matches_magnitude_squared() {
        let x: Vec<f64> = Sine::new(440.0, 8000.0).take(1024).collect();
        let spec = StftBuilder::new(256).build().unwrap().process(&x);
        let p = spec.power();
        let m = spec.magnitude();
        for (pr, mr) in p.iter().zip(&m) {
            for (a, b) in pr.iter().zip(mr) {
                assert!((a - b * b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn short_signal_produces_no_frames() {
        let stft = StftBuilder::new(512).build().unwrap();
        let spec = stft.process(&[0.0; 100]);
        assert_eq!(spec.num_frames(), 0);
    }
}
