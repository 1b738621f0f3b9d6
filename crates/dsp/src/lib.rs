//! # ispot-dsp
//!
//! Digital signal processing substrate for the I-SPOT acoustic-perception stack.
//!
//! This crate provides every low-level building block used by the road-acoustics
//! simulator (`ispot-roadsim`), the feature extractors (`ispot-features`) and the
//! localization front-ends (`ispot-ssl`):
//!
//! * complex arithmetic ([`Complex`]) and fast Fourier transforms ([`fft`])
//! * short-time Fourier transform ([`stft`]) and analysis [`window`]s
//! * FIR ([`fir`]) and biquad ([`biquad`]) filters
//! * fractional, variable-length [`delay`] lines (the core of the Doppler model)
//! * [`interp`]olation
//! * signal [`generator`]s (tones, sweeps, noise) and [`level`] / SNR utilities
//! * a simple [`ring`] buffer and a chunk-to-frame [`framing`] assembler for
//!   streaming use
//! * the shared acoustic vocabulary of the simulator and the pipeline: 3-D
//!   [`geometry`], [`microphone`] array layouts and the multichannel [`audio`]
//!   buffer
//!
//! # Example
//!
//! ```
//! use ispot_dsp::{fft::Fft, window::Window, generator::Sine};
//!
//! # fn main() -> Result<(), ispot_dsp::DspError> {
//! // Generate a 440 Hz tone, window it and look at its spectrum.
//! let fs = 16_000.0;
//! let tone: Vec<f64> = Sine::new(440.0, fs).take(1024).collect();
//! let win = Window::hann(1024);
//! let frame = win.apply(&tone);
//! let spectrum = Fft::new(1024).forward_real(&frame)?;
//! let peak_bin = spectrum
//!     .iter()
//!     .take(512) // non-redundant half of the real-signal spectrum
//!     .enumerate()
//!     .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak_bin, (440.0 / fs * 1024.0).round() as usize);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod audio;
pub mod biquad;
pub mod complex;
pub mod delay;
pub mod error;
pub mod fft;
pub mod fir;
pub mod framing;
pub mod generator;
pub mod geometry;
pub mod interp;
pub mod level;
pub mod microphone;
pub mod ring;
pub mod sample;
pub mod simd;
pub mod stft;
pub mod window;

pub use complex::Complex;
pub use error::DspError;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::biquad::{Biquad, BiquadCascade, BiquadDesign};
    pub use crate::complex::Complex;
    pub use crate::delay::{DelayLine, InterpolationKind};
    pub use crate::error::DspError;
    pub use crate::fft::Fft;
    pub use crate::fir::{FirDesign, FirFilter};
    pub use crate::framing::FrameAssembler;
    pub use crate::generator::{Chirp, NoiseKind, NoiseSource, Sine, Sweep};
    pub use crate::interp::Interpolator;
    pub use crate::level::{db_to_linear, linear_to_db, mix_at_snr, rms, signal_power};
    pub use crate::ring::RingBuffer;
    pub use crate::sample::Sample;
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    pub use crate::simd::paired_dot_fma;
    pub use crate::simd::{fma_available, paired_dot, F32x8};
    pub use crate::stft::{Stft, StftBuilder, StftScratch};
    pub use crate::window::{Window, WindowKind};
}
