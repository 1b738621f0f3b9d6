//! # ispot-ssl
//!
//! Sound source localization for automotive acoustic perception.
//!
//! This crate implements the localization stack evaluated in Sec. IV-B of the I-SPOT
//! paper:
//!
//! * a far-field steering model over an azimuth grid ([`steering`]);
//! * the **conventional SRP-PHAT** power map, computed by frequency-domain steering of
//!   PHAT-weighted cross-power spectra ([`srp_phat::SrpPhat`]) — the "hardware-
//!   unfriendly beamforming computation" the paper refers to;
//! * the **low-complexity SRP-PHAT** ([`srp_fast::SrpPhatFast`]) that samples each
//!   cross-correlation at integer lags (Nyquist-rate sampling of the bandlimited GCC,
//!   after Dietzen et al.) and steers through windowed-sinc interpolation taps
//!   precomputed at construction — mathematically equivalent up to
//!   bandlimited-interpolation error, with roughly 10× lower latency and half the
//!   stored coefficients. Both processors expose `compute_map_into` entry points
//!   that reuse a [`srp_phat::SrpScratch`] and an output map, so the per-frame hot
//!   path performs no heap allocation;
//! * a constant-velocity Kalman tracker for the azimuth trajectory ([`tracking`]);
//! * a **multi-target tracker** ([`multitrack`]) that turns the per-frame peak
//!   list of an SRP map ([`srp_phat::SrpMap::peaks_into`]) into stable-identity
//!   tracks by gated nearest-neighbour association, with an M-of-N confirmation
//!   and coasting lifecycle — the per-vehicle view multi-source road scenes need;
//! * angular-error metrics, including multi-source OSPA and track-identity
//!   scoring ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use ispot_ssl::prelude::*;
//! use ispot_roadsim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fs = 16_000.0;
//! // Simulate a static siren at 60 degrees azimuth, 20 m away.
//! let signal: Vec<f64> = ispot_dsp::generator::NoiseSource::new(
//!     ispot_dsp::generator::NoiseKind::White, 7).take(8192).collect();
//! let az = 60.0_f64.to_radians();
//! let source_pos = Position::new(20.0 * az.cos(), 20.0 * az.sin(), 1.0);
//! let array = MicrophoneArray::circular(6, 0.2, Position::new(0.0, 0.0, 1.0));
//! let scene = SceneBuilder::new(fs)
//!     .source(SoundSource::new(signal, Trajectory::fixed(source_pos)))
//!     .array(array.clone())
//!     .reflection(false)
//!     .air_absorption(false)
//!     .build()?;
//! let audio = Simulator::new(scene)?.run()?;
//! let srp = SrpPhat::new(SrpConfig::default(), &array, fs)?;
//! let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();
//! let estimate = srp.localize(&frame)?;
//! let error = ispot_ssl::metrics::angular_error_deg(estimate.azimuth_deg(), 60.0);
//! assert!(error < 10.0, "azimuth error {error}");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod metrics;
pub mod multitrack;
pub mod srp_fast;
mod srp_kernels;
pub mod srp_phat;
pub mod steering;
pub mod tracking;

pub use error::SslError;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::SslError;
    pub use crate::metrics::{angular_error_deg, mean_angular_error_deg};
    pub use crate::multitrack::{
        MultiTargetTracker, TrackId, TrackSnapshot, TrackStatus, TrackingConfig,
    };
    pub use crate::srp_fast::SrpPhatFast;
    pub use crate::srp_phat::{DoaEstimate, Peak, SrpConfig, SrpMap, SrpPhat, SrpScratch};
    pub use crate::steering::SteeringGrid;
    pub use crate::tracking::AzimuthKalmanTracker;
}
