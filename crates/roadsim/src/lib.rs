//! # ispot-roadsim
//!
//! A road-acoustics simulator for automotive acoustic perception, reproducing (and
//! extending) the architecture of *pyroadacoustics* (Damiano & van Waterschoot, DAFx
//! 2022) described in Sec. IV-A and Figs. 2–3 of the I-SPOT paper.
//!
//! The simulator renders the sound emitted by **any number of omnidirectional
//! sources**, each moving along its own arbitrary trajectory, as received by an
//! arbitrary array of static omnidirectional microphones — a moving siren amid
//! traffic maskers, two crossing vehicles, a door slam between idling engines. Every
//! source–microphone pair is modelled by two propagation paths:
//!
//! * the **direct path**, implemented as a variable-length fractional delay line
//!   (producing the Doppler effect), a spherical-spreading gain and an air-absorption
//!   FIR filter;
//! * the **road-reflected path**, using the image source below the asphalt plane, an
//!   additional asphalt-reflection FIR filter, its own delay line, gain and air
//!   absorption.
//!
//! Sources render in parallel across threads (each with private delay lines, filters
//! and scratch) and are summed per microphone in source order, so the output is
//! deterministic and exactly linear in the sources: rendering two sources together
//! equals the sample-wise sum of rendering each alone.
//!
//! # Walkthrough: a siren pass-by with a traffic masker
//!
//! Build each emitter as a [`source::SoundSource`] (signal + trajectory + gain +
//! optional onset time), add them all to one [`scene::SceneBuilder`], then render:
//!
//! ```
//! use ispot_roadsim::prelude::*;
//!
//! # fn main() -> Result<(), ispot_roadsim::RoadSimError> {
//! let fs = 16_000.0;
//! // Source 1: a 440 Hz "siren" driving past the array at 20 m/s.
//! let siren: Vec<f64> = ispot_dsp::generator::Sine::new(440.0, fs).take(8000).collect();
//! let pass_by = Trajectory::linear(
//!     Position::new(-25.0, 5.0, 0.8),
//!     Position::new(25.0, 5.0, 0.8),
//!     20.0,
//! );
//! // Source 2: a quieter broadband masker idling on the opposite lane, starting
//! // a quarter second into the scene.
//! let masker: Vec<f64> =
//!     ispot_dsp::generator::NoiseSource::new(ispot_dsp::generator::NoiseKind::Pink, 7)
//!         .take(8000)
//!         .collect();
//! let scene = SceneBuilder::new(fs)
//!     .source(SoundSource::new(siren, pass_by))
//!     .source(
//!         SoundSource::new(masker, Trajectory::fixed(Position::new(8.0, -4.0, 0.7)))
//!             .with_gain(0.3)
//!             .with_start(0.25),
//!     )
//!     .array(MicrophoneArray::linear(4, 0.1, Position::new(0.0, 0.0, 1.0)))
//!     .build()?;
//! let output = Simulator::new(scene)?.run()?;
//! assert_eq!(output.num_channels(), 4);
//! // The masker starts 0.25 s in, so the scene lasts 0.5 s + 0.25 s.
//! assert_eq!(output.len(), 8000 + 4000);
//! # Ok(())
//! # }
//! ```
//!
//! The rendered [`engine::MultichannelAudio`] feeds straight into the perception
//! pipeline (`ispot-core`'s `Session::process_recording_with`), and
//! `ispot-bench`'s `scenarios` module wraps this crate in a gallery of named,
//! scored road scenes.
//!
//! [`geometry`], [`microphone`] and [`engine::MultichannelAudio`] are
//! re-exported from `ispot-dsp`, where the pipeline reads them too, so the
//! runtime crates share these types without compiling the simulator.

#![forbid(unsafe_code)]

pub mod ambience;
pub mod asphalt;
pub mod atmosphere;
pub mod attenuation;
pub mod doppler;
pub mod engine;
pub mod environment;
pub mod error;
pub mod scene;
pub mod source;
pub mod trajectory;

pub use error::RoadSimError;
pub use ispot_dsp::{geometry, microphone};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::ambience::{AmbienceKind, AmbienceSynthesizer};
    pub use crate::asphalt::AsphaltModel;
    pub use crate::atmosphere::Atmosphere;
    pub use crate::engine::{MultichannelAudio, Simulator};
    pub use crate::environment::{Occluder, StreetCanyon};
    pub use crate::error::RoadSimError;
    pub use crate::geometry::Position;
    pub use crate::microphone::MicrophoneArray;
    pub use crate::scene::{Scene, SceneBuilder};
    pub use crate::source::SoundSource;
    pub use crate::trajectory::Trajectory;
}
