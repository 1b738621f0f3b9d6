//! # ispot-core
//!
//! The end-to-end real-time acoustic-perception pipeline of the I-SPOT project: the
//! system sketched in Fig. 1 of the paper, assembled from the substrate crates.
//!
//! The deployment-facing surface is the session/engine [`api`]: a
//! [`api::PipelineBuilder`] validates every parameter up front, builds an
//! [`api::Engine`] owning the shared immutable state (detector templates, the
//! precomputed SRP-PHAT steering operator, FFT plans — all behind `Arc`s), and
//! opens any number of independent [`api::Session`]s against it, one per
//! concurrent microphone stream. Each session chains:
//!
//! 1. a park-mode wake [`trigger`] (always-on, ultra-low-power energy detector),
//! 2. an emergency-sound detector (`ispot-sed`),
//! 3. the low-complexity SRP-PHAT localizer (`ispot-ssl`),
//! 4. an azimuth Kalman tracker,
//!
//! with per-stage timing spans (attach an [`ispot_obs::StageObserver`] with
//! [`api::Session::set_observer`]) and two operating [`mode`]s: the fully
//! functional low-latency **drive** mode and the trigger-based low-power **park**
//! mode (Sec. II, requirement 3 of the paper).
//!
//! Input enters in any capture-driver format ([`input::AudioInput`]: interleaved
//! or planar, `i16`/`f32`/`f64`), is de-interleaved and converted directly into
//! the frame assembler's window, and results leave **by reference** through an
//! [`sink::EventSink`] — in steady state the whole path from chunk ingestion to
//! event emission performs zero heap allocations. A `Vec<PerceptionEvent>` is
//! itself a sink, for experiments and quick scripts that collect every event.
//!
//! # Example
//!
//! ```
//! use ispot_core::prelude::*;
//! use ispot_roadsim::prelude::*;
//! use ispot_sed::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fs = 16_000.0;
//! // One second of a wail siren, with a quieter broadband masker on the other lane
//! // — scenes can hold any number of sources, each on its own trajectory.
//! let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.0);
//! let masker: Vec<f64> =
//!     ispot_dsp::generator::NoiseSource::new(ispot_dsp::generator::NoiseKind::Pink, 3)
//!         .take(16_000)
//!         .collect();
//! let scene = SceneBuilder::new(fs)
//!     .source(SoundSource::new(siren, Trajectory::fixed(Position::new(15.0, 10.0, 1.0))))
//!     .source(
//!         SoundSource::new(masker, Trajectory::fixed(Position::new(-8.0, -6.0, 0.8)))
//!             .with_gain(0.2),
//!     )
//!     .array(MicrophoneArray::circular(4, 0.15, Position::new(0.0, 0.0, 1.0)))
//!     .reflection(false)
//!     .air_absorption(false)
//!     .build()?;
//! let audio = Simulator::new(scene)?.run()?;
//! // Build the engine once, open a session per stream, sink events by reference.
//! let engine = PipelineBuilder::new(audio.sample_rate()).channels(4).build_engine()?;
//! let mut session = engine.open_session();
//! let mut alerts = AlertCounter::new();
//! session.process_recording_with(&audio, &mut alerts)?;
//! assert!(alerts.alerts > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod error;
pub mod events;
pub mod input;
pub mod mode;
pub mod pipeline;
pub mod sink;
pub mod stages;
pub mod trigger;

pub use error::PipelineError;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::api::{Engine, PipelineBuilder, Session};
    pub use crate::error::PipelineError;
    pub use crate::events::{PerceptionEvent, TrackList};
    pub use crate::input::AudioInput;
    pub use crate::mode::OperatingMode;
    pub use crate::pipeline::PipelineConfig;
    pub use crate::sink::{AlertCounter, EventSink, FnSink, LatestEvent, VecSink};
    pub use crate::stages::{FrameOutcome, ObsCtx, StageGraph};
    pub use crate::trigger::{EnergyTrigger, TriggerConfig};
    pub use ispot_obs::{Span, SpanRing, StageId, StageObserver, TickSource};
    pub use ispot_ssl::multitrack::{TrackId, TrackSnapshot, TrackStatus, TrackingConfig};
}
