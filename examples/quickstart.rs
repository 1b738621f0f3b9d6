//! Quickstart: simulate a siren passing a microphone array on a road and run the full
//! acoustic-perception pipeline on the rendered audio.
//!
//! Run with: `cargo run --release --example quickstart`

use ispot::core::prelude::*;
use ispot::roadsim::prelude::*;
use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
use std::sync::Arc;

/// Forwards every stage span into a shared ring, read back after the run.
struct RingObserver(Arc<SpanRing>);

impl StageObserver for RingObserver {
    fn on_span(&mut self, span: Span) {
        self.0.record(span);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = 16_000.0;

    // 1. Synthesize two seconds of a "wail" siren.
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);

    // 2. Describe the road scene: the emergency vehicle drives past the car at 15 m/s,
    //    6 m to the side; the car carries a 6-microphone roof array. The mics sit on
    //    an irregular hexagon (jittered angles/radii) — breaking the regular array's
    //    reflection symmetry suppresses the mirror lobes that would otherwise appear
    //    as phantom sources (see ARCHITECTURE.md, tracking subsystem).
    let trajectory = Trajectory::linear(
        Position::new(-30.0, 6.0, 0.8),
        Position::new(30.0, 6.0, 0.8),
        15.0,
    );
    let array = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.4));
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, trajectory))
        .array(array.clone())
        .reflection(true)
        .air_absorption(true)
        .build()?;

    // 3. Render the microphone signals (Doppler, spreading, asphalt reflection and air
    //    absorption are all applied by the simulator).
    let audio = Simulator::new(scene)?.run()?;
    println!(
        "rendered {} channels x {:.1} s of road audio",
        audio.num_channels(),
        audio.len() as f64 / fs
    );

    // 4. Build the perception engine (validated config, shared detector +
    //    steering state) and open a session for this stream.
    let engine = PipelineBuilder::new(fs).array(&array).build_engine()?;
    let mut session = engine.open_session();
    // Every executed stage reports a timing span; the ring keeps them all.
    let spans = Arc::new(SpanRing::new(4096));
    session.set_observer(Box::new(RingObserver(Arc::clone(&spans))));

    // 5. Stream the recording in capture-sized chunks (10 ms blocks at 16 kHz),
    //    sinking events by reference as they fire — the deployment shape of the
    //    API. A `VecSink` collects them; an `AlertCounter` would keep the path
    //    allocation-free.
    let mut sink = VecSink::new();
    let block = 160;
    let mut start = 0;
    while start < audio.len() {
        let end = (start + block).min(audio.len());
        let chunk: Vec<&[f64]> = audio.channels().iter().map(|c| &c[start..end]).collect();
        session.push_chunk_with(&chunk, &mut sink)?;
        start = end;
    }

    println!("\nperception events:");
    for event in sink.events().iter().filter(|e| e.is_alert()) {
        println!("  {}", event.summary());
    }
    println!(
        "\nlatency breakdown ({} frames):",
        session.frames_processed()
    );
    let mut recorded = Vec::new();
    spans.snapshot_into(&mut recorded);
    for stage in StageId::ALL {
        let ms: Vec<f64> = recorded
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration_ticks as f64 * 1e-6)
            .collect();
        if ms.is_empty() {
            continue;
        }
        println!(
            "  {:<14} mean {:.3} ms  max {:.3} ms  ({} calls)",
            stage.name(),
            ms.iter().sum::<f64>() / ms.len() as f64,
            ms.iter().copied().fold(0.0, f64::max),
            ms.len()
        );
    }
    Ok(())
}
