//! `ispot-serve` demo host: N concurrent siren streams over a fixed worker
//! pool, reporting throughput, latency quantiles and degrade activity.
//!
//! ```text
//! cargo run --release -p ispot-serve --example demo -- \
//!     [--sessions N] [--workers N] [--seconds S] [--chunk LEN] [--smoke] \
//!     [--metrics-port P] [--linger S]
//! ```
//!
//! The driver renders one multichannel siren scene with `ispot-roadsim`, opens
//! `--sessions` streams against a shared engine and pushes the recording
//! chunk-by-chunk into every stream as fast as the host accepts, honoring
//! backpressure (`Busy` chunks are retried on the next round, never dropped by
//! the driver). `--smoke` runs one short fixed workload for CI.
//!
//! With `--metrics-port P` the host additionally serves its observability
//! endpoint on `127.0.0.1:P` (`/metrics`, `/snapshot`, `/events`; port 0 binds
//! ephemerally and the bound address is printed). `--linger S` keeps the
//! process (and the endpoint) alive S extra seconds after the drive so
//! external scrapers can read the final state — the CI smoke step curls the
//! endpoint during this window.

use ispot_core::api::PipelineBuilder;
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use ispot_serve::prelude::*;
use std::time::{Duration, Instant};

/// Audio sample rate of the demo scene, Hz.
const SAMPLE_RATE: f64 = 16_000.0;

#[derive(Debug, Clone, Copy)]
struct Args {
    sessions: usize,
    workers: usize,
    seconds: f64,
    chunk: usize,
    smoke: bool,
    metrics_port: Option<u16>,
    linger: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 8,
            workers: 4,
            seconds: 2.0,
            chunk: 512,
            smoke: false,
            metrics_port: None,
            linger: 0.0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--chunk" => {
                args.chunk = value("--chunk")?
                    .parse()
                    .map_err(|e| format!("--chunk: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--metrics-port" => {
                args.metrics_port = Some(
                    value("--metrics-port")?
                        .parse()
                        .map_err(|e| format!("--metrics-port: {e}"))?,
                );
            }
            "--linger" => {
                args.linger = value("--linger")?
                    .parse()
                    .map_err(|e| format!("--linger: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.sessions = args.sessions.min(4);
        args.workers = args.workers.min(2);
        args.seconds = 0.5;
    }
    Ok(args)
}

/// One second of a wail siren driving past a 4-mic circular array.
fn siren_recording() -> ispot_roadsim::engine::MultichannelAudio {
    let array = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
    let siren = SirenSynthesizer::new(SirenKind::Wail, SAMPLE_RATE).synthesize(1.0);
    let scene = SceneBuilder::new(SAMPLE_RATE)
        .source(SoundSource::new(
            siren,
            Trajectory::linear(
                Position::new(-10.0, 8.0, 1.0),
                Position::new(10.0, 8.0, 1.0),
                20.0,
            ),
        ))
        .array(array)
        .reflection(false)
        .air_absorption(false)
        .build()
        .expect("valid demo scene");
    Simulator::new(scene)
        .expect("valid simulator")
        .run()
        .expect("demo simulation succeeds")
}

fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let audio = siren_recording();
    let array = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
    let engine = PipelineBuilder::new(SAMPLE_RATE)
        .array(&array)
        .build_engine()?;
    let host = SessionHost::new(
        engine,
        HostConfig {
            workers: args.workers,
            max_sessions: args.sessions,
            max_chunk_len: args.chunk,
            // The demo always traces: per-stage latency shows up in the
            // report and on /metrics.
            span_capacity: 256,
            ..HostConfig::default()
        },
    )?;
    let endpoint = match args.metrics_port {
        Some(port) => {
            let endpoint = host.serve_http(("127.0.0.1", port))?;
            println!("metrics endpoint on http://{}", endpoint.addr());
            Some(endpoint)
        }
        None => None,
    };

    let counter = CountingSink::new();
    let streams: Vec<StreamId> = (0..args.sessions)
        .map(|_| host.open_stream(counter.clone()))
        .collect::<Result<_, _>>()?;

    // Per-stream cursors into the recording; wrap around for long drives.
    let channels = audio.channels();
    let samples = channels.first().map_or(0, |c| c.len());
    let mut cursors = vec![0usize; streams.len()];
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let mut all_busy = true;
        for (stream, cursor) in streams.iter().zip(cursors.iter_mut()) {
            if *cursor + args.chunk > samples {
                *cursor = 0;
            }
            let views: Vec<&[f64]> = channels
                .iter()
                .map(|c| &c[*cursor..*cursor + args.chunk])
                .collect();
            match host.push_chunk(*stream, &views) {
                Ok(()) => {
                    *cursor += args.chunk;
                    all_busy = false;
                }
                Err(e) if e.is_transient() => {}
                Err(e) => return Err(Box::new(e)),
            }
        }
        if all_busy {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    host.wait_idle(Duration::from_secs(30));
    let wall = started.elapsed().as_secs_f64();
    let metrics = host.metrics();

    println!(
        "ispot-serve demo — {} sessions, {} workers, {:.1} s drive, {}-sample chunks",
        args.sessions, args.workers, wall, args.chunk
    );
    println!(
        "  chunks     in {}   busy {}   shed {}",
        metrics.chunks_in, metrics.chunks_busy, metrics.chunks_shed
    );
    println!(
        "  frames     {}   ({:.1}% with localization shed)   {:.0} frames/s aggregate",
        metrics.frames,
        100.0 * metrics.shed_rate(),
        metrics.frames as f64 / wall
    );
    println!(
        "  events     {}   (alerts {})",
        metrics.events,
        counter.alerts()
    );
    println!(
        "  latency    p50 {} ms   p99 {} ms   max {:.2} ms",
        fmt_ms(metrics.latency.p50_ms),
        fmt_ms(metrics.latency.p99_ms),
        metrics.latency.max_ms
    );
    for (stage, snap) in host.stage_latency() {
        println!(
            "  stage      {stage:<12} p50 {} ms   p99 {} ms   ({} spans)",
            fmt_ms(snap.p50_ms),
            fmt_ms(snap.p99_ms),
            snap.count
        );
    }
    println!(
        "  degrade    level {}   ({} sheds, {} restores)",
        metrics.degrade_level, metrics.sheds, metrics.restores
    );
    if args.linger > 0.0 && endpoint.is_some() {
        println!("lingering {:.1} s for scrapers...", args.linger);
        std::thread::sleep(Duration::from_secs_f64(args.linger));
    }
    for stream in streams {
        host.close_stream(stream)?;
    }
    drop(endpoint);
    if args.smoke && metrics.frames == 0 {
        return Err("smoke run processed no frames".into());
    }
    Ok(())
}

/// A conservative latency quantile for the report; `n/a` before any sample.
fn fmt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |ms| format!("{ms:.2}"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ispot-serve: {message}");
            std::process::exit(2);
        }
    };
    if let Err(error) = run(args) {
        eprintln!("ispot-serve: {error}");
        std::process::exit(1);
    }
}
