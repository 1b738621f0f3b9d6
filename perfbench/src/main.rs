//! `ispot-perfbench` — the paced real-time host benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drive-events|drive-ambient|park-idle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One `ispot-serve` `SessionHost` is driven open-loop at the real 16 kHz
//! chunk rate: every stream submits one 512-sample chunk every 32 ms of wall
//! time, from one generator thread that never retries a refused chunk. The
//! seed renders the clip pool and draws each stream's clip and start. After
//! the drive, a sample of streams is replayed through a bare `Session` and
//! the hosted event sequences must match it bit for bit.
//!
//! With `--trace 0` the last line of standard output is the JSON result with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! from the same hosted pass plus a timed bare-session replay (pass 1) and a
//! replay through the layers' public entry points (pass 2). `README.md`
//! beside this package defines every metric, the operation and its failures.
//! The process exits non-zero when an output check fails.

mod clips;
mod hosted;
mod replay;
mod stats;

use clips::{Inputs, PoolKind, CHUNK, SAMPLE_RATE};
use hosted::{BenchResult, Drive, LogSlot, Mark, RecordingSink, Schedule, StreamLog};
use ispot_core::mode::OperatingMode;
use ispot_core::pipeline::PipelineConfig;
use replay::{LayerTimes, Layers, Pass1};
use stats::{mean, median, percentile, tail_percentile, Framing};
use std::time::{Duration, Instant};

/// Traffic before the measured window opens: every session's lazy set-up
/// and the first pass through every ingestion ring happen here.
const WARMUP: Duration = Duration::from_secs(1);

/// Set-ups timed per `--trace 0` run; `setup_s` is their median.
const SETUP_RUNS: usize = 9;

/// Bytes per reported megabyte.
const MB: f64 = 1024.0 * 1024.0;

/// Largest share of the machine's CPU time the hypervisor may steal in a
/// second that still counts towards the per-second medians.
const MAX_STEAL: f64 = 0.02;

/// Fewest clean seconds the medians are taken over; below it, every second
/// counts.
const MIN_CLEAN_SECONDS: usize = 3;

/// One traffic mix.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    mode: OperatingMode,
    pool: PoolKind,
    /// Fixed stream count: chosen once so that the whole process uses about
    /// 40 % of one core at the commit that introduced the benchmark, a load
    /// at which the latency percentiles repeat.
    streams: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "drive-events",
        mode: OperatingMode::Drive,
        pool: PoolKind::Events,
        streams: 40,
    },
    Workload {
        name: "drive-ambient",
        mode: OperatingMode::Drive,
        pool: PoolKind::Ambient,
        streams: 90,
    },
    Workload {
        name: "park-idle",
        mode: OperatingMode::Park,
        pool: PoolKind::Quiet,
        streams: 200,
    },
];

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric with its unit.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The hosted pass judged against the operation definition: one operation
/// is one frame the offered audio of the measured window should produce,
/// and it fails unless delivered at full fidelity within one hop of its due
/// time.
#[derive(Debug, Default)]
struct Score {
    /// Latency of every delivered frame of the window, ms, ascending.
    latencies_ms: Vec<f64>,
    /// The same latencies split by the second of the window their frame
    /// was due in, each ascending.
    seconds: Vec<Vec<f64>>,
    /// Frames the offered audio of the window should produce.
    attempted: u64,
    /// Frames of the window never delivered (refused chunks, errors).
    lost: u64,
    /// Frames delivered more than one hop after their due time.
    late: u64,
    /// Frames delivered in the window.
    delivered: u64,
    /// Frames delivered over the whole drive.
    frames: u64,
    /// Of those, frames the trigger did not gate.
    analyzed: u64,
    /// Of those, frames with a detection.
    detections: u64,
    /// A sink ran out of preallocated storage.
    overflow: bool,
}

impl Score {
    fn new(logs: &[StreamLog], drive: &Drive, schedule: &Schedule, framing: Framing) -> Score {
        let hop_ns = framing.hop as f64 / SAMPLE_RATE * 1e9;
        let expected = (framing.frames_for(schedule.chunks)
            - framing.frames_for(schedule.warmup_chunks)) as u64;
        let window_start_ns = drive.start_ns + schedule.due_ns(0, schedule.warmup_chunks);
        let window_ns = (schedule.chunks - schedule.warmup_chunks) as u64 * schedule.period_ns;
        let mut score = Score {
            seconds: vec![Vec::new(); (window_ns / 1_000_000_000).max(1) as usize],
            ..Score::default()
        };
        for (s, log) in logs.iter().enumerate() {
            let accepted = &drive.accepted[s];
            let mut delivered = 0;
            for (k, &done_ns) in log.delivered_ns.iter().enumerate() {
                let Some(&j) = accepted.get(framing.completing_chunk(k)) else {
                    continue;
                };
                if (j as usize) < schedule.warmup_chunks {
                    continue;
                }
                let due_ns = drive.start_ns + schedule.due_ns(s, j as usize);
                let latency_ns = done_ns.saturating_sub(due_ns) as f64;
                score.latencies_ms.push(latency_ns / 1e6);
                let second = ((due_ns - window_start_ns) / 1_000_000_000) as usize;
                let last = score.seconds.len() - 1;
                score.seconds[second.min(last)].push(latency_ns / 1e6);
                score.late += u64::from(latency_ns > hop_ns);
                delivered += 1;
            }
            score.attempted += expected;
            score.lost += expected.saturating_sub(delivered);
            score.delivered += delivered;
            score.frames += log.delivered_ns.len() as u64;
            score.analyzed += log.analyzed;
            score.detections += log.detections;
            score.overflow |= log.overflow;
        }
        score.latencies_ms.sort_by(f64::total_cmp);
        for second in &mut score.seconds {
            second.sort_by(f64::total_cmp);
        }
        score
    }

    /// Percentile `p` of each second of the window, ms.
    fn per_second(&self, p: f64) -> Vec<f64> {
        self.seconds.iter().map(|second| pct(second, p)).collect()
    }
}

/// The value of percentile `pct` of `sorted`, 0 when empty.
fn pct(sorted: &[f64], pct: f64) -> f64 {
    percentile(sorted, pct).map_or(0.0, |q| q.value)
}

/// `values` sorted ascending.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One sink per stream, keeping events for the `sample` streams.
fn make_sinks(
    streams: usize,
    frames: usize,
    sample: &[usize],
    origin: Instant,
) -> (Vec<RecordingSink>, Vec<LogSlot>) {
    (0..streams)
        .map(|s| RecordingSink::new(origin, frames, sample.contains(&s)))
        .unzip()
}

fn run(args: &Args) -> BenchResult<Report> {
    let w = args.workload;
    let rendering = Instant::now();
    let inputs = Inputs::generate(w.pool, w.streams, args.seed)?;
    let labels: Vec<&str> = inputs.clips.iter().map(|c| c.label.as_str()).collect();
    println!(
        "workload {}  mode {}  streams {}  seed {}  seconds {}  trace {}",
        w.name,
        w.mode,
        w.streams,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "inputs   fingerprint {:016x}  {} clips in {:.1} s: {}",
        inputs.fingerprint,
        labels.len(),
        rendering.elapsed().as_secs_f64(),
        labels.join(" ")
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fft_us = replay::reference_kernel_us()?;

    // The hosted pass.
    let schedule = Schedule::new(w.streams, WARMUP, Duration::from_secs_f64(args.seconds));
    let sample = inputs.sample_streams();
    let frames_bound = schedule.chunks * CHUNK / PipelineConfig::default().hop + 2;
    let origin = Instant::now();
    let (sinks, slots) = make_sinks(w.streams, frames_bound, &sample, origin);
    let rss_before = hosted::memory("VmRSS")?;
    let hosted = hosted::set_up(w.mode, sinks)?;
    let mut setups = vec![hosted.setup.as_secs_f64()];
    let config = hosted.host.engine().config();
    let framing = Framing {
        frame_len: config.frame_len,
        hop: config.hop,
        chunk: CHUNK,
    };
    let drive = hosted::drive(&hosted.host, &hosted.ids, &inputs, &schedule, origin)?;
    // Every stream is still open here and the host frees nothing while it
    // runs, so this is the host's peak. `VmHWM` would instead keep the
    // earlier peak of clip rendering.
    let rss_mb = hosted::memory("VmRSS")?.saturating_sub(rss_before) as f64 / MB;
    let host_metrics = hosted.host.metrics();
    hosted.tear_down()?;
    let logs: Vec<StreamLog> = slots
        .iter()
        .map(|slot| {
            slot.lock()
                .ok()
                .and_then(|mut log| log.take())
                .unwrap_or_default()
        })
        .collect();
    let score = Score::new(&logs, &drive, &schedule, framing);

    // The output check: pass 1 on the sample, against the hosted events; the
    // traced run adds pass 2 in the same replay.
    let engine = hosted::build_engine(w.mode)?;
    let layers = if args.trace {
        Some(Layers::build(config)?)
    } else {
        None
    };
    let streams: Vec<(usize, &[u32])> = sample
        .iter()
        .map(|&s| (s, drive.accepted[s].as_slice()))
        .collect();
    let mut times = LayerTimes::default();
    let passes = replay::replay(&engine, layers.as_ref(), &inputs, &streams, &mut times)?;
    let pass1: Vec<(usize, Pass1)> = sample.iter().copied().zip(passes).collect();
    let mismatched: Vec<usize> = pass1
        .iter()
        .filter(|(s, replayed)| {
            replayed.events != logs[*s].events
                || replayed.outcomes.len() != logs[*s].delivered_ns.len()
        })
        .map(|(s, _)| *s)
        .collect();

    // Real-time capacity: stream-seconds served per host CPU-second, over
    // the whole window and for each second of it.
    let (first, last) = (drive.marks[0], drive.marks[drive.marks.len() - 1]);
    let window_s = last.at.duration_since(first.at).as_secs_f64();
    let capacity = |from: &Mark, to: &Mark| {
        let stream_seconds = (to.accepted - from.accepted) as f64 * CHUNK as f64 / SAMPLE_RATE;
        stream_seconds / (to.host_cpu_ns_since(from) / 1e9).max(f64::MIN_POSITIVE)
    };
    let per_second_capacity: Vec<f64> = drive
        .marks
        .windows(2)
        .map(|pair| capacity(&pair[0], &pair[1]))
        .collect();
    let host_cpu_ns = last.host_cpu_ns_since(&first);
    let worker_cpu_ns = last
        .proc
        .worker_cpu_ns
        .saturating_sub(first.proc.worker_cpu_ns) as f64;
    let process_cpu_ns = last
        .proc
        .process_cpu_ns
        .saturating_sub(first.proc.process_cpu_ns) as f64;
    let failed = score
        .attempted
        .min(score.lost + score.late + host_metrics.shed_frames);
    let correct = mismatched.is_empty() && host_metrics.errors == 0 && !score.overflow;

    // A second in which the hypervisor gave much of the machine's CPU time
    // to other tenants stalls the generator and the worker for reasons
    // outside the program. The per-second medians leave such seconds out
    // while at least MIN_CLEAN_SECONDS others remain.
    let steal_by_second: Vec<f64> = drive
        .marks
        .windows(2)
        .map(|pair| pair[1].steal_since(&pair[0]))
        .collect();
    let clean: Vec<bool> = steal_by_second.iter().map(|&s| s <= MAX_STEAL).collect();
    let clean_seconds = clean.iter().filter(|&&c| c).count();
    let keep_all = clean_seconds < MIN_CLEAN_SECONDS;
    let kept = |values: &[f64]| -> Vec<f64> {
        values
            .iter()
            .zip(&clean)
            .filter(|&(_, &c)| c || keep_all)
            .map(|(v, _)| *v)
            .collect()
    };

    let latencies = &score.latencies_ms;
    let lateness_us = sorted(drive.lateness_ns.iter().map(|ns| ns / 1e3).collect());
    println!(
        "health   {cores} cores, {} host worker(s); fft2048 pair reference {fft_us:.3} us; \
         generator lateness p50 {:.1} us p99 {:.1} us (n={}); cpu steal {:.2} %, \
         {} of {} seconds above {:.0} %{}",
        hosted::worker_count(),
        pct(&lateness_us, 50.0),
        pct(&lateness_us, 99.0),
        lateness_us.len(),
        100.0 * last.steal_since(&first),
        clean.len() - clean_seconds,
        clean.len(),
        100.0 * MAX_STEAL,
        if keep_all {
            " (too few clean seconds: all kept)"
        } else {
            ""
        }
    );
    for p in [50.0, 90.0, 99.0] {
        if let Some(q) = percentile(latencies, p) {
            println!(
                "latency  p{p} {:.4} ms ({} of {} frames beyond)",
                q.value, q.beyond, q.samples
            );
        }
    }
    let (p50s, p90s) = (score.per_second(50.0), score.per_second(90.0));
    let list = |v: &[f64]| {
        v.iter()
            .map(|ms| format!("{ms:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("latency  p50 by second: {}", list(&p50s));
    println!("latency  p90 by second: {}", list(&p90s));
    let steal_pct: Vec<f64> = steal_by_second.iter().map(|s| 100.0 * s).collect();
    println!("health   cpu steal % by second: {}", list(&steal_pct));
    if let Some(q) = tail_percentile(latencies, 10) {
        println!(
            "latency  tail p{} {:.4} ms ({} of {} frames beyond)",
            q.pct, q.value, q.beyond, q.samples
        );
    }
    println!(
        "ops      attempted {} failed {} (lost {} late {} shed {}); refused chunks {}; \
         pipeline errors {}",
        score.attempted,
        failed,
        score.lost,
        score.late,
        host_metrics.shed_frames,
        drive.refused,
        host_metrics.errors
    );
    println!(
        "cpu      process {:.1} % of one core; host {:.3} ms per stream-second over {:.2} s",
        100.0 * process_cpu_ns / 1e9 / window_s,
        1e3 / capacity(&first, &last),
        window_s
    );
    println!(
        "cpu      streams per core by second: {}",
        per_second_capacity
            .iter()
            .map(|c| format!("{c:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let localized = if w.mode.localization_enabled() {
        score.detections
    } else {
        0
    };
    let share = |n: u64| n as f64 / score.frames.max(1) as f64;
    println!(
        "mix      frames {}  analyzed {} ({:.4})  localized {} ({:.4})  events {}",
        score.frames,
        score.analyzed,
        share(score.analyzed),
        localized,
        share(localized),
        host_metrics.events
    );
    for (s, replayed) in &pass1 {
        let frames = replayed.outcomes.len().max(1) as f64;
        let analyzed = replayed
            .outcomes
            .iter()
            .filter(|o| !matches!(o, ispot_core::stages::FrameOutcome::Gated))
            .count();
        println!(
            "clip     {:<18} stream {s:>3}: analyzed {:.3} detected {:.3} of {} frames",
            inputs.clips[inputs.plans[*s].clip].label,
            analyzed as f64 / frames,
            replayed.events.len() as f64 / frames,
            replayed.outcomes.len()
        );
    }
    if mismatched.is_empty() {
        println!(
            "check    {} sampled streams: hosted events equal the bare-session replay",
            sample.len()
        );
    } else {
        println!("check    FAILED: hosted events differ from the bare-session replay on streams {mismatched:?}");
    }
    if score.overflow {
        println!("check    FAILED: a sink ran out of preallocated storage");
    }

    let metrics = if args.trace {
        layer_metrics(&LayerInputs {
            times: &times,
            drive: &drive,
            pass1: &pass1,
            score: &score,
            host_cpu_ns,
            worker_cpu_ns,
            worker_switches: last
                .proc
                .worker_switches
                .saturating_sub(first.proc.worker_switches),
            window_s,
            refused: host_metrics.chunks_busy + host_metrics.chunks_shed,
            shed_frames: host_metrics.shed_frames,
            events: host_metrics.events,
            localized,
        })?
    } else {
        for _ in 1..SETUP_RUNS {
            let (sinks, _) = make_sinks(w.streams, 0, &[], origin);
            let extra = hosted::set_up(w.mode, sinks)?;
            setups.push(extra.setup.as_secs_f64());
            extra.tear_down()?;
        }
        println!(
            "setup    {} runs: {}",
            setups.len(),
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("frame_latency_p50_ms", median(&kept(&p50s)), "ms"),
            metric("frame_latency_p90_ms", median(&kept(&p90s)), "ms"),
            metric(
                "rt_streams_per_core",
                median(&kept(&per_second_capacity)),
                "streams",
            ),
            metric("host_rss_mb", rss_mb, "MB"),
        ]
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check    FAILED: a metric is not a finite number");
    }
    Ok(Report {
        correct: correct && finite,
        attempted: score.attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect(),
    })
}

/// What the per-layer metrics are computed from.
#[derive(Debug)]
struct LayerInputs<'a> {
    times: &'a LayerTimes,
    drive: &'a Drive,
    pass1: &'a [(usize, Pass1)],
    score: &'a Score,
    host_cpu_ns: f64,
    worker_cpu_ns: f64,
    worker_switches: u64,
    window_s: f64,
    refused: u64,
    shed_frames: u64,
    events: u64,
    localized: u64,
}

/// Every per-layer metric, from the hosted pass and the traced replay.
fn layer_metrics(x: &LayerInputs<'_>) -> BenchResult<Vec<Metric>> {
    let times = x.times;
    let (histogram_ns, span_ns) = replay::time_obs(&times.spans);

    let frames: usize = x.pass1.iter().map(|(_, p)| p.outcomes.len()).sum();
    let per_frame = |ns: f64| ns / frames.max(1) as f64 / 1e3;
    let calls = || x.pass1.iter().flat_map(|(_, p)| p.calls.iter());
    let core_frame_us = per_frame(calls().map(|c| c.0).sum());
    // Chunks that complete a frame carry the frame's service time; the rest
    // only ingest.
    let chunk_us = sorted(calls().filter(|c| c.1 > 0).map(|c| c.0 / 1e3).collect());
    let core_self_us = core_frame_us - per_frame(times.total_ns());
    let serve_overhead_us = x.host_cpu_ns / x.score.delivered.max(1) as f64 / 1e3 - core_frame_us;
    let us = |v: &[f64]| v.iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    let classify_us = sorted(us(&times.classify));
    let srp_us = sorted(us(&times.srp_map));
    let push_us = sorted(us(&x.drive.push_ns));
    // Folded from +0.0: a float `sum` of nothing is -0.0, printed "-0.00".
    let sum = |v: &[f64]| v.iter().fold(0.0, |total, ns| total + ns);

    let dsp = per_frame(sum(&times.push_planar) + sum(&times.emit));
    let sed = per_frame(sum(&times.classify));
    let ssl =
        per_frame(sum(&times.srp_map) + sum(&times.smooth) + sum(&times.peaks) + sum(&times.track));
    let trigger = per_frame(sum(&times.trigger));
    println!(
        "samples  push_chunk {}  frame-completing push_chunk_with {}  classify {}  srp map {}  \
         obs spans {}",
        push_us.len(),
        chunk_us.len(),
        classify_us.len(),
        srp_us.len(),
        times.spans.len()
    );
    println!(
        "layers   us per frame over {frames} pass-1 frames: ssl {ssl:.2}  sed {sed:.2}  dsp {dsp:.2}  \
         trigger {trigger:.2}  core self {core_self_us:.2}  serve overhead {serve_overhead_us:.2}  \
         (bare session {core_frame_us:.2})"
    );
    let frames_f = x.score.frames.max(1) as f64;
    Ok(vec![
        metric("serve.push_us_p50", pct(&push_us, 50.0), "us"),
        metric("serve.push_us_p99", pct(&push_us, 99.0), "us"),
        metric(
            "serve.worker_cpu_ms_per_s",
            x.worker_cpu_ns / 1e6 / x.window_s,
            "ms/s",
        ),
        metric(
            "serve.worker_switches_per_s",
            x.worker_switches as f64 / x.window_s,
            "1/s",
        ),
        metric("serve.overhead_us_per_frame", serve_overhead_us, "us"),
        metric("serve.refused_chunks", x.refused as f64, "count"),
        metric("serve.shed_frames", x.shed_frames as f64, "count"),
        metric("core.chunk_us_p50", pct(&chunk_us, 50.0), "us"),
        metric("core.chunk_us_p99", pct(&chunk_us, 99.0), "us"),
        metric("core.frame_us", core_frame_us, "us"),
        metric("core.self_us_per_frame", core_self_us, "us"),
        metric("core.trigger_us", mean(&us(&times.trigger)), "us"),
        metric("core.frames", x.score.frames as f64, "count"),
        metric("core.detect_frames", x.score.analyzed as f64, "count"),
        metric("core.localize_frames", x.localized as f64, "count"),
        metric("core.events", x.events as f64, "count"),
        metric(
            "core.detect_share",
            x.score.analyzed as f64 / frames_f,
            "ratio",
        ),
        metric(
            "core.localize_share",
            x.localized as f64 / frames_f,
            "ratio",
        ),
        metric("dsp.push_planar_us", mean(&us(&times.push_planar)), "us"),
        metric("dsp.emit_us", mean(&us(&times.emit)), "us"),
        metric("sed.classify_us", mean(&classify_us), "us"),
        metric("sed.classify_us_p99", pct(&classify_us, 99.0), "us"),
        metric("ssl.srp_map_us", mean(&srp_us), "us"),
        metric("ssl.srp_map_us_p99", pct(&srp_us, 99.0), "us"),
        metric("ssl.smooth_us", mean(&us(&times.smooth)), "us"),
        metric("ssl.peaks_us", mean(&us(&times.peaks)), "us"),
        metric("ssl.track_us", mean(&us(&times.track)), "us"),
        metric(
            "ssl.confirmed_tracks",
            times.confirmed_tracks as f64 / times.track.len().max(1) as f64,
            "count",
        ),
        metric("obs.histogram_record_ns", histogram_ns, "ns"),
        metric("obs.span_record_ns", span_ns, "ns"),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ispot-perfbench: {message}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("ispot-perfbench: {error}");
            std::process::exit(1);
        }
    }
}
