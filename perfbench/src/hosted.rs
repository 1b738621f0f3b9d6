//! The hosted pass: one `SessionHost` driven open-loop at the real chunk
//! rate by a single generator thread, with sinks that record each frame's
//! delivery time into storage sized before the run.

use crate::clips::{array, Inputs, CHUNK, SAMPLE_RATE};
use crate::stats::{
    parse_ctxt_switches, parse_schedstat_ns, parse_status_bytes, parse_steal_ticks,
};
use ispot_core::api::{Engine, PipelineBuilder};
use ispot_core::events::{PerceptionEvent, TrackList};
use ispot_core::mode::OperatingMode;
use ispot_core::sink::EventSink;
use ispot_core::stages::FrameOutcome;
use ispot_sed::EventClass;
use ispot_serve::{HostConfig, SessionHost, StreamId};
use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Result of the benchmark's fallible steps.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Name prefix of the host's worker threads (`ispot-serve-<n>`).
const WORKER_PREFIX: &str = "ispot-serve-";

/// How long after the drive starts the first chunk is due, so the generator
/// begins on schedule rather than late.
const LEAD: Duration = Duration::from_millis(5);

/// Worker threads: one fewer than the cores, so the generator plus the
/// workers never exceed them.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// The engine every pass uses: the default configuration on the shared
/// array, in `mode`.
pub fn build_engine(mode: OperatingMode) -> BenchResult<Engine> {
    Ok(PipelineBuilder::new(SAMPLE_RATE)
        .array(&array())
        .mode(mode)
        .build_engine()?)
}

/// Default host settings except the sizing fields, with span tracing at the
/// capacity the shipped `ispot-serve` binary sets.
fn host_config(streams: usize) -> HostConfig {
    HostConfig {
        workers: worker_count(),
        max_sessions: streams,
        max_chunk_len: CHUNK,
        span_capacity: 256,
        ..HostConfig::default()
    }
}

/// What one stream's sink recorded; handed back when the host drops the sink.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Delivery time of each frame, in ns after the run's origin.
    pub delivered_ns: Vec<u64>,
    /// The stream's events, kept for the sampled streams only.
    pub events: Vec<PerceptionEvent>,
    /// Frames the trigger did not gate.
    pub analyzed: u64,
    /// Frames that produced a detection.
    pub detections: u64,
    /// Set when the preallocated storage ran out.
    pub overflow: bool,
}

/// Where a sink leaves its log when the host drops it.
pub type LogSlot = Arc<Mutex<Option<StreamLog>>>;

/// The benchmark's sink. It records into storage sized before the run, so
/// delivering a frame neither locks nor allocates; the log moves to its
/// slot only when the host drops the sink at stream close.
#[derive(Debug)]
pub struct RecordingSink {
    log: StreamLog,
    origin: Instant,
    keep_events: bool,
    slot: LogSlot,
}

impl RecordingSink {
    /// A sink with room for `frames` deliveries (and as many events when
    /// `keep_events`), timing against `origin`.
    pub fn new(origin: Instant, frames: usize, keep_events: bool) -> (Self, LogSlot) {
        let slot = LogSlot::default();
        let mut log = StreamLog::default();
        // Written once and cleared, so the storage's pages are resident
        // before the RSS baseline instead of joining the host's figure.
        log.delivered_ns.resize(frames, 0);
        log.delivered_ns.clear();
        if keep_events {
            let blank = PerceptionEvent {
                frame_index: 0,
                time_s: 0.0,
                class: EventClass::Background,
                confidence: 0.0,
                azimuth_deg: None,
                tracked_azimuth_deg: None,
                tracks: TrackList::default(),
            };
            log.events.resize(frames, blank);
            log.events.clear();
        }
        let sink = RecordingSink {
            log,
            origin,
            keep_events,
            slot: Arc::clone(&slot),
        };
        (sink, slot)
    }
}

impl EventSink for RecordingSink {
    fn on_event(&mut self, event: &PerceptionEvent) {
        if !self.keep_events {
            return;
        }
        if self.log.events.len() < self.log.events.capacity() {
            self.log.events.push(event.clone());
        } else {
            self.log.overflow = true;
        }
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let log = &mut self.log;
        if log.delivered_ns.len() < log.delivered_ns.capacity() {
            log.delivered_ns.push(now);
        } else {
            log.overflow = true;
        }
        match outcome {
            FrameOutcome::Gated => {}
            FrameOutcome::Analyzed => log.analyzed += 1,
            FrameOutcome::Detection { .. } => {
                log.analyzed += 1;
                log.detections += 1;
            }
        }
    }
}

impl Drop for RecordingSink {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(std::mem::take(&mut self.log));
        }
    }
}

/// A started host with every stream open.
#[derive(Debug)]
pub struct Hosted {
    /// The host.
    pub host: SessionHost,
    /// One id per sink, in sink order.
    pub ids: Vec<StreamId>,
    /// Wall time of engine build, host start and opening every stream.
    pub setup: Duration,
}

/// Builds the engine, starts the host and opens one stream per sink: the
/// set-up a deployment pays before its first chunk. The sinks are built by
/// the caller, so their storage is not timed.
pub fn set_up(mode: OperatingMode, sinks: Vec<RecordingSink>) -> BenchResult<Hosted> {
    let started = Instant::now();
    let host = SessionHost::new(build_engine(mode)?, host_config(sinks.len()))?;
    let ids = sinks
        .into_iter()
        .map(|sink| host.open_stream(sink))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Hosted {
        host,
        ids,
        setup: started.elapsed(),
    })
}

impl Hosted {
    /// Closes every stream, which drops its sink and hands back its log,
    /// then stops and joins the workers.
    pub fn tear_down(self) -> BenchResult<()> {
        for id in self.ids {
            self.host.close_stream(id)?;
        }
        Ok(())
    }
}

/// CPU time and context switches of this process's threads at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// CPU time of every thread, ns.
    pub process_cpu_ns: u64,
    /// CPU time of the host's worker threads, ns.
    pub worker_cpu_ns: u64,
    /// Context switches of the host's worker threads.
    pub worker_switches: u64,
    /// Machine-wide CPU ticks stolen by the hypervisor, and all ticks.
    pub steal_ticks: (u64, u64),
}

impl ProcSample {
    /// Reads `/proc/self/task/*/{comm,schedstat,status}` and `/proc/stat`.
    pub fn read() -> BenchResult<ProcSample> {
        let stat = std::fs::read_to_string("/proc/stat")?;
        let mut sample = ProcSample {
            steal_ticks: parse_steal_ticks(&stat).ok_or("unreadable /proc/stat")?,
            ..ProcSample::default()
        };
        for entry in std::fs::read_dir("/proc/self/task")? {
            let dir = entry?.path();
            let read = |name: &str| std::fs::read_to_string(dir.join(name));
            // A thread that exits between listing and reading is skipped.
            let (Ok(comm), Ok(schedstat), Ok(status)) =
                (read("comm"), read("schedstat"), read("status"))
            else {
                continue;
            };
            let cpu = parse_schedstat_ns(&schedstat).ok_or("unreadable schedstat")?;
            sample.process_cpu_ns += cpu;
            if comm.trim_end().starts_with(WORKER_PREFIX) {
                sample.worker_cpu_ns += cpu;
                sample.worker_switches +=
                    parse_ctxt_switches(&status).ok_or("unreadable status")?;
            }
        }
        Ok(sample)
    }
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn memory(field: &str) -> BenchResult<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    Ok(parse_status_bytes(&status, field)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))?)
}

/// The open-loop schedule: every stream submits one chunk per chunk period,
/// and the streams' phases are spread evenly over the period.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Streams driven.
    pub streams: usize,
    /// Chunks per stream before the measured window opens.
    pub warmup_chunks: usize,
    /// Chunks per stream in total.
    pub chunks: usize,
    /// The chunk period, ns.
    pub period_ns: u64,
}

impl Schedule {
    /// A schedule of `warmup` then `measured` wall time for `streams` streams.
    pub fn new(streams: usize, warmup: Duration, measured: Duration) -> Self {
        let period_ns = (CHUNK as f64 / SAMPLE_RATE * 1e9).round() as u64;
        let chunks_in = |d: Duration| (d.as_nanos() as u64).div_ceil(period_ns) as usize;
        let warmup_chunks = chunks_in(warmup);
        Schedule {
            streams,
            warmup_chunks,
            chunks: warmup_chunks + chunks_in(measured).max(1),
            period_ns,
        }
    }

    /// When chunk `j` of stream `s` is due, in ns after the drive's start.
    pub fn due_ns(&self, s: usize, j: usize) -> u64 {
        j as u64 * self.period_ns + s as u64 * self.period_ns / self.streams as u64
    }
}

/// Counters at one instant of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// When the counters were read.
    pub at: Instant,
    /// The `/proc` counters.
    pub proc: ProcSample,
    /// `push_chunk` time of the window so far, ns.
    pub push_ns: f64,
    /// Chunks of the window accepted so far.
    pub accepted: u64,
}

impl Mark {
    /// Host CPU since `earlier`: the workers' CPU plus the producer's time
    /// inside `push_chunk`, ns.
    pub fn host_cpu_ns_since(&self, earlier: &Mark) -> f64 {
        let workers = self
            .proc
            .worker_cpu_ns
            .saturating_sub(earlier.proc.worker_cpu_ns);
        workers as f64 + self.push_ns - earlier.push_ns
    }

    /// Share of the machine's CPU time the hypervisor stole since `earlier`.
    pub fn steal_since(&self, earlier: &Mark) -> f64 {
        let (steal, all) = self.proc.steal_ticks;
        let (steal_before, all_before) = earlier.proc.steal_ticks;
        steal.saturating_sub(steal_before) as f64 / all.saturating_sub(all_before).max(1) as f64
    }
}

/// What the generator saw.
#[derive(Debug)]
pub struct Drive {
    /// When the schedule started, ns after the run's origin.
    pub start_ns: u64,
    /// Per stream, the offered index of every accepted chunk, in order.
    pub accepted: Vec<Vec<u32>>,
    /// Chunks refused with `Busy` or `Shed`.
    pub refused: u64,
    /// `push_chunk` wall time of every chunk of the window, ns.
    pub push_ns: Vec<f64>,
    /// How late after its due time each chunk of the window was pushed, ns.
    pub lateness_ns: Vec<f64>,
    /// Counters when the window opened, at each further second of due time,
    /// and once the host had drained.
    pub marks: Vec<Mark>,
}

/// Drives the host on `schedule` from this thread: sleep until the next due
/// time, push every chunk that is due, never retry a refused chunk. Returns
/// once every accepted chunk has been processed.
pub fn drive(
    host: &SessionHost,
    ids: &[StreamId],
    inputs: &Inputs,
    schedule: &Schedule,
    origin: Instant,
) -> BenchResult<Drive> {
    let n = schedule.streams;
    let total = n * schedule.chunks;
    let first_measured = n * schedule.warmup_chunks;
    let start_ns = elapsed_ns(origin) + LEAD.as_nanos() as u64;
    let mut accepted: Vec<Vec<u32>> = (0..n)
        .map(|_| Vec::with_capacity(schedule.chunks))
        .collect();
    let mut push_ns = Vec::with_capacity(total - first_measured);
    let mut lateness_ns = Vec::with_capacity(total - first_measured);
    let (mut accepted_window, mut refused, mut push_total_ns) = (0, 0, 0.0);
    let mut marks = Vec::new();
    let mut next_mark_ns = start_ns + schedule.due_ns(0, schedule.warmup_chunks);
    let mark = |push_ns: f64, accepted: u64| -> BenchResult<Mark> {
        Ok(Mark {
            at: Instant::now(),
            proc: ProcSample::read()?,
            push_ns,
            accepted,
        })
    };
    let mut i = 0;
    while i < total {
        let now = elapsed_ns(origin);
        let next_due = start_ns + schedule.due_ns(i % n, i / n);
        if now < next_due {
            std::thread::sleep(Duration::from_nanos(next_due - now));
            continue;
        }
        while i < total {
            let (s, j) = (i % n, i / n);
            let due = start_ns + schedule.due_ns(s, j);
            if due > now {
                break;
            }
            if i >= first_measured && due >= next_mark_ns {
                marks.push(mark(push_total_ns, accepted_window)?);
                next_mark_ns += 1_000_000_000;
            }
            let chunk = inputs.chunk(s, j);
            let pushed = Instant::now();
            let result = host.push_chunk(ids[s], &chunk);
            let took = pushed.elapsed();
            let ok = match result {
                Ok(()) => {
                    accepted[s].push(j as u32);
                    true
                }
                Err(e) if e.is_transient() => {
                    refused += 1;
                    false
                }
                Err(e) => return Err(e.into()),
            };
            if i >= first_measured {
                let took_ns = took.as_nanos() as f64;
                accepted_window += u64::from(ok);
                push_total_ns += took_ns;
                push_ns.push(took_ns);
                lateness_ns.push(pushed.duration_since(origin).as_nanos() as f64 - due as f64);
            }
            i += 1;
        }
    }
    if !host.wait_idle(Duration::from_secs(60)) {
        return Err("the host did not drain within 60 s".into());
    }
    marks.push(mark(push_total_ns, accepted_window)?);
    Ok(Drive {
        start_ns,
        accepted,
        refused,
        push_ns,
        lateness_ns,
        marks,
    })
}

/// Nanoseconds since `origin`.
fn elapsed_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}
