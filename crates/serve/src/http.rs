//! A minimal hand-rolled HTTP exporter for the session host: Prometheus-style
//! text exposition, a JSON snapshot and an SSE event feed, over one
//! nonblocking `std::net` listener on one thread — no external dependencies,
//! no work on the data plane.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition of every registered family.
//! * `GET /snapshot` — JSON: host counters, latency quantiles (`null` until
//!   samples exist), per-stage latency, per-stream stats, the latest
//!   perception event.
//! * `GET /events?limit=N` — SSE (`text/event-stream`): `perception` and
//!   `degrade` events replayed from the feed's buffer, then live. Without
//!   `limit` the connection streams until the client disconnects or the host
//!   shuts down; the endpoint is single-threaded, so an unbounded SSE consumer
//!   parks the exporter (scrapes queue behind it) — pollers should pass
//!   `limit`.
//!
//! The exporter is intentionally not a general web server: requests beyond
//! ~4 KiB are rejected, only `GET` is answered, and every response closes the
//! connection.

use crate::feed::FeedEvent;
use crate::host::{HostInner, SessionHost};
use crate::metrics::LatencySnapshot;
use crate::relock;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Version of the `/snapshot` JSON document shape.
const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// How long the accept loop parks between polls of the nonblocking listener.
const ACCEPT_PARK: Duration = Duration::from_millis(10);

/// Per-connection read/write timeout: a stalled scraper cannot wedge the
/// exporter for longer than this per syscall.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Overall deadline for reading one request head. The per-read timeout alone
/// would let a client dripping one byte per read occupy the single-threaded
/// accept loop for minutes.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// How often the SSE feed writes a comment keepalive while idle, so a client
/// that disconnected without new events arriving surfaces as a write error
/// instead of parking the exporter forever.
const SSE_KEEPALIVE: Duration = Duration::from_secs(2);

/// Handle to a running metrics/event endpoint. Dropping it stops the accept
/// loop and joins the exporter thread.
#[derive(Debug)]
pub struct MetricsEndpoint {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// The bound address — useful after binding port 0.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsEndpoint {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl SessionHost {
    /// Starts the HTTP exporter on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port) and returns its handle. One thread serves all routes
    /// sequentially; the endpoint stops when the handle is dropped or the
    /// host shuts down.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_http<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let inner = Arc::clone(self.inner());
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("ispot-serve-http".into())
            .spawn(move || accept_loop(&listener, &inner, &flag))
            .expect("spawn metrics endpoint thread");
        Ok(MetricsEndpoint {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<HostInner>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) && !inner.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Errors on one connection (reset, timeout, bad request) must
                // not take the exporter down.
                let _ = serve_connection(stream, inner, shutdown);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_PARK),
            Err(_) => std::thread::sleep(ACCEPT_PARK),
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    inner: &Arc<HostInner>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = read_request_head(&mut stream)?;
    let Some(target) = parse_get_target(&request) else {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let body = inner.render_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/snapshot" => {
            let body = render_snapshot_json(inner);
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/events" => serve_events(&mut stream, inner, shutdown, query),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /snapshot or /events\n",
        ),
    }
}

/// Reads the request head (start line + headers) up to a small bound, giving
/// up once [`HEAD_DEADLINE`] has elapsed without a complete head.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let deadline = std::time::Instant::now() + HEAD_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 4096 {
            break;
        }
        if std::time::Instant::now() >= deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "request head incomplete at deadline",
            ));
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Extracts the target of a `GET <target> HTTP/1.x` start line.
fn parse_get_target(request: &str) -> Option<&str> {
    let line = request.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    parts.next()
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Serves the SSE feed: replays what the ring still holds, then follows live
/// records until `limit` events were sent (if given), the client goes away, or
/// shutdown.
fn serve_events(
    stream: &mut TcpStream,
    inner: &Arc<HostInner>,
    shutdown: &AtomicBool,
    query: &str,
) -> std::io::Result<()> {
    let limit: Option<u64> = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("limit="))
        .and_then(|v| v.parse().ok());
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    let mut cursor = inner.feed.oldest();
    let mut sent = 0u64;
    let mut body = String::with_capacity(256);
    let mut idle = Duration::ZERO;
    loop {
        if shutdown.load(Ordering::Acquire) || inner.shutting_down() {
            return Ok(());
        }
        if limit.is_some_and(|n| sent >= n) {
            return Ok(());
        }
        let head = inner.feed.cursor();
        // A slow consumer may have been lapped; jump to the oldest survivor.
        cursor = cursor.max(inner.feed.oldest());
        if cursor >= head {
            // Comment keepalive: the only way to notice a client that
            // disconnected while no events arrive is a failed write.
            if idle >= SSE_KEEPALIVE {
                stream.write_all(b":\n\n")?;
                idle = Duration::ZERO;
            }
            std::thread::sleep(ACCEPT_PARK);
            idle += ACCEPT_PARK;
            continue;
        }
        idle = Duration::ZERO;
        while cursor < head {
            if limit.is_some_and(|n| sent >= n) {
                return Ok(());
            }
            if let Some(event) = inner.feed.read_at(cursor) {
                body.clear();
                render_sse(&mut body, cursor, &event);
                stream.write_all(body.as_bytes())?;
                sent += 1;
            }
            cursor += 1;
        }
    }
}

fn render_sse(out: &mut String, id: u64, event: &FeedEvent) {
    use std::fmt::Write as _;
    match event {
        FeedEvent::Perception {
            slot,
            generation,
            frame_index,
            class,
            confidence,
            azimuth_deg,
            time_s,
        } => {
            let _ = write!(
                out,
                "event: perception\nid: {id}\ndata: {{\"slot\":{slot},\"generation\":{generation},\"frame_index\":{frame_index},\"class\":\"{}\",\"confidence\":{},\"azimuth_deg\":{},\"time_s\":{}}}\n\n",
                class.label(),
                json_f64(*confidence),
                json_opt_f64(*azimuth_deg),
                json_f64(*time_s),
            );
        }
        FeedEvent::Degrade { from, to } => {
            let _ = write!(
                out,
                "event: degrade\nid: {id}\ndata: {{\"from\":\"{}\",\"to\":\"{}\"}}\n\n",
                from.label(),
                to.label(),
            );
        }
    }
}

/// A finite f64 as a JSON number; NaN/inf as `null` (JSON has no non-finite
/// numbers).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), json_f64)
}

fn write_latency(out: &mut String, snap: &LatencySnapshot) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"count\":{},\"mean_ms\":{},\"p50_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
        snap.count,
        json_f64(snap.mean_ms),
        json_opt_f64(snap.p50_ms),
        json_opt_f64(snap.p99_ms),
        json_f64(snap.max_ms),
    );
}

/// Renders the `/snapshot` JSON document. Cold path: allocates freely.
fn render_snapshot_json(inner: &Arc<HostInner>) -> String {
    use std::fmt::Write as _;
    inner.refresh_gauges();
    let m = &inner.metrics;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema_version\":{SNAPSHOT_SCHEMA_VERSION},\"degrade_level\":\"{}\",\"metrics\":{{",
        inner.load.level().label()
    );
    let _ = write!(
        out,
        "\"sessions_open\":{},\"sessions_opened\":{},\"sessions_closed\":{},\"chunks_in\":{},\"chunks_busy\":{},\"chunks_shed\":{},\"chunks_discarded\":{},\"queue_depth\":{},\"frames\":{},\"shed_frames\":{},\"events\":{},\"sheds\":{},\"restores\":{},\"errors\":{},\"worker_panics\":{},\"latency\":",
        m.sessions_open.get(),
        m.sessions_opened.get(),
        m.sessions_closed.get(),
        m.chunks_in.get(),
        m.chunks_busy.get(),
        m.chunks_shed.get(),
        m.chunks_discarded.get(),
        m.queue_depth.get(),
        m.frames.get(),
        m.shed_frames.get(),
        m.events.get(),
        m.sheds.get(),
        m.restores.get(),
        m.errors.get(),
        m.worker_panics.get(),
    );
    write_latency(&mut out, &m.latency.snapshot());
    out.push_str("},\"stages\":{");
    for (i, (name, snap)) in inner.stage_latency.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":");
        write_latency(&mut out, snap);
    }
    out.push_str("},\"streams\":[");
    let mut first = true;
    for (idx, slot) in inner.slots.iter().enumerate() {
        let (queued, deferred) = match relock(&slot.ring).as_ref() {
            Some(ring) => (ring.len(), ring.deferred()),
            None => continue,
        };
        let stats = slot.stats.snapshot(queued, deferred);
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"slot\":{idx},\"generation\":{},\"queued\":{},\"deferred\":{},\"chunks_in\":{},\"chunks_busy\":{},\"frames\":{},\"shed_frames\":{},\"events\":{},\"errors\":{},\"localization_shed\":{},\"quarantined\":{}}}",
            slot.generation.load(Ordering::Acquire),
            stats.queued,
            stats.deferred,
            stats.chunks_in,
            stats.chunks_busy,
            stats.frames,
            stats.shed_frames,
            stats.events,
            stats.errors,
            stats.localization_shed,
            stats.quarantined,
        );
    }
    out.push_str("],\"latest_event\":");
    match latest_perception(inner) {
        Some((
            index,
            FeedEvent::Perception {
                slot,
                generation,
                frame_index,
                class,
                confidence,
                azimuth_deg,
                time_s,
            },
        )) => {
            let _ = write!(
                out,
                "{{\"feed_index\":{index},\"slot\":{slot},\"generation\":{generation},\"frame_index\":{frame_index},\"class\":\"{}\",\"confidence\":{},\"azimuth_deg\":{},\"time_s\":{}}}",
                class.label(),
                json_f64(confidence),
                json_opt_f64(azimuth_deg),
                json_f64(time_s),
            );
        }
        _ => out.push_str("null"),
    }
    out.push('}');
    out
}

/// The most recent perception record still resident in the feed.
fn latest_perception(inner: &Arc<HostInner>) -> Option<(u64, FeedEvent)> {
    let head = inner.feed.cursor();
    let oldest = inner.feed.oldest();
    let mut index = head;
    while index > oldest {
        index -= 1;
        if let Some(event @ FeedEvent::Perception { .. }) = inner.feed.read_at(index) {
            return Some((index, event));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_targets_parse() {
        assert_eq!(
            parse_get_target("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some("/metrics")
        );
        assert_eq!(
            parse_get_target("GET /events?limit=3 HTTP/1.1\r\n\r\n"),
            Some("/events?limit=3")
        );
        assert_eq!(parse_get_target("POST /metrics HTTP/1.1\r\n\r\n"), None);
        assert_eq!(parse_get_target(""), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_f64(Some(2.0)), "2");
    }
}
