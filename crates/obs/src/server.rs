//! Live-ops HTTP endpoint for long-running sweeps — dependency-free, one
//! `std::net::TcpListener` plus one handler thread.
//!
//! [`ObsServer`] serves point-in-time snapshots that the *driver* (the
//! sweep runner or `pi2sim`'s sliced single-run loop) publishes between
//! deterministic work units:
//!
//! * `GET /metrics` — Prometheus text exposition (the PR 4 exporter's
//!   output, `prom_lint`-clean), refreshed via [`ObsServer::publish_metrics`];
//! * `GET /progress` — a JSON progress report (grid cell, sim-time,
//!   events/sec, ETA), refreshed via [`ObsServer::publish_progress`];
//! * `GET /healthz` — liveness probe, always `ok`;
//! * `POST/GET /cancel` — sets the graceful-shutdown flag the driver
//!   polls at scenario/slice boundaries ([`ObsServer::cancel_requested`]);
//! * `POST/GET /quit` — like `/cancel`, but also releases a driver
//!   blocked in [`ObsServer::wait_quit`] (CI hold mode).
//!
//! Connections are handled one at a time, so each gets a deadline and a
//! size cap for its request (`408` / `431` past them): a client that
//! stalls cannot keep the next one's `/cancel` from being heard.
//!
//! The server never touches the simulation: it only reads strings the
//! driver hands it and flips an `AtomicBool` the driver chooses when to
//! poll. A run with the server attached is therefore bit-identical to one
//! without — the same pure-observer contract every sink in this workspace
//! obeys, asserted by `tests/obs_server.rs`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared state between the handler thread and the publishing driver.
struct Shared {
    metrics: Mutex<String>,
    progress: Mutex<String>,
    cancel: AtomicBool,
    quit: AtomicBool,
    stop: AtomicBool,
    quit_cv: Condvar,
    quit_mx: Mutex<()>,
}

/// The live-ops HTTP server (see the module docs).
pub struct ObsServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the handler thread. The actual bound address is
    /// [`ObsServer::addr`].
    pub fn bind(addr: &str) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            metrics: Mutex::new(String::new()),
            progress: Mutex::new("{}".to_string()),
            cancel: AtomicBool::new(false),
            quit: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            quit_cv: Condvar::new(),
            quit_mx: Mutex::new(()),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pi2-obs-server".to_string())
            .spawn(move || serve(listener, worker))?;
        Ok(ObsServer {
            shared,
            addr: local,
            handle: Some(handle),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replace the `/metrics` body (Prometheus text exposition).
    pub fn publish_metrics(&self, body: String) {
        *self.shared.metrics.lock().unwrap() = body;
    }

    /// Replace the `/progress` body (a JSON document).
    pub fn publish_progress(&self, body: String) {
        *self.shared.progress.lock().unwrap() = body;
    }

    /// True once a client hit `/cancel` (or `/quit`). Poll this at
    /// deterministic work boundaries only.
    pub fn cancel_requested(&self) -> bool {
        self.shared.cancel.load(Ordering::Relaxed)
    }

    /// Block until a client hits `/quit`. CI hold mode: the driver
    /// publishes its final snapshots, then parks here so a scraper can
    /// read them race-free before the process exits.
    pub fn wait_quit(&self) {
        let mut guard = self.shared.quit_mx.lock().unwrap();
        while !self.shared.quit.load(Ordering::SeqCst) {
            guard = self.shared.quit_cv.wait(guard).unwrap();
        }
    }

    /// Stop the handler thread and close the listener.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection; the handler sees
        // the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // One connection at a time: scrapes are tiny and the driver's
        // publishes never block on us, so serialized handling is plenty
        // and keeps the server single-threaded beyond the acceptor.
        let _ = handle(stream, &shared);
    }
}

/// How long a client has to deliver its request, and to take the answer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Request line plus headers; every request this server answers fits in
/// a fraction of it.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Reads from a stream until a fixed instant, however the bytes trickle
/// in: a per-read timeout alone lets a client feeding one byte at a time
/// hold the only handler thread for as long as it likes.
struct Until<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Until<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// The path of one request, its headers drained, or the status that
/// refuses it: `408` when the client stalls past [`REQUEST_DEADLINE`],
/// `431` when it sends [`MAX_REQUEST_BYTES`] without finishing its headers.
fn read_request(stream: &TcpStream) -> Result<String, &'static str> {
    let bounded = Until {
        stream,
        deadline: Instant::now() + REQUEST_DEADLINE,
    }
    .take(MAX_REQUEST_BYTES);
    let mut reader = BufReader::new(bounded);
    let mut path = None;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            // The client stopped sending: answer what it asked so far.
            Ok(0) if reader.get_ref().limit() > 0 => break,
            Ok(0) => return Err("431 Request Header Fields Too Large"),
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {
                path.get_or_insert_with(|| {
                    line.split_whitespace().nth(1).unwrap_or("/").to_string()
                });
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err("408 Request Timeout")
            }
            Err(_) => return Err("400 Bad Request"),
        }
    }
    Ok(path.unwrap_or_else(|| "/".to_string()))
}

const TEXT: &str = "text/plain; charset=utf-8";

/// Status, content type and body for `path`, flipping the flags `/cancel`
/// and `/quit` stand for.
fn route(path: &str, shared: &Shared) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared.metrics.lock().unwrap().clone(),
        ),
        "/progress" => (
            "200 OK",
            "application/json",
            shared.progress.lock().unwrap().clone(),
        ),
        "/healthz" => ("200 OK", TEXT, "ok\n".to_string()),
        "/cancel" => {
            shared.cancel.store(true, Ordering::SeqCst);
            ("200 OK", TEXT, "cancelling\n".to_string())
        }
        "/quit" => {
            shared.cancel.store(true, Ordering::SeqCst);
            shared.quit.store(true, Ordering::SeqCst);
            let _guard = shared.quit_mx.lock().unwrap();
            shared.quit_cv.notify_all();
            ("200 OK", TEXT, "quitting\n".to_string())
        }
        _ => ("404 Not Found", TEXT, "not found\n".to_string()),
    }
}

fn handle(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let (status, content_type, body) = match read_request(&stream) {
        Ok(path) => route(&path, shared),
        Err(refusal) => (refusal, TEXT, format!("{refusal}\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Minimal scrape client for tests and CI smokes: `GET path` from `addr`
/// over a fresh std `TcpStream`, returning `(status_line, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_published_snapshots_and_health() {
        let srv = ObsServer::bind("127.0.0.1:0").unwrap();
        srv.publish_metrics("pi2_items_total 3\n".to_string());
        srv.publish_progress("{\"done\":1,\"total\":4}".to_string());
        let (status, body) = http_get(srv.addr(), "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "pi2_items_total 3\n");
        let (_, body) = http_get(srv.addr(), "/progress").unwrap();
        assert_eq!(body, "{\"done\":1,\"total\":4}");
        let (_, body) = http_get(srv.addr(), "/healthz").unwrap();
        assert_eq!(body, "ok\n");
        let (status, _) = http_get(srv.addr(), "/nope").unwrap();
        assert!(status.contains("404"), "{status}");
        srv.stop();
    }

    #[test]
    fn cancel_flag_flips_on_request() {
        let srv = ObsServer::bind("127.0.0.1:0").unwrap();
        assert!(!srv.cancel_requested());
        let (status, _) = http_get(srv.addr(), "/cancel").unwrap();
        assert!(status.contains("200"));
        assert!(srv.cancel_requested());
        srv.stop();
    }

    #[test]
    fn quit_releases_a_waiting_driver() {
        let srv = Arc::new(ObsServer::bind("127.0.0.1:0").unwrap());
        let addr = srv.addr();
        let waiter = {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || srv.wait_quit())
        };
        let (status, _) = http_get(addr, "/quit").unwrap();
        assert!(status.contains("200"));
        waiter.join().unwrap();
        assert!(srv.cancel_requested(), "/quit implies cancel");
    }

    #[test]
    fn publishes_are_atomic_replacements() {
        let srv = ObsServer::bind("127.0.0.1:0").unwrap();
        for i in 0..10 {
            srv.publish_metrics(format!("pi2_items_total {i}\n"));
        }
        let (_, body) = http_get(srv.addr(), "/metrics").unwrap();
        assert_eq!(body, "pi2_items_total 9\n");
        srv.stop();
    }
}
