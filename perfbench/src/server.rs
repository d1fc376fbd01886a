//! The program under test: a `clb serve --threads 2` child process, plus
//! the keep-alive connections the benchmark opens to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use clb_service::WireResponse;

/// Builds the `clb` binary from the checkout's sources (a no-op when it is
/// current) and returns its path. Cargo honours `CARGO_TARGET_DIR`.
pub fn build_clb() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "clb"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building clb failed ({status})"));
    }
    let bin = target_dir().join("release").join("clb");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built clb not found at {}", bin.display()))
    }
}

/// Cargo's target directory: `CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A running `clb serve` child. Every connection the benchmark opens to it
/// goes through [`ServerProc::connect`], which numbers connections in the
/// order the server accepts them: connection ordinal `n` is the server's
/// `conn=n+1` in the request log, so client samples and log lines can be
/// joined exactly.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    log: Arc<Mutex<Vec<String>>>,
    stderr_reader: Option<JoinHandle<()>>,
    next_ordinal: Mutex<u64>,
}

impl ServerProc {
    /// Starts `clb serve --port 0 --threads 2` (with `--log true` when
    /// `log`), waits for its listening line and a `200` from `/healthz`.
    pub fn spawn(bin: &Path, log: bool) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--port",
            "0",
            "--threads",
            "2",
            "--allow-shutdown",
            "true",
        ]);
        if log {
            cmd.args(["--log", "true"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("clb serve exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                if let Ok(addr) = addr.parse::<SocketAddr>() {
                    break addr;
                }
            }
        };
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let stderr_reader = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                if line.starts_with("method=") {
                    sink.lock().expect("log sink poisoned").push(line);
                }
            }
        });
        let server = ServerProc {
            child,
            addr,
            log: lines,
            stderr_reader: Some(stderr_reader),
            next_ordinal: Mutex::new(0),
        };
        let health = server.get("/healthz")?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok(server)
    }

    /// Opens one keep-alive connection.
    pub fn connect(&self, read_timeout: Duration) -> std::io::Result<Conn> {
        // Held across `connect` so ordinals follow the server's accept order.
        let mut next = self.next_ordinal.lock().expect("ordinal lock poisoned");
        let stream = TcpStream::connect(self.addr)?;
        let ordinal = *next;
        *next += 1;
        drop(next);
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            ordinal,
        })
    }

    /// One `GET` on a connection of its own.
    pub fn get(&self, path: &str) -> Result<WireResponse, String> {
        let mut conn = self
            .connect(Duration::from_secs(30))
            .map_err(|e| format!("connect: {e}"))?;
        conn.exchange(&clb_service::request_bytes("GET", path, "", false))
            .map_err(|e| format!("GET {path}: {e}"))
    }

    /// `GET /v1/cache_stats`, parsed.
    pub fn cache_stats(&self) -> Result<clb_service::CacheStatsResponse, String> {
        let resp = self.get("/v1/cache_stats")?;
        serde_json::from_str(&resp.body).map_err(|e| format!("cache_stats: {e}"))
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Drains the server through `POST /v1/shutdown` (so every request-log
    /// line is written) and returns its request-log lines (empty unless it
    /// was started with logging).
    pub fn stop(mut self) -> Vec<String> {
        let _ = self.connect(Duration::from_secs(10)).and_then(|mut c| {
            c.exchange(&clb_service::request_bytes(
                "POST",
                "/v1/shutdown",
                "",
                false,
            ))
        });
        for _ in 0..1000 {
            if !matches!(self.child.try_wait(), Ok(None)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shutdown();
        std::mem::take(&mut *self.log.lock().expect("log sink poisoned"))
    }

    /// Kills the child if it still runs, reaps it and joins the log reader.
    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One client connection, framed with the service's own client toolkit.
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Position in the server's accept order (see [`ServerProc`]).
    pub ordinal: u64,
}

impl Conn {
    /// Writes one request and reads its framed response.
    pub fn exchange(&mut self, wire: &[u8]) -> std::io::Result<WireResponse> {
        let mut stream = self.reader.get_ref();
        stream.write_all(wire)?;
        WireResponse::read_from(&mut self.reader)
    }
}

/// One parsed request-log line.
#[derive(Debug, Clone)]
pub struct LogLine {
    /// The server's connection id.
    pub conn: u64,
    /// The request path.
    pub path: String,
    /// Exact server-side latency in µs.
    pub micros: u64,
    /// The `cache=` outcome (`hit`, `miss`, `coalesced` or `-`).
    pub cache: String,
}

/// Parses `method=.. path=.. status=.. micros=.. cache=.. conn=..` lines.
pub fn parse_log(lines: &[String]) -> Vec<LogLine> {
    lines
        .iter()
        .filter_map(|line| {
            let field = |key: &str| {
                line.split(' ')
                    .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            };
            Some(LogLine {
                conn: field("conn")?.parse().ok()?,
                path: field("path")?.to_string(),
                micros: field("micros")?.parse().ok()?,
                cache: field("cache")?.to_string(),
            })
        })
        .collect()
}
