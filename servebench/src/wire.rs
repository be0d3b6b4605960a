//! The benchmark's own HTTP/1.1 client and the daemon process it drives.
//!
//! The client is deliberately not `pubopt_serve::client`: timing runs
//! from the first byte written to the last byte read, through code the
//! program under test cannot change.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body bytes as text.
    pub body: String,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off (requests are single small writes).
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one request and read its whole response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(invalid)?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill(&mut chunk)?;
        }
        let body =
            String::from_utf8(self.buf[head_end..head_end + len].to_vec()).map_err(invalid)?;
        self.buf.drain(..head_end + len);
        Ok(Response { status, body })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let got = self.stream.read(chunk)?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..got]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// A running `pubopt-serve` daemon. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] stops it through the API instead.
pub struct Daemon {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// Bound address parsed from the daemon's `listening on` line.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `bin` with default flags on an OS-assigned port and wait for
    /// its `listening on ADDR` line.
    pub fn spawn(bin: &Path) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the first line, then drains stdout until the daemon exits.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            let mut first = String::new();
            let _ = lines.read_line(&mut first);
            let _ = tx.send(first);
            let _ = io::copy(&mut lines, &mut io::sink());
        });
        let mut daemon = Self {
            child,
            stdout: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| invalid("daemon printed no listening line within 60 s"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| invalid(format!("unexpected daemon output {line:?}")))?;
        Ok(daemon)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| invalid("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Stop through `POST /v1/shutdown` and wait for the process to
    /// exit (killing it after 30 s).
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::open(self.addr).and_then(|mut c| c.call("POST", "/v1/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(invalid("daemon ignored /v1/shutdown for 30 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
        asked.map(drop)
    }

    fn reap(&mut self) {
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.reap();
    }
}
