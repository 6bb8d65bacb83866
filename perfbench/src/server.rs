//! A `netart serve` child process and the HTTP client that talks to it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The server's answer cache: large enough that no input of a run is
/// ever evicted.
const CACHE_BYTES: usize = 512 << 20;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// A booted `netart serve --workers 2 --shards 1`: the supervisor
/// process and its listening address. Dropping it kills both
/// processes; [`Server::stop`] drains them first.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts a server in `work` (whose `lib/` holds the module
    /// library) and waits until `/readyz` answers 200.
    pub fn boot(netart: &Path, work: &Path) -> Result<Server, String> {
        let log = work.join("serve.out");
        let stdout = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let stderr = std::fs::File::create(work.join("serve.err")).map_err(|e| e.to_string())?;
        let child = Command::new(netart)
            .current_dir(work)
            .args(["serve", "--addr", "127.0.0.1:0", "-L", "lib"])
            .args(["--workers", "2", "--shards", "1"])
            .args(["--cache-bytes", &CACHE_BYTES.to_string()])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", netart.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("serving on http://"))
            {
                server.addr = addr.trim().to_owned();
                if matches!(http(&server.addr, "GET", "/readyz", ""), Ok((200, _))) {
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("netart serve exited at boot: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("netart serve was not ready within 20 s".into())
    }

    /// The shard workers the supervisor runs.
    fn workers(&self) -> Vec<i32> {
        let pid = self.child.id();
        std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children"))
            .unwrap_or_default()
            .split_whitespace()
            .filter_map(|p| p.parse().ok())
            .collect()
    }

    /// SIGTERM lets the supervisor drain and reap its worker; waits up
    /// to ten seconds for both to be gone.
    pub fn stop(mut self) -> Result<(), String> {
        let workers = self.workers();
        signal(self.child.id() as i32, SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("netart serve did not stop on SIGTERM".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for w in workers {
            while Path::new(&format!("/proc/{w}")).exists() {
                if Instant::now() > deadline {
                    return Err(format!("shard worker {w} outlived its supervisor"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            for w in self.workers() {
                signal(w, SIGKILL);
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn signal(pid: i32, sig: i32) {
    // SAFETY: `kill` is the C library call and takes plain integers; a
    // pid that has gone away only makes it return an error.
    unsafe { kill(pid, sig) };
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes
/// after each response). Returns the status and the body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status line")?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// `/metrics` sample values by series (`name{labels}` → value).
pub type Scrape = BTreeMap<String, f64>;

pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect())
}

/// How much the series `key` grew between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}
