//! Building, spawning and stopping the shipped `tempo-serve` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tempo_serve::Client;

/// A client connection to the daemon over TCP.
pub type Conn = Client<BufReader<std::net::TcpStream>, std::net::TcpStream>;

/// Builds `tempo-serve` (release) from the repository at `repo` into
/// `target_dir` and returns the binary's path.  Cargo's own output goes to
/// stderr; a failed build is an error.
pub fn build(repo: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "tempo_serve", "--bin", "tempo-serve", "--target-dir"])
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tempo-serve failed ({status})"));
    }
    Ok(target_dir.join("release").join("tempo-serve"))
}

/// Kills and reaps its child on drop, so no daemon outlives a panic or an
/// early return of the benchmark.
pub struct ChildGuard(Child);

impl ChildGuard {
    /// Takes ownership of `child`.
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard(child)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Waits up to `limit` for the child to exit on its own; kills it after
    /// that.  Returns whether it exited by itself with status 0.
    pub fn wait_or_kill(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            match self.0.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        let _ = self.0.kill();
        let _ = self.0.wait();
        false
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A running daemon: `tempo-serve --listen 127.0.0.1:0` with its defaults
/// (2 workers, queue cap 16, metrics registry installed).
pub struct Daemon {
    // Field order matters: the guard reaps the child before the stderr
    // forwarder is joined, so the forwarder always sees end of file.
    child: ChildGuard,
    stderr: Option<JoinHandle<()>>,
    /// The bound loopback address, as the daemon printed it.
    pub addr: SocketAddr,
}

const LISTENING: &str = "tempo-serve listening on ";

impl Daemon {
    /// Spawns the daemon and blocks until it prints its bound address.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut child = ChildGuard::new(child);
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    child.wait_or_kill(Duration::ZERO);
                    return Err("tempo-serve exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix(LISTENING) {
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
            }
            eprint!("tempo-serve: {line}");
        };
        // Forward anything else the daemon says, so its pipe never fills.
        let stderr = thread::spawn(move || {
            for line in reader.lines().map_while(Result::ok) {
                eprintln!("tempo-serve: {line}");
            }
        });
        Ok(Daemon {
            child,
            stderr: Some(stderr),
            addr,
        })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))?;
        Ok(kib / 1024.0)
    }

    /// Asks the daemon to shut down over `conn` and waits for it to exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let ack = conn.shutdown();
        drop(conn);
        let clean = self.child.wait_or_kill(Duration::from_secs(10));
        if let Some(forwarder) = self.stderr.take() {
            let _ = forwarder.join();
        }
        match ack {
            Ok(Ok(_)) if clean => Ok(()),
            Ok(Ok(_)) => Err("tempo-serve did not exit cleanly after shutdown".into()),
            Ok(Err(e)) => Err(format!("shutdown refused: {e}")),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // `shutdown` has already joined the forwarder; on any other exit the
        // guard must reap the child first or the join would never return.
        if let Some(forwarder) = self.stderr.take() {
            self.child.wait_or_kill(Duration::ZERO);
            let _ = forwarder.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_drop_guard_kills_the_child() {
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let guard = ChildGuard::new(child);
        let proc_dir = PathBuf::from(format!("/proc/{}", guard.pid()));
        assert!(proc_dir.exists());
        let started = Instant::now();
        drop(guard);
        // Killed and reaped: the process entry is gone, long before the
        // 30 s sleep would have ended.
        assert!(!proc_dir.exists(), "child outlived its guard");
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
