//! The server under test: a `blitzsplit serve` child process, its
//! `METRICS` line, and its CPU time and peak memory from `/proc`.

use crate::workload::Workload;
use blitz_service::Client;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// The server binary, built next to this harness's own executable.
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(format!("blitzsplit{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "server binary {} is missing: build it into the same target directory \
                 (`cargo build --release --offline --bin blitzsplit`)",
                path.display()
            ),
        ))
    }
}

/// A running `blitzsplit serve`, killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Start `binary serve` with `workload`'s flags on a free loopback
    /// port and wait for its `listening on` line.
    pub fn spawn(binary: &Path, workload: Workload) -> io::Result<ServerProcess> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(workload.server_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProcess {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not report its address: {first:?}"
                )))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time and peak resident memory of a process.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), in MiB.
    pub rss_peak_mb: f64,
}

/// Clock ticks per second, from the `AT_CLKTCK` auxiliary-vector entry.
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let aux = std::fs::read("/proc/self/auxv").unwrap_or_default();
    aux.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, v)| v as f64)
}

/// [`Usage`] of process `pid` (this process when `None`); zeros where
/// `/proc` is unavailable.
pub fn usage(pid: Option<u32>) -> Usage {
    let dir = pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"));
    let ticks = std::fs::read_to_string(format!("{dir}/stat"))
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            Some(fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?)
        });
    let hwm_kb = std::fs::read_to_string(format!("{dir}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        });
    Usage {
        cpu_ms: ticks.unwrap_or(0.0) * 1000.0 / clock_ticks(),
        rss_peak_mb: hwm_kb.unwrap_or(0.0) / 1024.0,
    }
}

/// One `METRICS` line as numbers by key.
pub type Metrics = BTreeMap<String, f64>;

/// Fetch and parse the server's `METRICS` line over `client`.
pub fn metrics(client: &mut Client) -> io::Result<Metrics> {
    let line = client.metrics()?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// `key` in `m`, 0 when absent.
pub fn get(m: &Metrics, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_is_readable() {
        let u = usage(None);
        if Path::new("/proc/self/stat").exists() {
            assert!(u.rss_peak_mb > 0.0, "{u:?}");
            assert!(clock_ticks() > 0.0);
        }
    }
}
