//! The server child: this same binary in `--serve` mode builds the
//! field and calls `sp_serve::serve_with` on it, so the child's memory
//! and start-up time are the server's alone.

use crate::client::Conn;
use crate::field::{self, Kind};
use sp_core::RoutingService;
use sp_serve::{serve_with, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a stopped child may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// `--serve` mode: build, serve, report readiness on stdout, and run
/// until a client sends `SHUTDOWN` (or the driver's end of stdin closes,
/// so a driver that dies never leaves a server behind).
pub fn serve_main(kind: Kind, field_seed: u64) -> Result<(), String> {
    let t0 = Instant::now();
    let net = field::build(kind, field_seed);
    let t1 = Instant::now();
    let service = Arc::new(RoutingService::new(net.clone()));
    let t2 = Instant::now();
    let cfg = ServeConfig::ephemeral(ServeConfig::from_env().threads);
    let handle = serve_with(service, net, cfg).map_err(|e| format!("serve: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {} {}",
        handle.addr(),
        (t1 - t0).as_secs_f64() * 1e3,
        (t2 - t1).as_secs_f64() * 1e3
    )
    .and_then(|()| out.flush())
    .map_err(|e| format!("stdout: {e}"))?;
    drop(out);
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    handle.join();
    Ok(())
}

/// A running server child. Dropping it kills the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Child-side deploy + `Network::from_positions`, ms.
    pub build_ms: f64,
    /// Child-side `RoutingService::new` (`SafetyInfo::build`), ms.
    pub safety_ms: f64,
}

/// Starts a child on `kind`/`field_seed` and returns it with a connection
/// that has had its first `INFO` answered, plus the seconds that took
/// from spawn.
pub fn start(kind: Kind, field_seed: u64) -> Result<(Server, Conn, f64), String> {
    let t0 = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--serve",
            kind.name(),
            "--field-seed",
            &field_seed.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let stdout = child.stdout.take().ok_or("server stdout missing")?;
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        build_ms: 0.0,
        safety_ms: 0.0,
    };
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("server ready line: {e}"))?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    let [_, addr, build, safety] = parts[..] else {
        return Err(format!("server did not start: {line:?}"));
    };
    server.addr = addr
        .parse()
        .map_err(|e| format!("server address {addr}: {e}"))?;
    server.build_ms = build.parse().map_err(|e| format!("build time: {e}"))?;
    server.safety_ms = safety.parse().map_err(|e| format!("safety time: {e}"))?;
    let mut conn = Conn::connect(server.addr)?;
    let (epoch, nodes, _) = conn.info()?;
    let setup_s = t0.elapsed().as_secs_f64();
    if epoch != 0 || nodes as usize != field::NODES {
        return Err(format!("INFO answered epoch {epoch}, {nodes} nodes"));
    }
    Ok((server, conn, setup_s))
}

impl Server {
    /// The child's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Sends `SHUTDOWN` on the first connection, closes every
    /// connection so the workers drain at once, and waits for the child.
    pub fn stop(mut self, mut conns: Vec<Conn>) -> Result<(), String> {
        let ack = conns.first_mut().ok_or("no connection")?.shutdown();
        drop(conns);
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return ack,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".to_owned()),
                Err(e) => return Err(format!("wait server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
