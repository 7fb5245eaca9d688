//! One loopback connection speaking the sp-serve wire protocol, with
//! sends and receives split so a `MOVE` can stay in flight while the
//! driver queries on another connection.

use sp_core::ServiceScheme;
use sp_serve::wire::{
    decode_response, encode_bodyless, encode_move, encode_query, write_frame, FrameReader,
    QueryReply, Response, OP_INFO, OP_SHUTDOWN, OP_STATS,
};
use sp_serve::StatsSnapshot;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the driver waits for any one reply before calling the run
/// failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    stream: TcpStream,
    /// Poll the socket instead of sleeping in `read`: a sleeping driver
    /// adds its own wake-up to every round trip, and on a virtual
    /// machine that wake-up sets the tail. It polls through publishes
    /// too: a driver that sleeps there lets the scheduler put it on the
    /// server worker's core, where its polling then starves the worker.
    /// Only for loads that leave a core free for the polling driver.
    poll: bool,
    reader: FrameReader,
    out: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            poll: false,
            reader: FrameReader::new(),
            out: Vec::new(),
            chunk: vec![0u8; 64 * 1024],
        })
    }

    /// Polls instead of sleeping on every read from now on.
    pub fn poll(&mut self) -> Result<(), String> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| format!("socket options: {e}"))?;
        self.poll = true;
        Ok(())
    }

    fn read_some(&mut self) -> Result<usize, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.stream.read(&mut self.chunk) {
                Err(e) if self.poll && e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err("recv: timed out".to_owned());
                    }
                    std::hint::spin_loop();
                }
                other => return other.map_err(|e| format!("recv: {e}")),
            }
        }
    }

    fn send(&mut self) -> Result<(), String> {
        write_frame(&mut self.stream, &self.out).map_err(|e| format!("send: {e}"))
    }

    pub fn send_query(&mut self, src: u32, dst: u32, trace: bool) -> Result<(), String> {
        encode_query(&mut self.out, src, dst, ServiceScheme::Slgf2.code(), trace);
        self.send()
    }

    pub fn send_move(&mut self, batch: &[(u32, f64, f64)]) -> Result<(), String> {
        encode_move(&mut self.out, batch);
        self.send()
    }

    /// Reads one response; a server-side error response is an error.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => {
                    return match decode_response(frame) {
                        Ok(Response::Error { tag, name, .. }) => {
                            Err(format!("server error on tag {tag}: {name}"))
                        }
                        Ok(r) => Ok(r),
                        Err(e) => Err(format!("undecodable reply: {e}")),
                    }
                }
                Ok(None) => {}
                Err(e) => return Err(format!("bad framing: {e}")),
            }
            let n = self.read_some()?;
            if n == 0 {
                return Err("server closed the connection".to_owned());
            }
            self.reader.extend(&self.chunk[..n]);
        }
    }

    pub fn recv_query(&mut self) -> Result<QueryReply, String> {
        match self.recv()? {
            Response::Query(r) => Ok(r),
            other => Err(format!("wanted a QUERY reply, got {other:?}")),
        }
    }

    /// Reads a `MOVE` acknowledgement: `(epoch, nodes applied)`.
    pub fn recv_move(&mut self) -> Result<(u64, u32), String> {
        match self.recv()? {
            Response::Move { epoch, applied } => Ok((epoch, applied)),
            other => Err(format!("wanted a MOVE reply, got {other:?}")),
        }
    }

    /// `INFO`: `(epoch, nodes, workers)`.
    pub fn info(&mut self) -> Result<(u64, u32, u32), String> {
        encode_bodyless(&mut self.out, OP_INFO);
        self.send()?;
        match self.recv()? {
            Response::Info {
                epoch,
                nodes,
                workers,
            } => Ok((epoch, nodes, workers)),
            other => Err(format!("wanted an INFO reply, got {other:?}")),
        }
    }

    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        encode_bodyless(&mut self.out, OP_STATS);
        self.send()?;
        match self.recv()? {
            Response::Stats(r) => Ok(r.stats),
            other => Err(format!("wanted a STATS reply, got {other:?}")),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        encode_bodyless(&mut self.out, OP_SHUTDOWN);
        self.send()?;
        match self.recv()? {
            Response::Shutdown { .. } => Ok(()),
            other => Err(format!("wanted a SHUTDOWN reply, got {other:?}")),
        }
    }
}
