//! A small blocking client for the `sp-serve` wire protocol — the
//! load generator, the benches, and the end-to-end tests all speak
//! through it.
//!
//! One [`ServeClient`] owns one connection and reuses its encode /
//! frame buffers across requests (requests are serial per client;
//! concurrency comes from running many clients).

use crate::wire::{
    decode_response, encode_bodyless, encode_chaos, encode_move, encode_query, write_frame,
    FrameReader, ProtocolError, QueryReply, Response, StatsReply, OP_INFO, OP_SHUTDOWN, OP_STATS,
};
use sp_core::ServiceScheme;
use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a request can fail with on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The peer's bytes did not decode (or ours were refused
    /// structurally while framing).
    Protocol(ProtocolError),
    /// The server answered with a named protocol error.
    Server {
        /// Tag of the failed request (0 when it never decoded).
        tag: u8,
        /// The error, reconstructed from its wire code.
        error: ProtocolError,
        /// The family name as the server sent it.
        name: String,
    },
    /// The server answered with the wrong response variant.
    Unexpected(&'static str),
    /// The connection closed before a full response arrived.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { tag, error, name } => {
                write!(f, "server error on tag {tag}: {name} ({error})")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: wanted {what}"),
            ClientError::Disconnected => write!(f, "connection closed mid-response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// One connection to an `sp-serve` server.
pub struct ServeClient {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    chunk: Vec<u8>,
}

impl ServeClient {
    /// Connects (Nagle off — requests are small and latency-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        drop(stream.set_nodelay(true));
        Ok(ServeClient {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            chunk: vec![0u8; 16 * 1024],
        })
    }

    /// Bounds every blocking read (`None` blocks forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends an already-encoded request payload and reads one
    /// response. The escape hatch the fuzz tests use to put arbitrary
    /// bytes on the wire.
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(decode_response(frame)?);
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(ClientError::Disconnected);
            }
            self.reader.extend(self.chunk.get(..n).unwrap_or(&[]));
        }
    }

    fn round_trip(&mut self) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &self.out)?;
        match self.read_response()? {
            Response::Error { tag, error, name } => Err(ClientError::Server { tag, error, name }),
            ok => Ok(ok),
        }
    }

    /// Routes one query; `trace` asks for the full hop path.
    pub fn query(
        &mut self,
        src: u32,
        dst: u32,
        scheme: ServiceScheme,
        trace: bool,
    ) -> Result<QueryReply, ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_query(&mut out, src, dst, scheme.code(), trace);
        self.out = out;
        match self.round_trip()? {
            Response::Query(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("QUERY reply")),
        }
    }

    /// Applies a mobility batch; returns `(epoch, nodes_moved)`.
    pub fn move_batch(&mut self, moves: &[(u32, f64, f64)]) -> Result<(u64, u32), ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_move(&mut out, moves);
        self.out = out;
        match self.round_trip()? {
            Response::Move { epoch, applied } => Ok((epoch, applied)),
            _ => Err(ClientError::Unexpected("MOVE reply")),
        }
    }

    /// Applies a chaos recipe; returns `(epoch, clauses)`.
    pub fn chaos(&mut self, round: u32, seed: u64, spec: &str) -> Result<(u64, u32), ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_chaos(&mut out, round, seed, spec);
        self.out = out;
        match self.round_trip()? {
            Response::Chaos { epoch, clauses } => Ok((epoch, clauses)),
            _ => Err(ClientError::Unexpected("CHAOS reply")),
        }
    }

    /// Fetches the aggregated telemetry counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_bodyless(&mut out, OP_STATS);
        self.out = out;
        match self.round_trip()? {
            Response::Stats(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("STATS reply")),
        }
    }

    /// Fetches `(epoch, nodes, workers)`.
    pub fn info(&mut self) -> Result<(u64, u32, u32), ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_bodyless(&mut out, OP_INFO);
        self.out = out;
        match self.round_trip()? {
            Response::Info {
                epoch,
                nodes,
                workers,
            } => Ok((epoch, nodes, workers)),
            _ => Err(ClientError::Unexpected("INFO reply")),
        }
    }

    /// Requests graceful shutdown; returns the epoch at shutdown. The
    /// server begins draining before it sends the acknowledgement, so
    /// once this returns the server is already stopping.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let mut out = std::mem::take(&mut self.out);
        encode_bodyless(&mut out, OP_SHUTDOWN);
        self.out = out;
        match self.round_trip()? {
            Response::Shutdown { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("SHUTDOWN reply")),
        }
    }
}
