//! The `sp-serve` wire protocol: length-prefixed binary frames over
//! TCP.
//!
//! Every message is one **frame**: a little-endian `u32` payload
//! length followed by that many payload bytes, capped at
//! [`MAX_FRAME`]. Request payloads open with an opcode byte; response
//! payloads echo the request opcode as a tag byte, then a status byte
//! ([`ST_OK`] / [`ST_ERR`]).
//!
//! | Opcode | Request body | OK response body |
//! |---|---|---|
//! | `QUERY` (1) | `src u32, dst u32, scheme u8, flags u8` | `epoch u64, outcome u8, stuck u32, hops u32, length f64, perimeter u32, backup u32, traced u8 [, path_len u32, path u32×len]` |
//! | `MOVE` (2) | `count u32, count × (node u32, x f64, y f64)` | `epoch u64, applied u32` |
//! | `CHAOS` (3) | `round u32, seed u64, spec utf8…` | `epoch u64, clauses u32` |
//! | `STATS` (4) | — | `epoch u64,` [`StatsSnapshot`] fields |
//! | `SHUTDOWN` (5) | — | `epoch u64` |
//! | `INFO` (6) | — | `epoch u64, nodes u32, workers u32` |
//!
//! Malformed input of any shape — truncated frames, oversized length
//! headers, unknown opcodes, garbage bytes — decodes to a **named**
//! [`ProtocolError`], never a panic: the decoder touches bytes only
//! through checked cursors, and the fuzz/property tests in
//! `tests/wire_protocol.rs` hold it to that on arbitrary input.
//!
//! The decode → route → encode path is on the `sp-analyze`
//! hot-function manifest: [`decode_request`] borrows from the frame
//! (the `MOVE` batch stays raw until the server iterates it) and
//! [`encode_query_ok`] appends into a caller-reused buffer, so the
//! steady-state query path allocates nothing.

use crate::telemetry::StatsSnapshot;
use sp_core::RouteOutcome;
use sp_net::NodeId;

/// Hard cap on one frame's payload length: 1 MiB (a ~52k-node `MOVE`
/// batch). A longer length header is a [`ProtocolErrorKind::Oversized`]
/// protocol error, refused before any buffer grows to meet it.
pub const MAX_FRAME: usize = 1 << 20;

/// `QUERY` request opcode / response tag.
pub const OP_QUERY: u8 = 1;
/// `MOVE` request opcode / response tag.
pub const OP_MOVE: u8 = 2;
/// `CHAOS` request opcode / response tag.
pub const OP_CHAOS: u8 = 3;
/// `STATS` request opcode / response tag.
pub const OP_STATS: u8 = 4;
/// `SHUTDOWN` request opcode / response tag.
pub const OP_SHUTDOWN: u8 = 5;
/// `INFO` request opcode / response tag.
pub const OP_INFO: u8 = 6;

/// Response status byte: success.
pub const ST_OK: u8 = 0;
/// Response status byte: named protocol error follows.
pub const ST_ERR: u8 = 1;

/// `QUERY` flags bit: stream the full hop trace in the response.
pub const FLAG_TRACE: u8 = 1;

/// The named protocol-error families every malformed input maps to.
/// The discriminants are stable wire codes carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProtocolErrorKind {
    /// Payload ended before a field it promised.
    Truncated = 1,
    /// Frame length header exceeds [`MAX_FRAME`].
    Oversized = 2,
    /// Opcode byte names no known request.
    UnknownOpcode = 3,
    /// Scheme code names no servable scheme.
    BadScheme = 4,
    /// Node id at or beyond the topology's node count.
    BadNodeId = 5,
    /// A spec field was not valid UTF-8.
    BadUtf8 = 6,
    /// A chaos spec failed to parse or build.
    BadSpec = 7,
    /// Payload carried bytes past the request's last field.
    TrailingBytes = 8,
    /// Response status/tag bytes that fit no known shape (client side).
    BadResponse = 9,
    /// A `MOVE` position was NaN, infinite or outside the deployment
    /// area.
    BadCoordinate = 10,
}

impl ProtocolErrorKind {
    /// The stable wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code; unknown codes collapse to
    /// [`ProtocolErrorKind::BadResponse`].
    pub fn from_code(code: u8) -> ProtocolErrorKind {
        match code {
            1 => ProtocolErrorKind::Truncated,
            2 => ProtocolErrorKind::Oversized,
            3 => ProtocolErrorKind::UnknownOpcode,
            4 => ProtocolErrorKind::BadScheme,
            5 => ProtocolErrorKind::BadNodeId,
            6 => ProtocolErrorKind::BadUtf8,
            7 => ProtocolErrorKind::BadSpec,
            8 => ProtocolErrorKind::TrailingBytes,
            10 => ProtocolErrorKind::BadCoordinate,
            _ => ProtocolErrorKind::BadResponse,
        }
    }

    /// The error family's name, as carried in error responses.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolErrorKind::Truncated => "truncated",
            ProtocolErrorKind::Oversized => "oversized",
            ProtocolErrorKind::UnknownOpcode => "unknown-opcode",
            ProtocolErrorKind::BadScheme => "bad-scheme",
            ProtocolErrorKind::BadNodeId => "bad-node-id",
            ProtocolErrorKind::BadUtf8 => "bad-utf8",
            ProtocolErrorKind::BadSpec => "bad-spec",
            ProtocolErrorKind::TrailingBytes => "trailing-bytes",
            ProtocolErrorKind::BadResponse => "bad-response",
            ProtocolErrorKind::BadCoordinate => "bad-coordinate",
        }
    }
}

/// A named protocol error: the family plus one numeric context word
/// (the offending opcode, node id, or length — whatever the family
/// finds useful). Carrying a number instead of a rendered string keeps
/// the hot decode path allocation-free; [`ProtocolError::message`]
/// renders lazily on the cold reporting path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolError {
    /// The error family.
    pub kind: ProtocolErrorKind,
    /// Family-specific context (offending opcode / id / length; 0 when
    /// meaningless).
    pub context: u64,
}

impl ProtocolError {
    /// Builds an error with context.
    pub fn new(kind: ProtocolErrorKind, context: u64) -> ProtocolError {
        ProtocolError { kind, context }
    }

    /// A human-readable rendering (cold path only).
    pub fn message(&self) -> String {
        format!("{} (context {})", self.kind.name(), self.context)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (context {})", self.kind.name(), self.context)
    }
}

impl std::error::Error for ProtocolError {}

/// A checked byte cursor: every read is bounds-checked and the only
/// failure mode is [`ProtocolErrorKind::Truncated`]. No indexing, no
/// panics.
struct Cur<'a> {
    rest: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(rest: &'a [u8]) -> Cur<'a> {
        Cur { rest }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.rest.len() < n {
            return Err(ProtocolError::new(
                ProtocolErrorKind::Truncated,
                self.rest.len() as u64,
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(b);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Everything left, consuming the cursor.
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Asserts the payload is fully consumed.
    fn done(&self) -> Result<(), ProtocolError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::new(
                ProtocolErrorKind::TrailingBytes,
                self.rest.len() as u64,
            ))
        }
    }
}

/// Bytes per `MOVE` entry: `node u32, x f64, y f64`.
const MOVE_ENTRY: usize = 4 + 8 + 8;

/// A `MOVE` request's batch, still in wire form: the server iterates
/// it into a reused scratch vector instead of the decoder allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveBatch<'a> {
    count: u32,
    data: &'a [u8],
}

impl<'a> MoveBatch<'a> {
    /// Declared entry count (the byte length is validated against it
    /// at decode time).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `(node, x, y)` entries, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64, f64)> + 'a {
        self.data.chunks_exact(MOVE_ENTRY).map(|chunk| {
            let mut cur = Cur::new(chunk);
            // A chunks_exact chunk always holds one full entry, so
            // these reads cannot fail.
            let node = cur.u32().unwrap_or(0);
            let x = cur.f64().unwrap_or(0.0);
            let y = cur.f64().unwrap_or(0.0);
            (node, x, y)
        })
    }
}

/// One decoded request, borrowing from the frame payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request<'a> {
    /// Route one query.
    Query {
        /// Source node id (validated against the topology upstream).
        src: u32,
        /// Destination node id.
        dst: u32,
        /// Scheme wire code ([`sp_core::ServiceScheme::from_code`]).
        scheme: u8,
        /// True when the response must stream the full hop trace.
        trace: bool,
    },
    /// Apply a mobility batch, publishing a new epoch.
    Move(MoveBatch<'a>),
    /// Apply a chaos recipe, publishing a new epoch.
    Chaos {
        /// Observation round the plan is evaluated at.
        round: u32,
        /// Seed for the recipe's randomized clauses.
        seed: u64,
        /// The chaos spec string (`class:k=v[@roundN]+…`).
        spec: &'a str,
    },
    /// Aggregate and return the telemetry counters.
    Stats,
    /// Begin graceful shutdown (drain, then exit).
    Shutdown,
    /// Topology and server facts.
    Info,
}

impl Request<'_> {
    /// The opcode this request answers under.
    pub fn tag(&self) -> u8 {
        match self {
            Request::Query { .. } => OP_QUERY,
            Request::Move(_) => OP_MOVE,
            Request::Chaos { .. } => OP_CHAOS,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Info => OP_INFO,
        }
    }
}

/// Decodes one request payload. Never panics: every malformed shape
/// maps to a named [`ProtocolError`]. Borrows from `payload` — the
/// steady-state query path allocates nothing here.
pub fn decode_request(payload: &[u8]) -> Result<Request<'_>, ProtocolError> {
    let mut cur = Cur::new(payload);
    let op = cur.u8()?;
    match op {
        OP_QUERY => {
            let src = cur.u32()?;
            let dst = cur.u32()?;
            let scheme = cur.u8()?;
            let flags = cur.u8()?;
            cur.done()?;
            Ok(Request::Query {
                src,
                dst,
                scheme,
                trace: flags & FLAG_TRACE != 0,
            })
        }
        OP_MOVE => {
            let count = cur.u32()?;
            let data = cur.take((count as usize).saturating_mul(MOVE_ENTRY))?;
            cur.done()?;
            Ok(Request::Move(MoveBatch { count, data }))
        }
        OP_CHAOS => {
            let round = cur.u32()?;
            let seed = cur.u64()?;
            let raw = cur.rest();
            let spec = std::str::from_utf8(raw).map_err(|e| {
                ProtocolError::new(ProtocolErrorKind::BadUtf8, e.valid_up_to() as u64)
            })?;
            Ok(Request::Chaos { round, seed, spec })
        }
        OP_STATS => {
            cur.done()?;
            Ok(Request::Stats)
        }
        OP_SHUTDOWN => {
            cur.done()?;
            Ok(Request::Shutdown)
        }
        OP_INFO => {
            cur.done()?;
            Ok(Request::Info)
        }
        other => Err(ProtocolError::new(
            ProtocolErrorKind::UnknownOpcode,
            other as u64,
        )),
    }
}

/// Encodes a `QUERY` request payload into `out` (cleared first).
pub fn encode_query(out: &mut Vec<u8>, src: u32, dst: u32, scheme: u8, trace: bool) {
    out.clear();
    out.push(OP_QUERY);
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&dst.to_le_bytes());
    out.push(scheme);
    out.push(if trace { FLAG_TRACE } else { 0 });
}

/// Encodes a `MOVE` request payload into `out` (cleared first).
pub fn encode_move(out: &mut Vec<u8>, moves: &[(u32, f64, f64)]) {
    out.clear();
    out.push(OP_MOVE);
    out.extend_from_slice(&(moves.len() as u32).to_le_bytes());
    for &(node, x, y) in moves {
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&x.to_bits().to_le_bytes());
        out.extend_from_slice(&y.to_bits().to_le_bytes());
    }
}

/// Encodes a `CHAOS` request payload into `out` (cleared first).
pub fn encode_chaos(out: &mut Vec<u8>, round: u32, seed: u64, spec: &str) {
    out.clear();
    out.push(OP_CHAOS);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(spec.as_bytes());
}

/// Encodes a bodyless request (`STATS` / `SHUTDOWN` / `INFO`) into
/// `out` (cleared first).
pub fn encode_bodyless(out: &mut Vec<u8>, op: u8) {
    out.clear();
    out.push(op);
}

/// Wire codes for [`RouteOutcome`].
fn outcome_code(outcome: RouteOutcome) -> (u8, u32) {
    match outcome {
        RouteOutcome::Delivered => (0, 0),
        RouteOutcome::Stuck(at) => (1, at.0),
        RouteOutcome::TtlExhausted => (2, 0),
    }
}

/// Decodes an outcome wire code pair.
fn outcome_from_code(code: u8, stuck: u32) -> Result<RouteOutcome, ProtocolError> {
    match code {
        0 => Ok(RouteOutcome::Delivered),
        1 => Ok(RouteOutcome::Stuck(NodeId(stuck))),
        2 => Ok(RouteOutcome::TtlExhausted),
        other => Err(ProtocolError::new(
            ProtocolErrorKind::BadResponse,
            other as u64,
        )),
    }
}

/// The fixed part of a `QUERY` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerWire {
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Terminal route status.
    pub outcome: RouteOutcome,
    /// Hops walked.
    pub hops: u32,
    /// Euclidean path length.
    pub length: f64,
    /// Perimeter-phase entries.
    pub perimeter: u32,
    /// Backup-phase entries.
    pub backup: u32,
}

/// Encodes a successful `QUERY` response into `out` (cleared first),
/// streaming the hop trace when `path` is supplied. Appends into the
/// caller's reused buffer — zero allocation in the steady state.
pub fn encode_query_ok(out: &mut Vec<u8>, a: &AnswerWire, path: Option<&[NodeId]>) {
    out.clear();
    out.push(OP_QUERY);
    out.push(ST_OK);
    out.extend_from_slice(&a.epoch.to_le_bytes());
    let (code, stuck) = outcome_code(a.outcome);
    out.push(code);
    out.extend_from_slice(&stuck.to_le_bytes());
    out.extend_from_slice(&a.hops.to_le_bytes());
    out.extend_from_slice(&a.length.to_bits().to_le_bytes());
    out.extend_from_slice(&a.perimeter.to_le_bytes());
    out.extend_from_slice(&a.backup.to_le_bytes());
    match path {
        Some(path) => {
            out.push(1);
            out.extend_from_slice(&(path.len() as u32).to_le_bytes());
            for hop in path {
                out.extend_from_slice(&hop.0.to_le_bytes());
            }
        }
        None => out.push(0),
    }
}

/// Encodes an epoch-plus-count response (`MOVE` / `CHAOS`) into `out`
/// (cleared first).
pub fn encode_epoch_ok(out: &mut Vec<u8>, tag: u8, epoch: u64, count: u32) {
    out.clear();
    out.push(tag);
    out.push(ST_OK);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
}

/// Encodes a `SHUTDOWN` acknowledgement into `out` (cleared first).
pub fn encode_shutdown_ok(out: &mut Vec<u8>, epoch: u64) {
    out.clear();
    out.push(OP_SHUTDOWN);
    out.push(ST_OK);
    out.extend_from_slice(&epoch.to_le_bytes());
}

/// Encodes an `INFO` response into `out` (cleared first).
pub fn encode_info_ok(out: &mut Vec<u8>, epoch: u64, nodes: u32, workers: u32) {
    out.clear();
    out.push(OP_INFO);
    out.push(ST_OK);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&nodes.to_le_bytes());
    out.extend_from_slice(&workers.to_le_bytes());
}

/// Encodes a `STATS` response into `out` (cleared first).
pub fn encode_stats_ok(out: &mut Vec<u8>, epoch: u64, s: &StatsSnapshot) {
    out.clear();
    out.push(OP_STATS);
    out.push(ST_OK);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&s.workers.to_le_bytes());
    for v in [
        s.queries,
        s.delivered,
        s.traced,
        s.protocol_errors,
        s.move_batches,
        s.moved_nodes,
        s.chaos_batches,
        s.latency_count,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [s.latency_p50, s.latency_p95, s.latency_p99] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(s.hops_hist.len() as u32).to_le_bytes());
    for &b in &s.hops_hist {
        out.extend_from_slice(&b.to_le_bytes());
    }
}

/// Encodes a named protocol-error response into `out` (cleared
/// first): the tag it answers (0 when the request never decoded), the
/// error's wire code, its context word, and its family name. All
/// appends — no allocation, so even the error path stays reusable.
pub fn encode_error(out: &mut Vec<u8>, tag: u8, err: ProtocolError) {
    out.clear();
    out.push(tag);
    out.push(ST_ERR);
    out.push(err.kind.code());
    out.extend_from_slice(&err.context.to_le_bytes());
    out.extend_from_slice(err.kind.name().as_bytes());
}

/// A decoded `QUERY` response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Terminal route status.
    pub outcome: RouteOutcome,
    /// Hops walked.
    pub hops: u32,
    /// Euclidean path length.
    pub length: f64,
    /// Perimeter-phase entries.
    pub perimeter: u32,
    /// Backup-phase entries.
    pub backup: u32,
    /// The hop trace, when requested with [`FLAG_TRACE`].
    pub path: Option<Vec<NodeId>>,
}

impl QueryReply {
    /// True when the query's packet reached its destination.
    pub fn delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }
}

/// A decoded `STATS` response.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Epoch at aggregation time.
    pub epoch: u64,
    /// The aggregated counters.
    pub stats: StatsSnapshot,
}

/// One decoded response (client side; owns its data).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful `QUERY`.
    Query(QueryReply),
    /// Successful `MOVE`.
    Move {
        /// The epoch the batch published.
        epoch: u64,
        /// Nodes moved.
        applied: u32,
    },
    /// Successful `CHAOS`.
    Chaos {
        /// The epoch the chaos batch published.
        epoch: u64,
        /// Recipe clauses applied.
        clauses: u32,
    },
    /// Successful `STATS`.
    Stats(StatsReply),
    /// Successful `SHUTDOWN`.
    Shutdown {
        /// Epoch at shutdown.
        epoch: u64,
    },
    /// Successful `INFO`.
    Info {
        /// Current epoch.
        epoch: u64,
        /// Topology node count.
        nodes: u32,
        /// Server worker count.
        workers: u32,
    },
    /// A named protocol error from the server.
    Error {
        /// The tag of the request that failed (0 if it never decoded).
        tag: u8,
        /// The error, reconstructed from its wire code.
        error: ProtocolError,
        /// The family name as sent by the server.
        name: String,
    },
}

/// Decodes one response payload (client side — owned, cold path).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut cur = Cur::new(payload);
    let tag = cur.u8()?;
    let status = cur.u8()?;
    if status == ST_ERR {
        let code = cur.u8()?;
        let context = cur.u64()?;
        let name = String::from_utf8_lossy(cur.rest()).into_owned();
        return Ok(Response::Error {
            tag,
            error: ProtocolError::new(ProtocolErrorKind::from_code(code), context),
            name,
        });
    }
    if status != ST_OK {
        return Err(ProtocolError::new(
            ProtocolErrorKind::BadResponse,
            status as u64,
        ));
    }
    match tag {
        OP_QUERY => {
            let epoch = cur.u64()?;
            let code = cur.u8()?;
            let stuck = cur.u32()?;
            let hops = cur.u32()?;
            let length = cur.f64()?;
            let perimeter = cur.u32()?;
            let backup = cur.u32()?;
            let traced = cur.u8()?;
            let path = if traced != 0 {
                let len = cur.u32()? as usize;
                if len > MAX_FRAME / 4 {
                    return Err(ProtocolError::new(ProtocolErrorKind::Oversized, len as u64));
                }
                let mut path = Vec::with_capacity(len);
                for _ in 0..len {
                    path.push(NodeId(cur.u32()?));
                }
                Some(path)
            } else {
                None
            };
            cur.done()?;
            Ok(Response::Query(QueryReply {
                epoch,
                outcome: outcome_from_code(code, stuck)?,
                hops,
                length,
                perimeter,
                backup,
                path,
            }))
        }
        OP_MOVE => {
            let epoch = cur.u64()?;
            let applied = cur.u32()?;
            cur.done()?;
            Ok(Response::Move { epoch, applied })
        }
        OP_CHAOS => {
            let epoch = cur.u64()?;
            let clauses = cur.u32()?;
            cur.done()?;
            Ok(Response::Chaos { epoch, clauses })
        }
        OP_STATS => {
            let epoch = cur.u64()?;
            let workers = cur.u32()?;
            let mut fixed = [0u64; 8];
            for slot in &mut fixed {
                *slot = cur.u64()?;
            }
            let [queries, delivered, traced, protocol_errors, move_batches, moved_nodes, chaos_batches, latency_count] =
                fixed;
            let latency_p50 = cur.f64()?;
            let latency_p95 = cur.f64()?;
            let latency_p99 = cur.f64()?;
            let hist_len = cur.u32()? as usize;
            if hist_len > MAX_FRAME / 8 {
                return Err(ProtocolError::new(
                    ProtocolErrorKind::Oversized,
                    hist_len as u64,
                ));
            }
            let mut hops_hist = Vec::with_capacity(hist_len);
            for _ in 0..hist_len {
                hops_hist.push(cur.u64()?);
            }
            cur.done()?;
            Ok(Response::Stats(StatsReply {
                epoch,
                stats: StatsSnapshot {
                    workers,
                    queries,
                    delivered,
                    traced,
                    protocol_errors,
                    move_batches,
                    moved_nodes,
                    chaos_batches,
                    latency_count,
                    latency_p50,
                    latency_p95,
                    latency_p99,
                    hops_hist,
                },
            }))
        }
        OP_SHUTDOWN => {
            let epoch = cur.u64()?;
            cur.done()?;
            Ok(Response::Shutdown { epoch })
        }
        OP_INFO => {
            let epoch = cur.u64()?;
            let nodes = cur.u32()?;
            let workers = cur.u32()?;
            cur.done()?;
            Ok(Response::Info {
                epoch,
                nodes,
                workers,
            })
        }
        other => Err(ProtocolError::new(
            ProtocolErrorKind::BadResponse,
            other as u64,
        )),
    }
}

/// Writes one frame (length header + payload).
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental frame parser over a byte-stream transport. Bytes arrive
/// via [`FrameReader::extend`] in whatever chunks the socket yields;
/// [`FrameReader::next_frame`] hands back each complete frame's payload.
/// Robust to partial reads (a timeout mid-frame just means more bytes
/// later) and refuses oversized length headers before buffering toward
/// them.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly-read bytes, compacting consumed space first so
    /// the buffer's footprint tracks the in-flight data, not the
    /// connection's history.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, or `None` until more bytes
    /// arrive. An oversized length header is a named protocol error —
    /// the connection is poisoned (framing can no longer be trusted)
    /// and the caller should close it after reporting.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtocolError> {
        let pending = self.buf.get(self.start..).unwrap_or(&[]);
        let Some(header) = pending.get(..4) else {
            return Ok(None);
        };
        let mut raw = [0u8; 4];
        raw.copy_from_slice(header);
        let len = u32::from_le_bytes(raw) as usize;
        if len > MAX_FRAME {
            return Err(ProtocolError::new(ProtocolErrorKind::Oversized, len as u64));
        }
        let Some(payload) = pending.get(4..4 + len) else {
            return Ok(None);
        };
        self.start += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed (diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_roundtrips() {
        let mut out = Vec::new();
        encode_query(&mut out, 7, 942, 0, true);
        match decode_request(&out) {
            Ok(Request::Query {
                src,
                dst,
                scheme,
                trace,
            }) => {
                assert_eq!((src, dst, scheme, trace), (7, 942, 0, true));
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn move_request_roundtrips_entries() {
        let moves = [(3u32, 1.5f64, -2.5f64), (9, 0.0, 100.25)];
        let mut out = Vec::new();
        encode_move(&mut out, &moves);
        match decode_request(&out) {
            Ok(Request::Move(batch)) => {
                assert_eq!(batch.len(), 2);
                let got: Vec<_> = batch.iter().collect();
                assert_eq!(got, moves);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn chaos_request_roundtrips_spec() {
        let mut out = Vec::new();
        encode_chaos(&mut out, 5, 99, "region:r=0.15@round5");
        match decode_request(&out) {
            Ok(Request::Chaos { round, seed, spec }) => {
                assert_eq!((round, seed, spec), (5, 99, "region:r=0.15@round5"));
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_named_errors() {
        let mut out = Vec::new();
        encode_query(&mut out, 1, 2, 0, false);
        for cut in 0..out.len() {
            let err = decode_request(&out[..cut]).expect_err("prefix must fail");
            assert_eq!(err.kind, ProtocolErrorKind::Truncated, "cut={cut}");
        }
        out.push(0xAB);
        let err = decode_request(&out).expect_err("trailing byte must fail");
        assert_eq!(err.kind, ProtocolErrorKind::TrailingBytes);
    }

    #[test]
    fn unknown_opcode_is_a_named_error() {
        let err = decode_request(&[0x7F]).expect_err("unknown opcode");
        assert_eq!(err.kind, ProtocolErrorKind::UnknownOpcode);
        assert_eq!(err.context, 0x7F);
    }

    #[test]
    fn query_response_roundtrips_with_and_without_trace() {
        let a = AnswerWire {
            epoch: 12,
            outcome: RouteOutcome::Delivered,
            hops: 4,
            length: 61.25,
            perimeter: 1,
            backup: 0,
        };
        let path = [NodeId(1), NodeId(5), NodeId(9)];
        let mut out = Vec::new();
        for trace in [Some(&path[..]), None] {
            encode_query_ok(&mut out, &a, trace);
            match decode_response(&out) {
                Ok(Response::Query(r)) => {
                    assert_eq!(r.epoch, 12);
                    assert_eq!(r.outcome, RouteOutcome::Delivered);
                    assert_eq!(r.hops, 4);
                    assert_eq!(r.length, 61.25);
                    assert_eq!(r.path.as_deref(), trace);
                }
                other => panic!("bad decode: {other:?}"),
            }
        }
    }

    #[test]
    fn stuck_outcome_carries_the_node() {
        let a = AnswerWire {
            epoch: 1,
            outcome: RouteOutcome::Stuck(NodeId(77)),
            hops: 9,
            length: 130.0,
            perimeter: 2,
            backup: 1,
        };
        let mut out = Vec::new();
        encode_query_ok(&mut out, &a, None);
        match decode_response(&out) {
            Ok(Response::Query(r)) => assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(77))),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn error_response_roundtrips_kind_context_and_name() {
        let mut out = Vec::new();
        encode_error(
            &mut out,
            OP_QUERY,
            ProtocolError::new(ProtocolErrorKind::BadNodeId, 10_001),
        );
        match decode_response(&out) {
            Ok(Response::Error { tag, error, name }) => {
                assert_eq!(tag, OP_QUERY);
                assert_eq!(error.kind, ProtocolErrorKind::BadNodeId);
                assert_eq!(error.context, 10_001);
                assert_eq!(name, "bad-node-id");
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], &b""[..], &b"defgh"[..]] {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut reader = FrameReader::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        // Feed one byte at a time: every frame must still come out whole.
        for &b in &wire {
            reader.extend(&[b]);
            while let Some(frame) = reader.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"".to_vec(), b"defgh".to_vec()]);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn frame_reader_refuses_oversized_headers() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = reader.next_frame().expect_err("oversized header");
        assert_eq!(err.kind, ProtocolErrorKind::Oversized);
    }

    #[test]
    fn error_kinds_roundtrip_their_codes() {
        for kind in [
            ProtocolErrorKind::Truncated,
            ProtocolErrorKind::Oversized,
            ProtocolErrorKind::UnknownOpcode,
            ProtocolErrorKind::BadScheme,
            ProtocolErrorKind::BadNodeId,
            ProtocolErrorKind::BadUtf8,
            ProtocolErrorKind::BadSpec,
            ProtocolErrorKind::TrailingBytes,
            ProtocolErrorKind::BadResponse,
            ProtocolErrorKind::BadCoordinate,
        ] {
            assert_eq!(ProtocolErrorKind::from_code(kind.code()), kind);
            assert!(!kind.name().is_empty());
        }
    }
}
