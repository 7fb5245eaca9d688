//! The TCP front end: a fixed worker pool serving the wire protocol
//! over a shared [`RoutingService`].
//!
//! Shape:
//!
//! * one **accept thread** admits connections into an
//!   [`sp_sync::Admission`] queue; each queued `Conn` carries its own
//!   [`FrameReader`], so partially-read frames survive a hand-off
//!   between workers;
//! * `SP_SERVE_THREADS` **workers** each own one
//!   [`ServiceSession`] (pinned snapshot + reused route buffer) and a
//!   `ConnScratch` of reusable buffers, and serve connections in
//!   bounded **stints**: a worker stays on a connection while frames
//!   flow, and yields it back to the queue once it idles (or after
//!   `STINT_FRAMES` frames or `STINT_BUDGET` of wall time, so one
//!   epoch-publishing `MOVE` cannot buy a second stint for free)
//!   whenever other connections are waiting —
//!   so any number of concurrent connections make progress on a pool
//!   of any size, down to one worker. The steady-state `QUERY` path
//!   (decode → route → encode) performs **zero allocations**, enforced
//!   by the `sp-analyze` hot-function manifest. Sessions re-pin to the
//!   current epoch on every query, so a connection hopping between
//!   workers still observes nondecreasing epochs;
//! * an optional **exporter thread** appends a telemetry JSONL line
//!   every interval when `SP_SERVE_TELEMETRY` names a file.
//!
//! Every response carries the epoch it was answered against, so the
//! service's consistency contract — `answer.epoch <=`
//! [`RoutingService::epoch`] — survives the wire hop; the
//! `end_to_end` test races concurrent clients against live `MOVE` /
//! `CHAOS` churn to hold it. A `CHAOS` recipe is drawn on the epoch it
//! degrades, under the writer lock ([`RoutingService::apply_chaos`]),
//! so it keeps earlier `MOVE`s, and later `MOVE`s keep its plan in
//! force.
//!
//! Shutdown is graceful by construction: `SHUTDOWN` closes the queue,
//! one step under its lock that sets the drain deadline and wakes every
//! idle worker, before its ack is written, so a client that holds the
//! ack always finds the server stopping. The accept loop, woken by a
//! throwaway connection, finds its next admit refused and exits. Every
//! worker keeps draining its current connection (and any already-queued
//! ones) until EOF or the 5 s `DRAIN_TIMEOUT` — pipelined in-flight
//! requests always get their replies.

use crate::telemetry::Telemetry;
use crate::wire::{
    decode_request, encode_epoch_ok, encode_error, encode_info_ok, encode_query_ok,
    encode_shutdown_ok, encode_stats_ok, write_frame, AnswerWire, FrameReader, ProtocolError,
    ProtocolErrorKind, Request, OP_CHAOS, OP_MOVE, OP_QUERY,
};
use sp_core::{RoutingService, ServiceScheme, ServiceSession};
use sp_experiments::ChaosRecipe;
use sp_geom::{Point, Rect};
use sp_net::{Network, NodeId};
use sp_sync::Admission;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default listen address when `SP_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4617";

/// Per-connection read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Socket read timeout while a connection has the queue to itself: how
/// often the worker rechecks the drain deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Socket read timeout while other connections are waiting in the
/// queue: long enough to catch the next request of a loopback
/// request–response client, short enough to rotate promptly.
const ROTATE_TIMEOUT: Duration = Duration::from_millis(2);

/// Frames a worker serves in one stint before yielding the connection
/// back to a non-empty queue — the fairness bound that keeps one
/// streaming client from starving the rest.
const STINT_FRAMES: usize = 64;

/// Wall-clock bound on a stint while other connections wait. Frames
/// have wildly different costs (a `QUERY` routes in microseconds, a
/// `MOVE` republishes a whole epoch in milliseconds), so fairness
/// must be priced in time too: one expensive frame ends the stint.
const STINT_BUDGET: Duration = Duration::from_millis(5);

/// How long workers keep draining open connections after shutdown
/// begins.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Server configuration. [`ServeConfig::from_env`] reads the
/// registered knobs; the builders override per instance (tests and
/// benches bind ephemeral ports and skip telemetry).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker pool size (floored at 1).
    pub threads: usize,
    /// Telemetry JSONL path; `None` disables the exporter thread.
    pub telemetry: Option<String>,
    /// Interval between telemetry JSONL lines.
    pub telemetry_interval: Duration,
}

impl ServeConfig {
    /// The knob-driven configuration: `SP_SERVE_ADDR`,
    /// `SP_SERVE_THREADS`, `SP_SERVE_TELEMETRY`.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            addr: sp_sync::env_var("SP_SERVE_ADDR").unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
            threads: sp_sync::configured_threads_for("SP_SERVE_THREADS"),
            telemetry: sp_sync::env_var("SP_SERVE_TELEMETRY"),
            telemetry_interval: Duration::from_secs(1),
        }
    }

    /// An ephemeral-port loopback configuration with `threads` workers
    /// and no telemetry export — the test/bench shape.
    pub fn ephemeral(threads: usize) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads,
            telemetry: None,
            telemetry_interval: Duration::from_secs(1),
        }
    }

    /// Overrides the telemetry export path.
    pub fn with_telemetry(mut self, path: impl Into<String>, interval: Duration) -> ServeConfig {
        self.telemetry = Some(path.into());
        self.telemetry_interval = interval;
        self
    }
}

/// State shared by the accept loop, the workers, and the handle.
struct Shared {
    service: Arc<RoutingService>,
    /// The interest area every `MOVE` position must lie in.
    area: Rect,
    /// The wire-validation bound on node ids (ids stay index-aligned
    /// across every epoch).
    nodes: usize,
    telemetry: Telemetry,
    /// Connections waiting for a worker; closed once shutdown begins.
    queue: Admission<Conn>,
    addr: SocketAddr,
}

impl Shared {
    /// Closes the queue (which wakes every idle worker) and, on the
    /// closing call, wakes the accept loop with a throwaway loopback
    /// connection.
    fn begin_shutdown(&self) {
        if self.queue.close(DRAIN_TIMEOUT) {
            drop(TcpStream::connect(self.addr));
        }
    }
}

/// A running server: its bound address, the shared service, and the
/// thread handles [`ServerHandle::join`] waits on.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (the real port, also under port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served routing service — lets embedders (tests, benches)
    /// churn epochs directly next to wire traffic.
    pub fn service(&self) -> &Arc<RoutingService> {
        &self.shared.service
    }

    /// Aggregated telemetry, same data a `STATS` frame returns.
    pub fn stats(&self) -> crate::telemetry::StatsSnapshot {
        self.shared.telemetry.aggregate()
    }

    /// True once shutdown has begun (via wire `SHUTDOWN` or
    /// [`ServerHandle::shutdown`]).
    pub fn stopping(&self) -> bool {
        self.shared.queue.closed()
    }

    /// Begins graceful shutdown (idempotent): stop accepting, drain
    /// open connections, exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for every server thread to exit. Call after
    /// [`ServerHandle::shutdown`] (or after a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            drop(t.join());
        }
    }
}

/// Builds the service over `net` and starts serving `cfg.addr`.
/// Returns once the listener is bound and every thread is running —
/// [`ServerHandle::addr`] is immediately connectable.
pub fn serve(net: Network, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with(Arc::new(RoutingService::new(net.clone())), net, cfg)
}

/// [`serve`] over an existing service plus its epoch-0 topology
/// (`base` gives the area `MOVE` positions must lie in and the node
/// count ids are checked against).
pub fn serve_with(
    service: Arc<RoutingService>,
    base: Network,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.threads.max(1);
    let shared = Arc::new(Shared {
        service,
        area: base.area(),
        nodes: base.len(),
        telemetry: Telemetry::new(workers),
        queue: Admission::new(),
        addr,
    });
    let mut threads = Vec::with_capacity(workers + 2);
    for w in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sp-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared, w))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("sp-serve-accept".to_owned())
                .spawn(move || accept_loop(&shared, listener))?,
        );
    }
    if let Some(path) = cfg.telemetry.clone() {
        let shared = Arc::clone(&shared);
        let interval = cfg.telemetry_interval;
        threads.push(
            std::thread::Builder::new()
                .name("sp-serve-telemetry".to_owned())
                .spawn(move || exporter_loop(&shared, &path, interval))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Admits connections into the worker queue until it refuses one.
/// The throwaway wake connection from [`Shared::begin_shutdown`]
/// guarantees `accept` returns once more after the queue closes.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming().flatten() {
        drop(stream.set_nodelay(true));
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            continue;
        }
        let conn = Conn {
            stream,
            reader: FrameReader::new(),
            timeout: POLL_INTERVAL,
        };
        if shared.queue.admit(conn).is_err() {
            break;
        }
    }
}

/// A queued connection: the socket plus its framing state, which must
/// travel with it — a frame split across reads may be completed by a
/// different worker than the one that started it.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// The read timeout currently set on the socket, cached so stints
    /// only pay the `setsockopt` when crowding actually changes.
    timeout: Duration,
}

/// Per-worker reusable buffers: response scratch, the decoded `MOVE`
/// batch, and the read chunk. Reused across every connection and
/// request the worker serves.
struct ConnScratch {
    out: Vec<u8>,
    moves: Vec<(NodeId, Point)>,
    chunk: Vec<u8>,
}

/// How a stint ended: the connection is finished (EOF, transport
/// error, framing error, drain deadline) or merely idle while others
/// wait — put it back in the queue.
enum Stint {
    Closed,
    Yield,
}

/// One worker: pops connections off the shared queue and serves each
/// in stints with its own long-lived [`ServiceSession`], requeueing
/// connections that went idle while others wait.
fn worker_loop(shared: &Shared, w: usize) {
    let mut session = shared.service.session();
    let mut scratch = ConnScratch {
        out: Vec::new(),
        moves: Vec::new(),
        chunk: vec![0u8; READ_CHUNK],
    };
    while let Some(mut conn) = shared.queue.pop() {
        if let Stint::Yield = serve_stint(shared, &mut session, &mut scratch, &mut conn, w) {
            shared.queue.requeue(conn);
        }
    }
}

/// Serves one connection until it closes (EOF, transport error,
/// framing-level protocol error, or the post-shutdown drain deadline)
/// or until it idles while other connections are waiting — the
/// multiplexing that lets a fixed pool serve any number of concurrent
/// connections without starvation.
fn serve_stint(
    shared: &Shared,
    session: &mut ServiceSession<'_>,
    scratch: &mut ConnScratch,
    conn: &mut Conn,
    w: usize,
) -> Stint {
    let ConnScratch { out, moves, chunk } = scratch;
    let mut served = 0usize;
    let started = Instant::now();
    loop {
        // Drain every complete frame already buffered.
        loop {
            match conn.reader.next_frame() {
                Ok(Some(frame)) => {
                    dispatch(shared, session, frame, out, moves, w);
                    if write_frame(&mut conn.stream, out).is_err() {
                        return Stint::Closed;
                    }
                    served += 1;
                }
                Ok(None) => break,
                Err(err) => {
                    // The byte stream can no longer be framed: report
                    // the named error and close.
                    shared.telemetry.with(w, |c| c.record_protocol_error());
                    encode_error(out, 0, err);
                    drop(write_frame(&mut conn.stream, out));
                    return Stint::Closed;
                }
            }
        }
        if shared.queue.drained() {
            return Stint::Closed;
        }
        let crowded = shared.queue.crowded();
        if crowded && (served >= STINT_FRAMES || started.elapsed() >= STINT_BUDGET) {
            return Stint::Yield;
        }
        let want = if crowded {
            ROTATE_TIMEOUT
        } else {
            POLL_INTERVAL
        };
        if conn.timeout != want {
            if conn.stream.set_read_timeout(Some(want)).is_err() {
                return Stint::Closed;
            }
            conn.timeout = want;
        }
        match conn.stream.read(chunk) {
            Ok(0) => return Stint::Closed,
            Ok(n) => conn.reader.extend(chunk.get(..n).unwrap_or(&[])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Idle: keep waiting if this connection has the pool
                // to itself, otherwise hand it back and serve others.
                if crowded {
                    return Stint::Yield;
                }
            }
            Err(_) => return Stint::Closed,
        }
    }
}

/// A decoded `QUERY` frame's fields, bundled to keep the hot-path
/// signature small.
struct QueryFrame {
    src: u32,
    dst: u32,
    scheme_code: u8,
    trace: bool,
}

/// Decodes one frame and encodes its response into `out`.
fn dispatch(
    shared: &Shared,
    session: &mut ServiceSession<'_>,
    frame: &[u8],
    out: &mut Vec<u8>,
    moves: &mut Vec<(NodeId, Point)>,
    w: usize,
) {
    let req = match decode_request(frame) {
        Ok(req) => req,
        Err(err) => {
            shared.telemetry.with(w, |c| c.record_protocol_error());
            encode_error(out, 0, err);
            return;
        }
    };
    match req {
        Request::Query {
            src,
            dst,
            scheme,
            trace,
        } => {
            serve_query(
                shared,
                session,
                out,
                QueryFrame {
                    src,
                    dst,
                    scheme_code: scheme,
                    trace,
                },
                w,
            );
        }
        Request::Move(batch) => {
            moves.clear();
            let mut bad = None;
            for (node, x, y) in batch.iter() {
                if node as usize >= shared.nodes {
                    bad = Some(ProtocolError::new(
                        ProtocolErrorKind::BadNodeId,
                        node as u64,
                    ));
                    break;
                }
                // Non-finite and out-of-area positions alike: §3 keeps
                // all communication inside the interest area.
                let p = Point::new(x, y);
                if !shared.area.contains(p) {
                    bad = Some(ProtocolError::new(
                        ProtocolErrorKind::BadCoordinate,
                        node as u64,
                    ));
                    break;
                }
                moves.push((NodeId(node), p));
            }
            if let Some(err) = bad {
                shared.telemetry.with(w, |c| c.record_protocol_error());
                encode_error(out, OP_MOVE, err);
                return;
            }
            let epoch = shared.service.apply_moves(moves);
            shared
                .telemetry
                .with(w, |c| c.record_move(moves.len() as u64));
            encode_epoch_ok(out, OP_MOVE, epoch, moves.len() as u32);
        }
        Request::Chaos { round, seed, spec } => match ChaosRecipe::parse(spec) {
            Ok(recipe) => {
                let plan = |net: &Network| recipe.build(net, seed);
                let epoch = shared.service.apply_chaos(plan, round as usize);
                shared.telemetry.with(w, |c| c.record_chaos());
                encode_epoch_ok(out, OP_CHAOS, epoch, recipe.clauses.len() as u32);
            }
            Err(_) => {
                shared.telemetry.with(w, |c| c.record_protocol_error());
                encode_error(
                    out,
                    OP_CHAOS,
                    ProtocolError::new(ProtocolErrorKind::BadSpec, spec.len() as u64),
                );
            }
        },
        Request::Stats => {
            let snap = shared.telemetry.aggregate();
            encode_stats_ok(out, shared.service.epoch(), &snap);
        }
        Request::Info => {
            encode_info_ok(
                out,
                shared.service.epoch(),
                shared.nodes as u32,
                shared.telemetry.workers() as u32,
            );
        }
        Request::Shutdown => {
            // Close before the caller writes the ack, so a requester
            // that hears back always finds the server stopping; the
            // drain keeps serving open connections, so it does hear
            // back.
            shared.begin_shutdown();
            encode_shutdown_ok(out, shared.service.epoch());
        }
    }
}

/// The steady-state query path: validate, route against the session's
/// pinned snapshot, encode (with the hop trace borrowed straight from
/// the session's reused route buffer when requested), record
/// telemetry. On the `sp-analyze` hot-function manifest: allocates
/// nothing once the worker's buffers are warm.
fn serve_query(
    shared: &Shared,
    session: &mut ServiceSession<'_>,
    out: &mut Vec<u8>,
    q: QueryFrame,
    w: usize,
) {
    let Some(scheme) = ServiceScheme::from_code(q.scheme_code) else {
        shared.telemetry.with(w, |c| c.record_protocol_error());
        encode_error(
            out,
            OP_QUERY,
            ProtocolError::new(ProtocolErrorKind::BadScheme, q.scheme_code as u64),
        );
        return;
    };
    if q.src as usize >= shared.nodes || q.dst as usize >= shared.nodes {
        let bad = if (q.src as usize) < shared.nodes {
            q.dst
        } else {
            q.src
        };
        shared.telemetry.with(w, |c| c.record_protocol_error());
        encode_error(
            out,
            OP_QUERY,
            ProtocolError::new(ProtocolErrorKind::BadNodeId, bad as u64),
        );
        return;
    }
    let start = Instant::now();
    let a = session.route_with(scheme, NodeId(q.src), NodeId(q.dst));
    let latency = start.elapsed();
    let wire = AnswerWire {
        epoch: session.epoch(),
        outcome: a.outcome,
        hops: a.hops as u32,
        length: a.length,
        perimeter: a.perimeter_entries as u32,
        backup: a.backup_entries as u32,
    };
    if q.trace {
        encode_query_ok(out, &wire, Some(session.last_path()));
    } else {
        encode_query_ok(out, &wire, None);
    }
    shared
        .telemetry
        .with(w, |c| c.record_query(&a, q.trace, latency));
}

/// Appends one telemetry JSONL line every `interval` until shutdown,
/// plus a final line at exit.
fn exporter_loop(shared: &Shared, path: &str, interval: Duration) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    let Ok(mut file) = file else { return };
    let step = Duration::from_millis(50).min(interval.max(Duration::from_millis(1)));
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval && !shared.queue.closed() {
            std::thread::sleep(step);
            waited += step;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        if shared
            .telemetry
            .write_jsonl(&mut file, shared.service.epoch(), ts)
            .is_err()
            || shared.queue.closed()
        {
            return;
        }
    }
}
