//! The driver: picks the field, starts the server child, drives it
//! closed-loop over loopback, checks every answer, and reports.

use crate::client::Conn;
use crate::field::{self, Kind, Movers, MOVERS};
use crate::report::{self, mean, metric, percentile, Metric};
use crate::server::{self, Server};
use crate::walk::{self, Layers};
use sp_serve::wire::QueryReply;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Fixed warm-up before timing; the digest covers these operations.
const WARM_QUERIES: usize = 8192;
const WARM_MOVES: usize = 8;
const WARM_CYCLES: usize = 8;
/// Share of the measured time given to a probe of the path the
/// workload's own load does not use, so every run reports every
/// end-to-end metric.
const PROBE_SHARE: f64 = 0.3;
/// The timed phase runs in blocks of this many seconds, each the
/// workload's own load followed by its probe, so probe samples spread
/// over the whole run and see the same host conditions as the main load.
const BLOCK_S: f64 = 1.0;
/// Every 16th query asks for its hop trace.
const TRACE_EVERY: u64 = 16;
/// Local queries per `churn_ia` cycle.
const CHURN_K: usize = 500;
/// Largest distance between the endpoints of a local query, metres.
const LOCAL_M: f64 = 100.0;
/// Query pairs drawn per run; the stream cycles through them.
const POOL: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadFa,
    PublishFa,
    ChurnIa,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadFa, Workload::PublishFa, Workload::ChurnIa];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadFa => "read_fa",
            Workload::PublishFa => "publish_fa",
            Workload::ChurnIa => "churn_ia",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn kind(self) -> Kind {
        match self {
            Workload::ReadFa | Workload::PublishFa => Kind::Fa,
            Workload::ChurnIa => Kind::Ia,
        }
    }
}

/// Which part of a run an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    /// Timed, untraced.
    Measure,
    /// Timed, with client spans kept for the replay.
    Traced,
}

pub struct QueryRec {
    pub phase: Phase,
    /// The one-second block of the timed phase the query ran in.
    pub block: u32,
    pub seq: u64,
    pub src: u32,
    pub dst: u32,
    pub trace: bool,
    pub start: Instant,
    pub rtt: Duration,
    pub reply: QueryReply,
}

pub struct MoveRec {
    pub phase: Phase,
    pub batch: usize,
    pub start: Instant,
    pub rtt: Duration,
    /// Time blocked on the acknowledgement after the driver's other
    /// work was done.
    pub ack_wait: Duration,
    pub epoch: u64,
}

/// One request, in the order the driver sent it.
pub enum Op {
    Query(QueryRec),
    Move(MoveRec),
}

struct Driver {
    t0: Instant,
    block: u32,
    log: Vec<Op>,
    movers: Movers,
    pool: Vec<(u32, u32)>,
    queries: u64,
    moves_sent: u64,
    last_epoch: [u64; 2],
    failures: Failures,
}

/// Failed checks: how many, and the first few described.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

impl Driver {
    /// One closed-loop `QUERY` on connection `ci`.
    fn query(&mut self, conn: &mut Conn, ci: usize, phase: Phase) -> Result<(), String> {
        let seq = self.queries;
        let (src, dst) = self.pool[seq as usize % self.pool.len()];
        let trace = seq.is_multiple_of(TRACE_EVERY);
        let start = Instant::now();
        conn.send_query(src, dst, trace)?;
        let reply = conn.recv_query()?;
        let rtt = start.elapsed();
        self.queries += 1;
        if reply.epoch > self.moves_sent || reply.epoch < self.last_epoch[ci] {
            self.failures.fail(format!(
                "query {seq}: epoch {} after epoch {} with {} MOVEs sent",
                reply.epoch, self.last_epoch[ci], self.moves_sent
            ));
        }
        if reply.path.is_some() != trace {
            self.failures.fail(format!(
                "query {seq}: trace requested {trace}, path returned {}",
                !trace
            ));
        }
        self.last_epoch[ci] = self.last_epoch[ci].max(reply.epoch);
        self.log.push(Op::Query(QueryRec {
            phase,
            block: self.block,
            seq,
            src,
            dst,
            trace,
            start,
            rtt,
            reply,
        }));
        Ok(())
    }

    /// Writes the next `MOVE` without waiting; returns its log index.
    fn send_move(&mut self, conn: &mut Conn, phase: Phase) -> Result<usize, String> {
        let batch = self.movers.next_batch();
        let start = Instant::now();
        conn.send_move(&self.movers.batches[batch])?;
        self.moves_sent += 1;
        self.log.push(Op::Move(MoveRec {
            phase,
            batch,
            start,
            rtt: Duration::ZERO,
            ack_wait: Duration::ZERO,
            epoch: 0,
        }));
        Ok(self.log.len() - 1)
    }

    /// Reads the acknowledgement of the `MOVE` logged at `at`.
    fn await_move(&mut self, conn: &mut Conn, at: usize) -> Result<(), String> {
        let wait = Instant::now();
        let (epoch, applied) = conn.recv_move()?;
        let end = Instant::now();
        let Op::Move(m) = &mut self.log[at] else {
            return Err("MOVE log index points at a query".to_owned());
        };
        m.rtt = end - m.start;
        m.ack_wait = end - wait;
        m.epoch = epoch;
        let want = m.batch as u64 + 1;
        if epoch != want || applied as usize != MOVERS {
            self.failures.fail(format!(
                "MOVE {}: acked epoch {epoch} ({applied} applied), expected epoch {want}",
                want - 1
            ));
        }
        Ok(())
    }

    /// One unit of the workload's load.
    fn unit(&mut self, w: Workload, conns: &mut [Conn], phase: Phase) -> Result<(), String> {
        match w {
            Workload::ReadFa => self.query(&mut conns[0], 0, phase),
            Workload::PublishFa => {
                let at = self.send_move(&mut conns[0], phase)?;
                self.await_move(&mut conns[0], at)
            }
            Workload::ChurnIa => {
                let (movec, queryc) = conns.split_at_mut(1);
                let at = self.send_move(&mut movec[0], phase)?;
                for _ in 0..CHURN_K {
                    self.query(&mut queryc[0], 1, phase)?;
                }
                self.await_move(&mut movec[0], at)
            }
        }
    }

    /// Runs the whole load: the warm-up, then the timed phase (two
    /// halves, untraced and traced, in a traced run). Returns the wall
    /// time of each block's query load, by block.
    fn drive(
        &mut self,
        w: Workload,
        conns: &mut [Conn],
        seconds: f64,
        traced: bool,
    ) -> Result<BTreeMap<u32, Duration>, String> {
        let warm = match w {
            Workload::ReadFa => WARM_QUERIES,
            Workload::PublishFa => WARM_MOVES,
            Workload::ChurnIa => WARM_CYCLES,
        };
        for _ in 0..warm {
            self.unit(w, conns, Phase::Warm)?;
        }
        let parts = match w {
            Workload::ReadFa => vec![(w, 1.0 - PROBE_SHARE), (Workload::PublishFa, PROBE_SHARE)],
            Workload::PublishFa => vec![(w, 1.0 - PROBE_SHARE), (Workload::ReadFa, PROBE_SHARE)],
            Workload::ChurnIa => vec![(w, 1.0)],
        };
        let halves: &[(Phase, f64)] = if traced {
            &[(Phase::Measure, 0.5), (Phase::Traced, 0.5)]
        } else {
            &[(Phase::Measure, 1.0)]
        };
        let mut query_walls = BTreeMap::new();
        for &(phase, share) in halves {
            let end = Instant::now() + Duration::from_secs_f64(seconds * share);
            while Instant::now() < end {
                self.block += 1;
                for &(unit, part) in &parts {
                    let start = Instant::now();
                    let stop = start + Duration::from_secs_f64(BLOCK_S * part);
                    loop {
                        self.unit(unit, conns, phase)?;
                        if Instant::now() >= stop.min(end) {
                            break;
                        }
                    }
                    if unit != Workload::PublishFa {
                        query_walls.insert(self.block, start.elapsed());
                    }
                }
            }
        }
        Ok(query_walls)
    }

    /// Compares the server's `STATS` with the driver's own tally.
    fn check_stats(&mut self, conn: &mut Conn) -> Result<(), String> {
        let s = conn.stats()?;
        let (mut queries, mut delivered, mut traced, mut moves) = (0u64, 0u64, 0u64, 0u64);
        for op in &self.log {
            match op {
                Op::Query(q) => {
                    queries += 1;
                    delivered += u64::from(q.reply.delivered());
                    traced += u64::from(q.trace);
                }
                Op::Move(_) => moves += 1,
            }
        }
        let server = (
            s.queries,
            s.delivered,
            s.traced,
            s.move_batches,
            s.protocol_errors,
        );
        let driver = (queries, delivered, traced, moves, 0);
        if server != driver {
            self.failures.fail(format!(
                "STATS (queries, delivered, traced, move_batches, protocol_errors) = {server:?}, driver tally {driver:?}"
            ));
        }
        Ok(())
    }
}

/// What one timed phase measured, end to end.
struct EndToEnd {
    query_rps: f64,
    query_p50_us: f64,
    query_p90_us: f64,
    query_p99_us: f64,
    publish_p50_ms: f64,
    publish_p90_ms: f64,
    delivery_ratio: f64,
    hops_mean: f64,
    ack_wait_ms: f64,
    perimeter_per_query: f64,
    backup_per_query: f64,
}

/// End-to-end figures of one timed phase.
fn end_to_end(log: &[Op], query_walls: &BTreeMap<u32, Duration>, phase: Phase) -> EndToEnd {
    let qs: Vec<&QueryRec> = log
        .iter()
        .filter_map(|op| match op {
            Op::Query(q) if q.phase == phase => Some(q),
            _ => None,
        })
        .collect();
    let ms: Vec<&MoveRec> = log
        .iter()
        .filter_map(|op| match op {
            Op::Move(m) if m.phase == phase => Some(m),
            _ => None,
        })
        .collect();
    let rtt_us: Vec<f64> = qs.iter().map(|q| q.rtt.as_secs_f64() * 1e6).collect();
    // Rate and tails per one-second block, then the median block: a
    // burst of host preemption moves one block's figures, not the run's.
    let mut blocks: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (q, &rtt) in qs.iter().zip(&rtt_us) {
        blocks.entry(q.block).or_default().push(rtt);
    }
    let block_tail = |p: f64| {
        let tails: Vec<f64> = blocks.values().map(|b| percentile(b, p)).collect();
        percentile(&tails, 0.5)
    };
    let block_rps: Vec<f64> = blocks
        .iter()
        .filter_map(|(b, rtts)| {
            query_walls
                .get(b)
                .map(|wall| rtts.len() as f64 / wall.as_secs_f64())
        })
        .collect();
    let pub_ms: Vec<f64> = ms.iter().map(|m| m.rtt.as_secs_f64() * 1e3).collect();
    let delivered: Vec<f64> = qs
        .iter()
        .filter(|q| q.reply.delivered())
        .map(|q| f64::from(q.reply.hops))
        .collect();
    let n = qs.len() as f64;
    EndToEnd {
        query_rps: percentile(&block_rps, 0.5),
        query_p50_us: percentile(&rtt_us, 0.5),
        query_p90_us: block_tail(0.9),
        query_p99_us: block_tail(0.99),
        publish_p50_ms: percentile(&pub_ms, 0.5),
        publish_p90_ms: percentile(&pub_ms, 0.9),
        delivery_ratio: delivered.len() as f64 / n,
        hops_mean: mean(&delivered),
        ack_wait_ms: percentile(
            &ms.iter()
                .map(|m| m.ack_wait.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
            0.5,
        ),
        perimeter_per_query: qs.iter().map(|q| f64::from(q.reply.perimeter)).sum::<f64>() / n,
        backup_per_query: qs.iter().map(|q| f64::from(q.reply.backup)).sum::<f64>() / n,
    }
}

/// Runs one workload and prints its report; returns the exit code.
pub fn main(w: Workload, seed: u64, seconds: f64, traced: bool) -> i32 {
    match run(w, seed, seconds, traced) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {} seed {seed}: {e}", w.name());
            println!("run aborted: {e}");
            1
        }
    }
}

fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<i32, String> {
    let kind = w.kind();
    let (field_seed, base, depth) = field::choose(kind, seed);
    println!(
        "field {} seed {seed}: field seed {field_seed}, {} nodes, {} edges, cascade depth {depth}",
        kind.name(),
        base.len(),
        base.edge_count()
    );

    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut build_ms, mut safety_ms, mut ready_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        let (srv, conn, secs) = server::start(kind, field_seed)?;
        setup_s.push(secs);
        build_ms.push(srv.build_ms);
        safety_ms.push(srv.safety_ms);
        ready_ms.push(secs * 1e3 - srv.build_ms - srv.safety_ms);
        if k + 1 == SETUPS {
            kept = Some((srv, conn));
        } else {
            srv.stop(vec![conn])?;
        }
    }
    let (srv, first): (Server, Conn) = kept.ok_or("no server kept")?;
    let mut conns = vec![first];
    if w == Workload::ChurnIa {
        conns.push(Conn::connect(srv.addr)?);
    } else {
        // One connection, one server worker busy at a time: the polling
        // driver keeps busy threads within two cores. churn_ia already
        // has two busy workers, so its driver sleeps.
        conns[0].poll()?;
    }

    let local = (w == Workload::ChurnIa).then_some(LOCAL_M);
    let mut d = Driver {
        t0: Instant::now(),
        block: 0,
        // Room for the whole run up front: growing the log mid-run would
        // copy it inside the timed loop.
        log: Vec::with_capacity(WARM_QUERIES + (seconds * 40_000.0) as usize),
        movers: Movers::new(&base, seed),
        pool: field::query_pool(&base, seed, POOL, local),
        queries: 0,
        moves_sent: 0,
        last_epoch: [0; 2],
        failures: Failures::default(),
    };
    let walls = d.drive(w, &mut conns, seconds, traced)?;
    d.check_stats(&mut conns[0])?;
    let peak_rss_mb = srv.peak_rss_mb()?;
    srv.stop(conns)?;

    let out = walk::walk(&base, &d.log, &d.movers.batches, (w, seed, traced), d.t0);
    println!(
        "digest {} seed {seed}: {:016x} ({})",
        w.name(),
        out.digest,
        out.digest_of
    );
    let failed = d.failures.count + out.failures.count;
    let attempted = d.log.len() as u64 + SETUPS as u64 + 1;
    for note in d.failures.notes.iter().chain(&out.failures.notes) {
        println!("check failed: {note}");
    }

    let e2e = end_to_end(&d.log, &walls, Phase::Measure);
    let mut metrics = vec![
        metric("setup_s", percentile(&setup_s, 0.5), "s"),
        metric("query_p50_us", e2e.query_p50_us, "us"),
        metric("query_p90_us", e2e.query_p90_us, "us"),
        metric("publish_p50_ms", e2e.publish_p50_ms, "ms"),
        metric("delivery_ratio", e2e.delivery_ratio, "ratio"),
        metric("hops_mean", e2e.hops_mean, "count"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let failed_ratio = failed as f64 / attempted as f64;
    print_lines("", &metrics);
    println!("query_rps = {} 1/s", e2e.query_rps);
    println!("publish_p90_ms = {} ms", e2e.publish_p90_ms);
    println!("failed_ratio = {failed_ratio} ratio ({failed} of {attempted})");
    println!("driver.ack_wait_ms = {} ms", e2e.ack_wait_ms);

    if traced {
        let tr = end_to_end(&d.log, &walls, Phase::Traced);
        let (untraced_main, traced_main) = match w {
            Workload::PublishFa => (e2e.publish_p50_ms, tr.publish_p50_ms),
            Workload::ReadFa | Workload::ChurnIa => (e2e.query_p50_us, tr.query_p50_us),
        };
        let layers = out.layers.ok_or("traced run without layer samples")?;
        metrics = per_layer(&layers, &tr);
        metrics.extend([
            metric("net.build_ms", percentile(&build_ms, 0.5), "ms"),
            metric("core.safety_build_ms", percentile(&safety_ms, 0.5), "ms"),
            metric("serve.ready_ms", percentile(&ready_ms, 0.5), "ms"),
            metric(
                "net.bytes_per_node",
                base.memory_footprint().bytes_per_node(),
                "bytes",
            ),
            metric(
                "trace.overhead_pct",
                (traced_main - untraced_main) / untraced_main * 100.0,
                "%",
            ),
        ]);
        println!("traced half, end to end:");
        print_lines(
            "  ",
            &[
                metric("query_p50_us", tr.query_p50_us, "us"),
                metric("query_rps", tr.query_rps, "1/s"),
                metric("publish_p50_ms", tr.publish_p50_ms, "ms"),
            ],
        );
        print_lines("", &metrics);
        if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("per-layer metric {} has no samples", bad.name));
        }
    }
    let correct = failed == 0;
    report::print_result(correct, attempted, failed, &metrics);
    Ok(if correct { 0 } else { 1 })
}

fn print_lines(indent: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{indent}{} = {} {}", m.name, m.value, m.unit);
    }
}

/// The traced run's per-layer metrics. Unsuffixed times are means, so a
/// path's children and its self time add up to its round-trip mean.
fn per_layer(l: &Layers, tr: &EndToEnd) -> Vec<Metric> {
    let p = percentile;
    let write_rtt = mean(&l.write_rtt_ms);
    let read_rtt = mean(&l.read_rtt_us);
    vec![
        metric("wire.decode_us", mean(&l.decode_query_us), "us"),
        metric("wire.encode_us", mean(&l.encode_us), "us"),
        metric("wire.encode_trace_us", mean(&l.encode_trace_us), "us"),
        metric("service.route_us.p50", p(&l.route_us, 0.5), "us"),
        metric("service.route_us.p99", p(&l.route_us, 0.99), "us"),
        metric("service.route_us", mean(&l.route_us), "us"),
        metric("service.refresh_us", mean(&l.refresh_us), "us"),
        metric("serve.read_self_us", mean(&l.read_self_us), "us"),
        metric("read.rtt_us", read_rtt, "us"),
        metric("read.route_share", mean(&l.route_us) / read_rtt, "ratio"),
        metric("read.query_p99_us", tr.query_p99_us, "us"),
        metric("read.query_rps", tr.query_rps, "1/s"),
        metric(
            "core.perimeter_entries_per_query",
            tr.perimeter_per_query,
            "count",
        ),
        metric(
            "core.backup_entries_per_query",
            tr.backup_per_query,
            "count",
        ),
        metric("wire.decode_move_us", mean(&l.decode_move_us), "us"),
        metric("net.next_snapshot_ms", mean(&l.next_snapshot_ms), "ms"),
        metric("net.edge_mask_ms", mean(&l.edge_mask_ms), "ms"),
        metric("core.label_ms", mean(&l.label_ms), "ms"),
        metric("core.label_ms.p50", p(&l.label_ms, 0.5), "ms"),
        metric("core.label_ms.p90", p(&l.label_ms, 0.9), "ms"),
        metric("core.label_rounds.p50", p(&l.rounds, 0.5), "count"),
        metric("core.label_rounds.max", p(&l.rounds, 1.0), "count"),
        metric(
            "core.label_rounds.mode_share",
            l.rounds.iter().filter(|&&r| r == p(&l.rounds, 0.5)).count() as f64
                / l.rounds.len() as f64,
            "ratio",
        ),
        metric("core.label_changed_ratio", mean(&l.changed_ratio), "ratio"),
        metric("core.shapes_ms", mean(&l.shapes_ms), "ms"),
        metric("sync.swap_us", mean(&l.swap_us), "us"),
        metric("serve.write_self_ms", mean(&l.write_self_ms), "ms"),
        metric("publish.rtt_ms", write_rtt, "ms"),
        metric("publish.p90_ms", tr.publish_p90_ms, "ms"),
        metric(
            "publish.label_share",
            mean(&l.label_ms) / write_rtt,
            "ratio",
        ),
        metric("driver.ack_wait_ms", tr.ack_wait_ms, "ms"),
    ]
}
