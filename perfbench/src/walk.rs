//! The after-run walk over the request log. It always checks the
//! answers against the driver's own copy of each epoch's topology
//! (kept by replaying the same `MOVE` batches) and computes the run's
//! digest. In a traced run it also replays sampled requests through
//! each layer's public functions, timing every call as a child span of
//! the client span that recorded the request.

use crate::field::{self, Batch};
use crate::run::{Failures, MoveRec, Op, Phase, QueryRec, Workload};
use sp_core::{
    RouteOutcome, RoutingService, SafetyInfo, SafetyMap, SafetyTuple, ServiceScheme,
    ServiceSnapshot, ShapeMap,
};
use sp_net::{edge_nodes::edge_node_mask, Network, NodeId};
use sp_serve::wire::{decode_request, encode_move, encode_query, encode_query_ok, AnswerWire};
use sp_sync::EpochCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Every 8th query of the traced half is replayed: the traced ones and
/// as many untraced ones.
const QUERY_SAMPLE: u64 = 8;
/// `MOVE`s replayed per traced run, from the start of the traced half.
/// Each costs two labelings.
const MOVE_SAMPLES: usize = 32;
/// Calls per timing of a sub-microsecond function (frame decode and
/// encode), so the clock's own cost does not dominate.
const REPS: u32 = 32;

/// Replay samples per layer, in the units their names carry.
#[derive(Default)]
pub struct Layers {
    pub decode_query_us: Vec<f64>,
    pub route_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub encode_trace_us: Vec<f64>,
    pub read_self_us: Vec<f64>,
    pub read_rtt_us: Vec<f64>,
    pub refresh_us: Vec<f64>,
    pub decode_move_us: Vec<f64>,
    pub next_snapshot_ms: Vec<f64>,
    pub edge_mask_ms: Vec<f64>,
    pub label_ms: Vec<f64>,
    pub rounds: Vec<f64>,
    pub changed_ratio: Vec<f64>,
    pub shapes_ms: Vec<f64>,
    pub swap_us: Vec<f64>,
    pub write_self_ms: Vec<f64>,
    pub write_rtt_ms: Vec<f64>,
}

pub struct WalkOut {
    pub failures: Failures,
    pub digest: u64,
    pub digest_of: &'static str,
    pub layers: Option<Layers>,
}

/// FNV-1a over 64-bit words.
fn mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn outcome_code(o: RouteOutcome) -> u64 {
    match o {
        RouteOutcome::Delivered => 0,
        RouteOutcome::Stuck(at) => 1 + (u64::from(at.0) << 2),
        RouteOutcome::TtlExhausted => 2,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `reps` calls of `f`, returning microseconds per call.
fn per_call_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    secs(t.elapsed()) * 1e6 / f64::from(reps)
}

struct Walk {
    t0: Instant,
    failures: Failures,
    spans: Vec<String>,
}

impl Walk {
    /// One span line. Client spans are on the run's clock; replayed
    /// child spans are on the replay's clock, so only their lengths
    /// relate to the client span.
    fn span(&mut self, id: usize, name: &str, parent: Option<&str>, start: Instant, len: f64) {
        let start_us = secs(start.saturating_duration_since(self.t0)) * 1e6;
        let parent = parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        self.spans.push(format!(
            "{{\"id\": {id}, \"name\": \"{name}\", \"parent\": {parent}, \"start_us\": {start_us:.3}, \"end_us\": {:.3}}}",
            start_us + len
        ));
    }

    /// Checks a traced answer's path against the topology of its epoch.
    fn check_path(&mut self, q: &QueryRec, net: &Network) {
        let Some(path) = &q.reply.path else { return };
        let ok_len = path.len() == q.reply.hops as usize + 1;
        let ok_ends = path.first() == Some(&NodeId(q.src))
            && (!q.reply.delivered() || path.last() == Some(&NodeId(q.dst)));
        let bad_hop = path.windows(2).find(|h| !net.has_edge(h[0], h[1]));
        if !ok_len || !ok_ends || bad_hop.is_some() {
            self.failures.fail(format!(
                "query {} {}->{} at epoch {}: path of {} nodes for {} hops, bad hop {bad_hop:?}",
                q.seq,
                q.src,
                q.dst,
                q.reply.epoch,
                path.len(),
                q.reply.hops
            ));
        }
    }
}

pub fn walk(
    base: &Network,
    log: &[Op],
    batches: &[Batch],
    (w, seed, traced): (Workload, u64, bool),
    t0: Instant,
) -> WalkOut {
    let mut wk = Walk {
        t0,
        failures: Failures::default(),
        spans: Vec::new(),
    };
    let sampled =
        |q: &QueryRec| traced && q.phase == Phase::Traced && q.seq.is_multiple_of(QUERY_SAMPLE);
    let query_epochs: BTreeSet<u64> = log
        .iter()
        .filter_map(|op| match op {
            Op::Query(q) if sampled(q) => Some(q.reply.epoch),
            _ => None,
        })
        .collect();
    let mut replay = traced.then(|| Replay::new(base, batches, &query_epochs));
    let mut moves_left = MOVE_SAMPLES;

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut net = base.clone();
    let mut prev = base.clone();
    let mut epoch = 0u64;
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, op) in log.iter().enumerate() {
        match op {
            Op::Move(m) => {
                let next = match replay.as_mut() {
                    Some(r) if m.phase == Phase::Traced && moves_left > 0 => {
                        moves_left -= 1;
                        r.publish(&mut wk, i, m, &net, epoch)
                    }
                    _ => net.next_snapshot(&field::moves_of(&batches[m.batch])),
                };
                prev = std::mem::replace(&mut net, next);
                epoch += 1;
                if m.phase == Phase::Warm && w != Workload::ReadFa {
                    let labels = SafetyMap::label(&net);
                    mix(&mut digest, m.epoch);
                    mix(&mut digest, labels.rounds() as u64);
                    mix(&mut digest, labels.partially_unsafe_count() as u64);
                }
            }
            Op::Query(q) => {
                if q.reply.path.is_some() {
                    if q.reply.epoch == epoch {
                        wk.check_path(q, &net);
                    } else if epoch > 0 && q.reply.epoch == epoch - 1 {
                        wk.check_path(q, &prev);
                    } else {
                        wk.failures.fail(format!(
                            "query {} answered at epoch {} while the driver had sent {epoch} MOVEs",
                            q.seq, q.reply.epoch
                        ));
                    }
                }
                if q.phase == Phase::Warm && w == Workload::ReadFa {
                    mix(&mut digest, outcome_code(q.reply.outcome));
                    mix(&mut digest, u64::from(q.reply.hops));
                }
                if let Some(r) = replay.as_mut().filter(|_| sampled(q)) {
                    // Outside churn_ia no publish overlaps a query, so the
                    // current topology is the answer's epoch.
                    if w != Workload::ChurnIa && q.reply.epoch == epoch {
                        r.keep_epoch(epoch, &net);
                    }
                    by_epoch.entry(q.reply.epoch).or_default().push(i);
                }
            }
        }
    }
    let layers = replay.map(|r| {
        let layers = r.queries(&mut wk, log, by_epoch);
        let path = format!("perfbench/out/spans-{}-{seed}.jsonl", w.name());
        if let Err(e) = write_spans(&path, &wk.spans) {
            wk.failures.fail(format!("writing {path}: {e}"));
        }
        layers
    });
    WalkOut {
        failures: wk.failures,
        digest,
        digest_of: match w {
            Workload::ReadFa => "outcome and hops of the warm-up queries",
            Workload::PublishFa | Workload::ChurnIa => {
                "epoch, label rounds and unsafe-node count of the warm-up publishes"
            }
        },
        layers,
    }
}

fn write_spans(path: &str, spans: &[String]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(f, "{s}")?;
    }
    f.flush()
}

/// The traced replay's state: a routing service that follows the
/// sampled publishes (for `ServiceSession::refresh`), a snapshot cell
/// for the swap, and the snapshots of the epochs queries are replayed
/// on.
struct Replay<'b> {
    layers: Layers,
    batches: &'b [Batch],
    service: RoutingService,
    cell: EpochCell<(Network, SafetyInfo)>,
    prev_tuples: Option<(u64, Vec<SafetyTuple>)>,
    snaps: BTreeMap<u64, ServiceSnapshot>,
    wanted: &'b BTreeSet<u64>,
}

impl<'b> Replay<'b> {
    fn new(base: &Network, batches: &'b [Batch], wanted: &'b BTreeSet<u64>) -> Replay<'b> {
        let service = RoutingService::new(base.clone());
        let snap = service.snapshot();
        let info = snap.value.info().clone();
        let mut snaps = BTreeMap::new();
        if wanted.contains(&0) {
            snaps.insert(0, snap.value.as_ref().clone());
        }
        Replay {
            layers: Layers::default(),
            batches,
            prev_tuples: Some((0, info.safety().tuples().to_vec())),
            cell: EpochCell::new((base.clone(), info)),
            service,
            snaps,
            wanted,
        }
    }

    /// Keeps `net` as the snapshot of `epoch` for the query replay.
    fn keep_epoch(&mut self, epoch: u64, net: &Network) {
        self.snaps
            .entry(epoch)
            .or_insert_with(|| ServiceSnapshot::build(net.clone()));
    }

    /// Replays one `MOVE` through the write path's layers and returns the
    /// next topology. Mirrors `RoutingService::apply_moves`, whose
    /// `ServiceSnapshot::build` is `SafetyMap::label` (edge mask, then
    /// labeling) plus `ShapeMap::build`.
    fn publish(
        &mut self,
        wk: &mut Walk,
        id: usize,
        m: &MoveRec,
        net: &Network,
        epoch: u64,
    ) -> Network {
        let batch = &self.batches[m.batch];
        let l = &mut self.layers;
        let mut frame = Vec::new();
        encode_move(&mut frame, batch);
        let decode_us = per_call_us(REPS, || {
            black_box(decode_request(black_box(&frame)).is_ok());
        });
        let moves = field::moves_of(batch);
        let t = Instant::now();
        let next = net.next_snapshot(&moves);
        let t_next = t.elapsed();
        let t = Instant::now();
        let mask = edge_node_mask(&next, next.radius());
        let t_mask = t.elapsed();
        let t = Instant::now();
        let safety = SafetyMap::label_with_pinned(&next, mask);
        let t_label = t.elapsed();
        let t = Instant::now();
        let shapes = ShapeMap::build(&next, &safety);
        let t_shapes = t.elapsed();
        let tuples = safety.tuples();
        if let Some((e, prev)) = &self.prev_tuples {
            if *e == epoch {
                let changed = tuples.iter().zip(prev).filter(|(a, b)| a != b).count();
                l.changed_ratio.push(changed as f64 / tuples.len() as f64);
            }
        }
        self.prev_tuples = Some((epoch + 1, tuples.to_vec()));
        l.rounds.push(safety.rounds() as f64);
        let info = SafetyInfo::from_parts(safety, shapes);
        let t = Instant::now();
        self.cell.publish((next.clone(), info));
        let t_swap = t.elapsed();

        // The service follows, untimed (it relabels internally), so a
        // session pinned to the epoch before can time its refresh: its
        // pin is the last reference, so the refresh frees that snapshot
        // as it would on a server worker.
        let mut session = self.service.session();
        self.service.publish(next.clone());
        let t = Instant::now();
        session.refresh();
        l.refresh_us.push(secs(t.elapsed()) * 1e6);
        drop(session);
        if self.wanted.contains(&(epoch + 1)) {
            self.snaps
                .insert(epoch + 1, self.service.snapshot().value.as_ref().clone());
        }

        let rtt_ms = secs(m.rtt) * 1e3;
        let children_ms = decode_us / 1e3
            + (secs(t_next) + secs(t_mask) + secs(t_label) + secs(t_shapes) + secs(t_swap)) * 1e3;
        l.decode_move_us.push(decode_us);
        l.next_snapshot_ms.push(secs(t_next) * 1e3);
        l.edge_mask_ms.push(secs(t_mask) * 1e3);
        l.label_ms.push(secs(t_label) * 1e3);
        l.shapes_ms.push(secs(t_shapes) * 1e3);
        l.swap_us.push(secs(t_swap) * 1e6);
        l.write_rtt_ms.push(rtt_ms);
        l.write_self_ms.push(rtt_ms - children_ms);

        let now = Instant::now();
        wk.span(id, "client.move", None, m.start, secs(m.rtt) * 1e6);
        for (name, len) in [
            ("wire.decode_request", decode_us),
            ("net.next_snapshot", secs(t_next) * 1e6),
            ("net.edge_node_mask", secs(t_mask) * 1e6),
            ("core.label_with_pinned", secs(t_label) * 1e6),
            ("core.shape_map_build", secs(t_shapes) * 1e6),
            ("sync.epoch_cell_publish", secs(t_swap) * 1e6),
            ("serve.write_self", (rtt_ms - children_ms) * 1e3),
        ] {
            wk.span(id, name, Some("client.move"), now, len);
        }
        next
    }

    /// Replays the sampled queries, epoch by epoch, through frame
    /// decode, `ServiceSession::route_with` and response encode, and
    /// checks each replayed answer against the server's.
    fn queries(mut self, wk: &mut Walk, log: &[Op], by_epoch: BTreeMap<u64, Vec<usize>>) -> Layers {
        let l = &mut self.layers;
        let mut frame = Vec::new();
        let mut out = Vec::new();
        for (epoch, ids) in by_epoch {
            let Some(snap) = self.snaps.remove(&epoch) else {
                continue;
            };
            let service = RoutingService::from_snapshot(snap);
            let mut s = service.session();
            for &i in ids.iter().take(16) {
                if let Op::Query(q) = &log[i] {
                    s.route_with(ServiceScheme::Slgf2, NodeId(q.src), NodeId(q.dst));
                }
            }
            for i in ids {
                let Op::Query(q) = &log[i] else { continue };
                encode_query(
                    &mut frame,
                    q.src,
                    q.dst,
                    ServiceScheme::Slgf2.code(),
                    q.trace,
                );
                let decode_us = per_call_us(REPS, || {
                    black_box(decode_request(black_box(&frame)).is_ok());
                });
                let t = Instant::now();
                let a = s.route_with(ServiceScheme::Slgf2, NodeId(q.src), NodeId(q.dst));
                let route_us = secs(t.elapsed()) * 1e6;
                let r = &q.reply;
                let same = a.outcome == r.outcome
                    && a.hops == r.hops as usize
                    && a.perimeter_entries == r.perimeter as usize
                    && a.backup_entries == r.backup as usize
                    && r.path.as_deref().is_none_or(|p| p == s.last_path());
                if !same {
                    wk.failures.fail(format!(
                        "query {} {}->{} at epoch {epoch}: replay answered {:?} in {} hops, server {:?} in {}",
                        q.seq, q.src, q.dst, a.outcome, a.hops, r.outcome, r.hops
                    ));
                }
                let wire = AnswerWire {
                    epoch,
                    outcome: a.outcome,
                    hops: a.hops as u32,
                    length: a.length,
                    perimeter: a.perimeter_entries as u32,
                    backup: a.backup_entries as u32,
                };
                let encode_us = per_call_us(REPS, || {
                    encode_query_ok(&mut out, black_box(&wire), None);
                    black_box(&out);
                });
                let path = s.last_path();
                let encode_trace_us = per_call_us(REPS, || {
                    encode_query_ok(&mut out, black_box(&wire), Some(path));
                    black_box(&out);
                });
                let encoded = if q.trace { encode_trace_us } else { encode_us };
                let rtt_us = secs(q.rtt) * 1e6;
                let self_us = rtt_us - decode_us - route_us - encoded;
                l.decode_query_us.push(decode_us);
                l.route_us.push(route_us);
                l.encode_us.push(encode_us);
                l.encode_trace_us.push(encode_trace_us);
                l.read_rtt_us.push(rtt_us);
                l.read_self_us.push(self_us);

                let now = Instant::now();
                wk.span(i, "client.query", None, q.start, rtt_us);
                for (name, len) in [
                    ("wire.decode_request", decode_us),
                    ("service.route_with", route_us),
                    ("wire.encode_query_ok", encoded),
                    ("serve.read_self", self_us),
                ] {
                    wk.span(i, name, Some("client.query"), now, len);
                }
            }
        }
        self.layers
    }
}
