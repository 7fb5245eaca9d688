//! The node runtime both engines drive: the processes, the liveness
//! table and one spare outbox, plus every process callback. An engine
//! decides only *when* a node runs and *where* its messages go: each
//! call takes a sink closure that drains the callback's outbox (the
//! round engine queues it for the next round, the asynchronous engine
//! pushes delayed copies onto its heap). The sink is generic, so the
//! round loop pays no dynamic dispatch.

use crate::{Ctx, NodeProcess};
use sp_net::{Network, NodeId};

/// A callback's outgoing messages: `None` addresses a broadcast,
/// `Some(v)` a unicast to `v`.
pub(crate) type Outbox<M> = Vec<(Option<NodeId>, M)>;

/// One process per network node, with its liveness flag.
pub(crate) struct Nodes<'n, P: NodeProcess> {
    pub(crate) net: &'n Network,
    pub(crate) procs: Vec<P>,
    pub(crate) alive: Vec<bool>,
    /// The drained outbox every callback borrows and hands back.
    spare: Outbox<P::Msg>,
    initialized: bool,
}

impl<'n, P: NodeProcess> Nodes<'n, P> {
    /// Creates one live process per node with the given factory.
    pub(crate) fn new(net: &'n Network, mut make: impl FnMut(NodeId) -> P) -> Nodes<'n, P> {
        Nodes {
            net,
            procs: (0..net.len()).map(|i| make(NodeId::new(i))).collect(),
            alive: vec![true; net.len()],
            spare: Vec::new(),
            initialized: false,
        }
    }

    /// Runs [`NodeProcess::on_init`] on every live node, once.
    pub(crate) fn init(&mut self, mut sink: impl FnMut(&mut Ctx<'_, P::Msg>)) {
        if std::mem::replace(&mut self.initialized, true) {
            return;
        }
        for i in 0..self.procs.len() {
            self.run(NodeId::new(i), &mut sink, |p, ctx| p.on_init(ctx));
        }
    }

    /// Marks `victim` dead; `false` if it already was. The engine then
    /// purges its in-flight messages and calls [`Nodes::notify_failed`].
    pub(crate) fn kill(&mut self, victim: NodeId) -> bool {
        std::mem::replace(&mut self.alive[victim.index()], false)
    }

    /// Runs [`NodeProcess::on_neighbor_failed`] on every live neighbor
    /// of `victim`.
    pub(crate) fn notify_failed(&mut self, victim: NodeId, sink: impl FnMut(&mut Ctx<'_, P::Msg>)) {
        self.notify_neighbors(victim, sink, |p, ctx| p.on_neighbor_failed(ctx, victim));
    }

    /// Revives a dead node (flapping recovery): it runs
    /// [`NodeProcess::on_rejoin`], then its live neighbors run
    /// [`NodeProcess::on_neighbor_recovered`]. Reviving a live node is a
    /// no-op.
    pub(crate) fn revive(&mut self, node: NodeId, mut sink: impl FnMut(&mut Ctx<'_, P::Msg>)) {
        if std::mem::replace(&mut self.alive[node.index()], true) {
            return;
        }
        self.run(node, &mut sink, |p, ctx| p.on_rejoin(ctx));
        self.notify_neighbors(node, sink, |p, ctx| p.on_neighbor_recovered(ctx, node));
    }

    /// Runs `callback` on every live neighbor of `node`: the one local
    /// repair path that kills and revivals share.
    fn notify_neighbors(
        &mut self,
        node: NodeId,
        mut sink: impl FnMut(&mut Ctx<'_, P::Msg>),
        callback: impl Fn(&mut P, &mut Ctx<'_, P::Msg>),
    ) {
        let net = self.net;
        for &v in net.neighbors(node) {
            self.run(v, &mut sink, &callback);
        }
    }

    /// Runs one process callback on `id` with the spare outbox and
    /// hands what it sent to `sink`. A dead node runs nothing; returns whether
    /// the callback ran.
    // sp-analyze: allow(index, node ids index the per-node arrays, all sized to the network at construction)
    pub(crate) fn run(
        &mut self,
        id: NodeId,
        mut sink: impl FnMut(&mut Ctx<'_, P::Msg>),
        callback: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    ) -> bool {
        if !self.alive[id.index()] {
            return false;
        }
        let mut ctx = Ctx {
            id,
            net: self.net,
            alive: &self.alive,
            outbox: std::mem::take(&mut self.spare),
        };
        callback(&mut self.procs[id.index()], &mut ctx);
        sink(&mut ctx);
        debug_assert!(ctx.outbox.is_empty(), "sinks drain every outbox");
        self.spare = ctx.outbox;
        true
    }
}

/// The live nodes one transmission reaches: every neighbor of `from`
/// for a broadcast, the target of a unicast only if it is adjacent.
pub(crate) fn receivers<'a>(
    net: &'a Network,
    alive: &'a [bool],
    from: NodeId,
    to: &'a Option<NodeId>,
) -> impl Iterator<Item = NodeId> + 'a {
    let targets = match to {
        None => net.neighbors(from),
        Some(v) if net.has_edge(from, *v) => std::slice::from_ref(v),
        Some(_) => &[],
    };
    targets.iter().copied().filter(move |v| alive[v.index()])
}
