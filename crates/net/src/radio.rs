//! Radio energy and interference accounting.
//!
//! The paper motivates straightforward paths twice in its introduction:
//! a path that "avoids wasting energy in detours" and one where "less
//! interference occurs in other transmissions when fewer nodes are
//! involved in the transmission". This module quantifies both claims so
//! the experiment harness can report them (ablation A7, `repro-figures a7`):
//!
//! * [`RadioModel`] — the standard first-order radio model: transmitting
//!   `k` bits over distance `d` costs `E_elec·k + ε_amp·k·d^α`, receiving
//!   them costs `E_elec·k`;
//! * [`path_energy`](RadioModel::path_energy) — total transmit+receive
//!   energy of a multi-hop path;
//! * [`interference_set`] — the nodes that overhear at least one
//!   transmission of a path (the "other transmissions" a streaming flow
//!   would disturb).

use crate::{Network, NodeId};

/// The first-order radio energy model.
///
/// Energy is reported in **nanojoules**; distances are in the same unit
/// as node coordinates (meters for the paper's setup). The default
/// constants are the ones used throughout the WSN literature
/// (Heinzelman et al.): 50 nJ/bit electronics, 100 pJ/bit/m² amplifier,
/// free-space path-loss exponent 2 — appropriate for the paper's 20 m
/// radio range, far below the multipath crossover distance.
///
/// ```
/// use sp_net::RadioModel;
///
/// let radio = RadioModel::first_order();
/// // A 1000-bit packet over a full 20 m hop.
/// let tx = radio.tx_energy(1000.0, 20.0);
/// let rx = radio.rx_energy(1000.0);
/// assert!(tx > rx, "transmission also pays the amplifier");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Electronics energy per bit, transmit and receive side alike (nJ).
    pub elec_nj_per_bit: f64,
    /// Amplifier energy per bit per meter^`alpha` (nJ).
    pub amp_nj_per_bit: f64,
    /// Path-loss exponent `α` (2 for free space).
    pub path_loss_exponent: f64,
}

impl RadioModel {
    /// The standard first-order constants: `E_elec = 50 nJ/bit`,
    /// `ε_fs = 0.1 nJ/bit/m²`, `α = 2`.
    pub fn first_order() -> RadioModel {
        RadioModel {
            elec_nj_per_bit: 50.0,
            amp_nj_per_bit: 0.1,
            path_loss_exponent: 2.0,
        }
    }

    /// Energy (nJ) to transmit `bits` over `distance`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `distance` is negative.
    pub fn tx_energy(&self, bits: f64, distance: f64) -> f64 {
        assert!(bits >= 0.0, "bit count must be non-negative");
        assert!(distance >= 0.0, "distance must be non-negative");
        self.elec_nj_per_bit * bits
            + self.amp_nj_per_bit * bits * distance.powf(self.path_loss_exponent)
    }

    /// Energy (nJ) to receive `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is negative.
    pub fn rx_energy(&self, bits: f64) -> f64 {
        assert!(bits >= 0.0, "bit count must be non-negative");
        self.elec_nj_per_bit * bits
    }

    /// Energy (nJ) of one hop: the sender transmits, the receiver
    /// receives.
    pub fn hop_energy(&self, bits: f64, distance: f64) -> f64 {
        self.tx_energy(bits, distance) + self.rx_energy(bits)
    }

    /// Total energy (nJ) to push one `bits`-sized packet along `path` in
    /// `net` (every consecutive pair is one hop). An empty or
    /// single-node path costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if a path entry is out of range for `net`.
    pub fn path_energy(&self, net: &Network, path: &[NodeId], bits: f64) -> f64 {
        path.windows(2)
            .map(|w| self.hop_energy(bits, net.distance(w[0], w[1])))
            .sum()
    }
}

impl Default for RadioModel {
    fn default() -> RadioModel {
        RadioModel::first_order()
    }
}

/// The nodes that overhear at least one transmission of `path`: every
/// neighbor of a transmitting node (all path nodes except the final
/// destination), minus the path nodes themselves.
///
/// The result is sorted by id and duplicate-free.
///
/// ```
/// use sp_net::{radio::interference_set, Network, NodeId};
/// use sp_geom::{Point, Rect};
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
/// let net = Network::from_positions(
///     vec![
///         Point::new(0.0, 0.0),   // 0: source
///         Point::new(10.0, 0.0),  // 1: destination
///         Point::new(0.0, 10.0),  // 2: bystander in range of 0
///         Point::new(40.0, 40.0), // 3: out of range of everyone
///     ],
///     15.0,
///     area,
/// );
/// let set = interference_set(&net, &[NodeId(0), NodeId(1)]);
/// assert_eq!(set, vec![NodeId(2)]);
/// ```
pub fn interference_set(net: &Network, path: &[NodeId]) -> Vec<NodeId> {
    let mut on_path = vec![false; net.len()];
    for &u in path {
        on_path[u.index()] = true;
    }
    let mut overhears = vec![false; net.len()];
    for &u in path.iter().take(path.len().saturating_sub(1)) {
        for &v in net.neighbors(u) {
            if !on_path[v.index()] {
                overhears[v.index()] = true;
            }
        }
    }
    overhears
        .iter()
        .enumerate()
        .filter(|&(_, &o)| o)
        .map(|(i, _)| NodeId::new(i))
        .collect()
}

/// Per-node battery accounting for lifetime experiments.
///
/// Every node starts with the same energy budget; forwarding a packet
/// charges the transmitter (distance-dependent) and the receiver
/// (electronics only). A node whose budget reaches zero is *depleted* —
/// the "power exhaustion" dynamic factor of the paper's §1 and the
/// energy-hole problem of its ref. \[11\].
///
/// ```
/// use sp_net::{Network, NodeId, RadioModel};
/// use sp_net::radio::EnergyLedger;
/// use sp_geom::{Point, Rect};
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
/// let net = Network::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(20.0, 0.0)],
///     15.0,
///     area,
/// );
/// let mut ledger = EnergyLedger::new(net.len(), 1_000_000.0, RadioModel::first_order());
/// ledger.charge_path(&net, &[NodeId(0), NodeId(1), NodeId(2)], 1024.0);
/// assert!(ledger.remaining(NodeId(1)) < 1_000_000.0); // relayed: tx + rx
/// assert!(ledger.depleted().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    remaining: Vec<f64>,
    initial: f64,
    radio: RadioModel,
}

impl EnergyLedger {
    /// Gives each of `n` nodes an `initial` budget (nJ).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not strictly positive.
    pub fn new(n: usize, initial: f64, radio: RadioModel) -> EnergyLedger {
        assert!(initial > 0.0, "initial energy must be positive");
        EnergyLedger {
            remaining: vec![initial; n],
            initial,
            radio,
        }
    }

    /// Remaining budget of one node (clamped at zero).
    pub fn remaining(&self, u: NodeId) -> f64 {
        self.remaining[u.index()]
    }

    /// The initial per-node budget.
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// Ids of depleted nodes, ascending.
    pub fn depleted(&self) -> Vec<NodeId> {
        self.remaining
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e <= 0.0)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Charges one `bits`-sized packet along `path`: every hop debits
    /// the sender's transmit energy and the receiver's receive energy.
    /// Returns the nodes that became depleted by this packet.
    pub fn charge_path(&mut self, net: &Network, path: &[NodeId], bits: f64) -> Vec<NodeId> {
        let mut newly_dead = Vec::new();
        for w in path.windows(2) {
            let (tx, rx) = (w[0], w[1]);
            let d = net.distance(tx, rx);
            for (u, cost) in [
                (tx, self.radio.tx_energy(bits, d)),
                (rx, self.radio.rx_energy(bits)),
            ] {
                let was_alive = self.remaining[u.index()] > 0.0;
                self.remaining[u.index()] -= cost;
                if was_alive && self.remaining[u.index()] <= 0.0 {
                    newly_dead.push(u);
                }
            }
        }
        newly_dead
    }

    /// Fraction of the total initial energy already spent.
    pub fn spent_fraction(&self) -> f64 {
        let total = self.initial * self.remaining.len() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let left: f64 = self.remaining.iter().map(|e| e.max(0.0)).sum();
        1.0 - left / total
    }
}

/// `interference_set(net, path).len()` without materializing the ids.
pub fn interference_count(net: &Network, path: &[NodeId]) -> usize {
    let mut on_path = vec![false; net.len()];
    for &u in path {
        on_path[u.index()] = true;
    }
    let mut overhears = vec![false; net.len()];
    let mut count = 0usize;
    for &u in path.iter().take(path.len().saturating_sub(1)) {
        for &v in net.neighbors(u) {
            let i = v.index();
            if !on_path[i] && !overhears[i] {
                overhears[i] = true;
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn line_net(n: usize, spacing: f64, radius: f64) -> Network {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
        Network::from_positions(
            (0..n)
                .map(|i| Point::new(spacing * i as f64, 0.0))
                .collect(),
            radius,
            area,
        )
    }

    #[test]
    fn tx_energy_grows_with_distance_and_bits() {
        let r = RadioModel::first_order();
        assert!(r.tx_energy(1000.0, 20.0) > r.tx_energy(1000.0, 10.0));
        assert!(r.tx_energy(2000.0, 10.0) > r.tx_energy(1000.0, 10.0));
        // Zero-distance transmission still pays electronics.
        assert_eq!(r.tx_energy(1000.0, 0.0), 50.0 * 1000.0);
    }

    #[test]
    fn first_order_constants_check_out() {
        let r = RadioModel::first_order();
        // 1 bit over 1 m: 50 + 0.1 = 50.1 nJ to send, 50 to receive.
        assert!((r.tx_energy(1.0, 1.0) - 50.1).abs() < 1e-12);
        assert_eq!(r.rx_energy(1.0), 50.0);
        assert!((r.hop_energy(1.0, 1.0) - 100.1).abs() < 1e-12);
        assert_eq!(RadioModel::default(), RadioModel::first_order());
    }

    #[test]
    fn path_energy_sums_hops() {
        let net = line_net(3, 10.0, 15.0);
        let r = RadioModel::first_order();
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        let want = 2.0 * r.hop_energy(1000.0, 10.0);
        assert!((r.path_energy(&net, &path, 1000.0) - want).abs() < 1e-9);
        // Degenerate paths are free.
        assert_eq!(r.path_energy(&net, &[NodeId(0)], 1000.0), 0.0);
        assert_eq!(r.path_energy(&net, &[], 1000.0), 0.0);
    }

    #[test]
    fn shorter_hops_cost_less_amplifier_but_more_electronics() {
        // The classic tradeoff: k short hops vs one long hop. With the
        // first-order model and alpha=2, two 10 m hops pay twice the
        // electronics but a quarter of the amplifier per hop.
        let r = RadioModel::first_order();
        let one_long = r.hop_energy(1000.0, 20.0);
        let net = line_net(3, 10.0, 25.0);
        let two_short = r.path_energy(&net, &[NodeId(0), NodeId(1), NodeId(2)], 1000.0);
        // Electronics dominate at these distances: the detour is *more*
        // expensive, which is exactly the paper's "energy wasted in
        // detours" argument (more hops = more energy).
        assert!(two_short > one_long);
    }

    #[test]
    fn interference_excludes_path_and_counts_overhearers_once() {
        // 0 - 1 - 2 chain with bystanders 3 (hears 0 and 1) and 4 (hears
        // nothing).
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(5.0, 8.0),
                Point::new(90.0, 90.0),
            ],
            14.0,
            area,
        );
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        let set = interference_set(&net, &path);
        assert_eq!(set, vec![NodeId(3)]);
        assert_eq!(interference_count(&net, &path), 1);
    }

    #[test]
    fn destination_is_not_a_transmitter() {
        // Node 3 only hears the destination (node 1), which never
        // transmits: it must not be counted.
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(18.0, 8.0), // hears only node 1
            ],
            12.0,
            area,
        );
        assert!(net.has_edge(NodeId(1), NodeId(2)));
        assert!(!net.has_edge(NodeId(0), NodeId(2)));
        let set = interference_set(&net, &[NodeId(0), NodeId(1)]);
        assert!(set.is_empty(), "{set:?}");
    }

    #[test]
    fn empty_path_interferes_with_nobody() {
        let net = line_net(4, 10.0, 15.0);
        assert!(interference_set(&net, &[]).is_empty());
        assert_eq!(interference_count(&net, &[]), 0);
    }

    #[test]
    fn set_and_count_agree_on_random_paths() {
        let cfg = crate::DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(5), cfg.radius, cfg.area);
        let comp = net.largest_component();
        // A shortest path across the component.
        let (path, _) = net
            .shortest_path(comp[0], comp[comp.len() - 1])
            .expect("same component");
        assert_eq!(
            interference_set(&net, &path).len(),
            interference_count(&net, &path)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bits_panic() {
        let _ = RadioModel::first_order().tx_energy(-1.0, 5.0);
    }

    #[test]
    fn ledger_charges_relays_twice() {
        let net = line_net(3, 10.0, 15.0);
        let radio = RadioModel::first_order();
        let mut ledger = EnergyLedger::new(3, 1_000_000.0, radio);
        ledger.charge_path(&net, &[NodeId(0), NodeId(1), NodeId(2)], 1000.0);
        let spent0 = 1_000_000.0 - ledger.remaining(NodeId(0));
        let spent1 = 1_000_000.0 - ledger.remaining(NodeId(1));
        let spent2 = 1_000_000.0 - ledger.remaining(NodeId(2));
        assert!((spent0 - radio.tx_energy(1000.0, 10.0)).abs() < 1e-9);
        assert!((spent1 - (radio.rx_energy(1000.0) + radio.tx_energy(1000.0, 10.0))).abs() < 1e-9);
        assert!((spent2 - radio.rx_energy(1000.0)).abs() < 1e-9);
        assert!(spent1 > spent0 && spent1 > spent2, "the relay pays most");
    }

    #[test]
    fn ledger_reports_depletion_once() {
        let net = line_net(2, 10.0, 15.0);
        // Budget between two receptions (2 x 50 000 nJ) and two
        // transmissions (2 x 60 000 nJ): the sender dies on the second
        // packet, the receiver survives it.
        let budget = 110_000.0;
        let mut ledger = EnergyLedger::new(2, budget, RadioModel::first_order());
        let first = ledger.charge_path(&net, &[NodeId(0), NodeId(1)], 1000.0);
        assert!(first.is_empty(), "one packet fits the budget");
        let second = ledger.charge_path(&net, &[NodeId(0), NodeId(1)], 1000.0);
        assert_eq!(second, vec![NodeId(0)], "the sender dies second packet");
        assert_eq!(ledger.depleted(), vec![NodeId(0)], "receiving is cheaper");
        let third = ledger.charge_path(&net, &[NodeId(0), NodeId(1)], 1000.0);
        assert_eq!(
            third,
            vec![NodeId(1)],
            "receiver dies on the third packet; the dead sender is not re-reported"
        );
        assert_eq!(ledger.depleted(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn ledger_spent_fraction_and_weakest() {
        let net = line_net(3, 10.0, 15.0);
        let mut ledger = EnergyLedger::new(3, 1_000_000.0, RadioModel::first_order());
        assert_eq!(ledger.spent_fraction(), 0.0);
        assert_eq!(ledger.initial(), 1_000_000.0);
        ledger.charge_path(&net, &[NodeId(0), NodeId(1), NodeId(2)], 1000.0);
        assert!(ledger.spent_fraction() > 0.0);
        let left = |i| ledger.remaining(NodeId(i));
        assert!(
            left(1) < left(0) && left(1) < left(2),
            "the relay is weakest"
        );
    }

    #[test]
    #[should_panic(expected = "initial energy")]
    fn zero_budget_rejected() {
        let _ = EnergyLedger::new(2, 0.0, RadioModel::first_order());
    }
}
