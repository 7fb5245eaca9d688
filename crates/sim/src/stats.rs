//! Execution accounting: rounds, transmissions, receptions.
//!
//! The paper claims (§5) "the construction cost of safety information has
//! been proved to be the minimum in \[7\]"; ablation A1 measures that cost
//! empirically, so both engines count every radio event.

/// Aggregate counters for one simulation run, on either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Rounds executed (excluding the init round). Always 0 on the
    /// asynchronous engine, which has no rounds.
    pub rounds: usize,
    /// Broadcast transmissions (one per `broadcast` call).
    pub broadcasts: usize,
    /// Unicast transmissions (one per `send` call).
    pub unicasts: usize,
    /// Message receptions summed over all receivers.
    pub receptions: usize,
    /// Whether the run ended because no messages remained in flight
    /// (as opposed to hitting the round or event limit).
    pub quiesced: bool,
}

impl SimStats {
    /// Total transmissions of any kind.
    pub fn transmissions(&self) -> usize {
        self.broadcasts + self.unicasts
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} tx ({} bcast + {} ucast), {} rx{}",
            self.rounds,
            self.transmissions(),
            self.broadcasts,
            self.unicasts,
            self.receptions,
            if self.quiesced {
                ", quiesced"
            } else {
                ", round-limited"
            }
        )
    }
}

/// Optional per-round trace of message activity.
#[derive(Debug, Clone, Default)]
pub struct RoundLog {
    per_round_tx: Vec<usize>,
}

impl RoundLog {
    /// Creates an empty log.
    pub fn new() -> RoundLog {
        RoundLog::default()
    }

    /// Records one round's transmission count.
    pub fn record(&mut self, transmissions: usize) {
        self.per_round_tx.push(transmissions);
    }

    /// Transmission counts per round, oldest first.
    pub fn per_round(&self) -> &[usize] {
        &self.per_round_tx
    }

    /// The round with the highest traffic, if any (`(round, tx)`).
    pub fn peak(&self) -> Option<(usize, usize)> {
        self.per_round_tx
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, tx)| (tx, std::cmp::Reverse(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = SimStats {
            rounds: 3,
            broadcasts: 5,
            unicasts: 2,
            receptions: 30,
            quiesced: true,
        };
        assert_eq!(s.transmissions(), 7);
        let text = s.to_string();
        assert!(text.contains("3 rounds"));
        assert!(text.contains("quiesced"));
    }

    #[test]
    fn round_log_peak_prefers_earliest_max() {
        let mut log = RoundLog::new();
        for tx in [1, 9, 4, 9, 0] {
            log.record(tx);
        }
        assert_eq!(log.peak(), Some((1, 9)));
        assert_eq!(log.per_round(), &[1, 9, 4, 9, 0]);
    }

    #[test]
    fn empty_log_has_no_peak() {
        assert_eq!(RoundLog::new().peak(), None);
    }
}
