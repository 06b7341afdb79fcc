//! A history-driven jammer targeting recently busy channels.

use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::adversary::{Adversary, AdversaryAction, AdversaryView};
use crate::node::ChannelId;

/// Jams the channels honest nodes used most over the last `window` rounds.
///
/// This exploits the hindsight granted by the model (the adversary learns
/// all random choices of completed rounds): protocols that favour particular
/// channels get those channels jammed. Ties and cold starts fall back to
/// random picks.
#[derive(Clone, Debug)]
pub struct BusyChannelJammer {
    rng: SmallRng,
    window: usize,
}

impl BusyChannelJammer {
    /// A jammer with RNG stream from `seed`, inspecting the last `window`
    /// completed rounds.
    pub fn new(seed: u64, window: usize) -> Self {
        BusyChannelJammer {
            rng: SmallRng::seed_from_u64(seed ^ 0x0B5E_55ED),
            window: window.max(1),
        }
    }
}

impl<M> Adversary<M> for BusyChannelJammer {
    fn act(&mut self, round: u64, view: &AdversaryView<'_, M>) -> AdversaryAction<M> {
        let mut usage = vec![0u64; view.channels];
        let from = round.saturating_sub(self.window as u64);
        for rec in view.trace.records() {
            if rec.round < from {
                continue;
            }
            for (_, ch, _) in rec.transmissions() {
                usage[ch.index()] += 1;
            }
            for (_, ch) in rec.listeners() {
                usage[ch.index()] += 1;
            }
        }
        let budget = view.budget.min(view.channels);
        if usage.iter().all(|&u| u == 0) {
            let picks = sample(&mut self.rng, view.channels, budget);
            return AdversaryAction::jam(picks.iter().map(ChannelId));
        }
        // Rank channels by (usage desc, random tiebreak) and jam the top t.
        let mut order: Vec<usize> = (0..view.channels).collect();
        let jitter: Vec<u64> = (0..view.channels).map(|_| self.rng.next_u64()).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(usage[c]), jitter[c]));
        AdversaryAction::jam(order.into_iter().take(budget).map(ChannelId))
    }

    fn name(&self) -> &'static str {
        "busy-channel-jammer"
    }
}

use rand::RngCore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Network, NetworkConfig};
    use crate::node::Action;
    use crate::testing::to_sparse;

    #[test]
    fn targets_the_busy_channel() {
        let cfg = NetworkConfig::new(4, 1).unwrap();
        let mut net: Network<u8> = Network::new(cfg);
        // Round 0: node 0 transmits on channel 2; nobody jams yet.
        let pairs = to_sparse(&[Action::Transmit {
            channel: ChannelId(2),
            frame: 1,
        }]);
        net.resolve_round_sparse(&pairs, &AdversaryAction::idle())
            .unwrap();

        let mut adv = BusyChannelJammer::new(5, 8);
        let view = AdversaryView {
            channels: 4,
            budget: 1,
            nodes: 1,
            trace: net.trace(),
        };
        let action = Adversary::<u8>::act(&mut adv, 1, &view);
        assert_eq!(action.transmissions[0].0, ChannelId(2));
    }

    #[test]
    fn cold_start_is_random_but_in_budget() {
        let trace: crate::trace::Trace<u8> = crate::trace::Trace::default();
        let view = AdversaryView {
            channels: 6,
            budget: 2,
            nodes: 3,
            trace: &trace,
        };
        let mut adv = BusyChannelJammer::new(5, 4);
        let action = Adversary::<u8>::act(&mut adv, 0, &view);
        assert_eq!(action.len(), 2);
    }
}
