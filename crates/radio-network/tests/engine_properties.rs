//! Property tests for the channel-resolution semantics of Section 3.

use proptest::prelude::*;

use radio_network::testing::{to_sparse, ChannelOutcome};
use radio_network::{
    Action, AdversaryAction, ChannelId, Emission, Network, NetworkConfig, OutcomeView,
};

#[derive(Clone, Debug)]
enum GenAction {
    Transmit(usize, u32),
    Listen(usize),
    Sleep,
}

fn arb_actions(c: usize, n: usize) -> impl Strategy<Value = Vec<GenAction>> {
    proptest::collection::vec(
        prop_oneof![
            (0..c, any::<u32>()).prop_map(|(ch, f)| GenAction::Transmit(ch, f)),
            (0..c).prop_map(GenAction::Listen),
            Just(GenAction::Sleep),
        ],
        n,
    )
}

fn arb_adversary(c: usize, t: usize) -> impl Strategy<Value = Vec<(usize, Option<u32>)>> {
    proptest::collection::btree_map(0..c, proptest::option::of(any::<u32>()), 0..=t)
        .prop_map(|m| m.into_iter().collect())
}

fn to_actions(gen: &[GenAction]) -> Vec<Action<u32>> {
    gen.iter()
        .map(|g| match g {
            GenAction::Transmit(ch, f) => Action::Transmit {
                channel: ChannelId(*ch),
                frame: *f,
            },
            GenAction::Listen(ch) => Action::Listen {
                channel: ChannelId(*ch),
            },
            GenAction::Sleep => Action::Sleep,
        })
        .collect()
}

/// Resolve one round of a dense action slice and materialize the owned
/// per-channel outcomes.
fn resolve(
    net: &mut Network<u32>,
    actions: &[Action<u32>],
    adversary: &AdversaryAction<u32>,
) -> Vec<ChannelOutcome<u32>> {
    net.resolve_round_sparse(&to_sparse(actions), adversary)
        .unwrap()
        .outcomes()
        .map(ChannelOutcome::from)
        .collect()
}

fn to_adversary(gen: &[(usize, Option<u32>)]) -> AdversaryAction<u32> {
    let mut action = AdversaryAction::idle();
    for &(ch, spoof) in gen {
        action.push(
            ChannelId(ch),
            match spoof {
                Some(f) => Emission::Spoof(f),
                None => Emission::Noise,
            },
        );
    }
    action
}

proptest! {
    /// The fundamental law: a channel delivers iff it has exactly one
    /// transmitter, and the delivered frame is that transmitter's.
    #[test]
    fn resolution_matches_transmitter_count(
        gen in arb_actions(4, 12),
        adv in arb_adversary(4, 2),
    ) {
        let cfg = NetworkConfig::new(4, 2).unwrap();
        let mut net: Network<u32> = Network::new(cfg);
        let actions = to_actions(&gen);
        let adversary = to_adversary(&adv);
        let outcomes = resolve(&mut net, &actions, &adversary);

        prop_assert_eq!(outcomes.len(), 4);
        for (ch, outcome) in outcomes.iter().enumerate() {
            let honest: Vec<u32> = gen.iter().filter_map(|g| match g {
                GenAction::Transmit(c, f) if *c == ch => Some(*f),
                _ => None,
            }).collect();
            let adv_here = adv.iter().find(|(c, _)| *c == ch);
            let total = honest.len() + usize::from(adv_here.is_some());
            let heard = outcome.heard();
            match total {
                1 => {
                    if honest.len() == 1 {
                        prop_assert_eq!(heard, Some(honest[0]));
                    } else {
                        // adversary alone: spoof delivers, noise doesn't
                        match adv_here.unwrap().1 {
                            Some(f) => prop_assert_eq!(heard, Some(f)),
                            None => prop_assert_eq!(heard, None),
                        }
                    }
                }
                _ => prop_assert_eq!(heard, None),
            }
        }
    }

    /// The view's accessors agree channel by channel: `heard_on` is the
    /// outcome's frame, and collision participants lost exactly the
    /// frames they transmitted.
    #[test]
    fn view_accessors_agree(
        gen in arb_actions(4, 12),
        adv in arb_adversary(4, 2),
    ) {
        let cfg = NetworkConfig::new(4, 2).unwrap();
        let mut net: Network<u32> = Network::new(cfg);
        let actions = to_actions(&gen);
        let pairs = to_sparse(&actions);
        let adversary = to_adversary(&adv);
        let view = net.resolve_round_sparse(&pairs, &adversary).unwrap();
        prop_assert_eq!(view.round(), 0);
        prop_assert_eq!(view.channels(), 4);
        for ch in 0..view.channels() {
            let channel = ChannelId(ch);
            let outcome = view.outcome(channel);
            prop_assert_eq!(view.heard_on(channel), outcome.heard());
            if let OutcomeView::Collision { honest, .. } = outcome {
                prop_assert_eq!(honest.len(), honest.nodes().count());
                for (node, frame) in honest.frames() {
                    match &actions[node.index()] {
                        Action::Transmit { frame: f, .. } => prop_assert_eq!(frame, f),
                        other => prop_assert!(false, "non-transmit participant {other:?}"),
                    }
                }
            }
        }
    }

    /// Statistics are conserved: every honest transmission is either
    /// delivered or collided, never both, never lost.
    #[test]
    fn stats_conservation(
        gen in arb_actions(4, 12),
        adv in arb_adversary(4, 2),
    ) {
        let cfg = NetworkConfig::new(4, 2).unwrap();
        let mut net: Network<u32> = Network::new(cfg);
        let actions = to_actions(&gen);
        let adversary = to_adversary(&adv);
        net.resolve_round_sparse(&to_sparse(&actions), &adversary).unwrap();
        let stats = net.stats();
        let tx_count = gen.iter().filter(|g| matches!(g, GenAction::Transmit(..))).count() as u64;
        prop_assert_eq!(stats.honest_transmissions, tx_count);
        prop_assert_eq!(stats.honest_deliveries + stats.collisions, tx_count);
        // Every listen is accounted as a frame or silence.
        let listen_count = gen.iter().filter(|g| matches!(g, GenAction::Listen(_))).count() as u64;
        prop_assert_eq!(stats.frames_received + stats.silent_receptions, listen_count);
    }

    /// The trace records exactly what happened.
    #[test]
    fn trace_faithful(
        gen in arb_actions(3, 8),
        adv in arb_adversary(3, 1),
    ) {
        let cfg = NetworkConfig::new(3, 1).unwrap();
        let mut net: Network<u32> = Network::new(cfg);
        let actions = to_actions(&gen);
        let adversary = to_adversary(&adv);
        let outcomes = resolve(&mut net, &actions, &adversary);
        let rec = net.trace().last().unwrap();
        let tx_count = gen.iter().filter(|g| matches!(g, GenAction::Transmit(..))).count();
        prop_assert_eq!(rec.transmissions().count(), tx_count);
        prop_assert_eq!(rec.adversary().count(), adv.len());
        prop_assert_eq!(outcomes.len(), 3);
        for (ch, outcome) in outcomes.iter().enumerate() {
            prop_assert_eq!(rec.delivered_on(ChannelId(ch)).copied(), outcome.heard());
        }
    }

    /// Outcome classification is exhaustive and consistent with `heard`.
    #[test]
    fn outcome_classification(
        gen in arb_actions(3, 10),
        adv in arb_adversary(3, 2),
    ) {
        let cfg = NetworkConfig::new(3, 2).unwrap();
        let mut net: Network<u32> = Network::new(cfg);
        let actions = to_actions(&gen);
        let adversary = to_adversary(&adv);
        let outcomes = resolve(&mut net, &actions, &adversary);
        for outcome in &outcomes {
            match outcome {
                ChannelOutcome::Delivered { .. } | ChannelOutcome::SpoofDelivered { .. } => {
                    prop_assert!(outcome.heard().is_some());
                }
                ChannelOutcome::Idle
                | ChannelOutcome::NoiseOnly
                | ChannelOutcome::Collision { .. } => {
                    prop_assert!(outcome.heard().is_none());
                }
            }
        }
    }
}
