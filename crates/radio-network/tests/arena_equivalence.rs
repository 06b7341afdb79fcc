//! The arena-backed engine agrees with the reference oracle.
//!
//! [`ReferenceNetwork`] is the plain, per-channel-`Vec` implementation of
//! the §3 round rule in `radio_network::testing`. The property tests drive
//! the engine (through its sparse entry point, sleepers omitted) and the
//! oracle (dense, one action per node) through identical multi-round
//! executions — arbitrary honest action mixes, arbitrary jam/spoof
//! adversary moves, hostile out-of-range/duplicate/over-budget moves, the
//! roster's history-mining adversaries, and every non-ideal channel
//! model — and require, after every round, equal outcomes (or equal
//! errors), equal per-listener receptions, equal [`Stats`], and equal
//! retained trace records, under every [`TraceRetention`].

use proptest::prelude::*;

use radio_network::adversaries::{BusyChannelJammer, RandomJammer, Spoofer};
use radio_network::testing::{to_sparse, ChannelOutcome, ReferenceNetwork};
use radio_network::{
    Action, Adversary, AdversaryAction, AdversaryView, ChannelId, ChannelModelSpec, Emission,
    Network, NetworkConfig, NodeId, Stats, TraceRetention,
};

#[derive(Clone, Debug)]
enum GenAction {
    Transmit(usize, u32),
    Listen(usize),
    Sleep,
}

fn to_actions(gen: &[GenAction]) -> Vec<Action<u32>> {
    gen.iter()
        .map(|g| match *g {
            GenAction::Transmit(ch, f) => Action::Transmit {
                channel: ChannelId(ch),
                frame: f,
            },
            GenAction::Listen(ch) => Action::Listen {
                channel: ChannelId(ch),
            },
            GenAction::Sleep => Action::Sleep,
        })
        .collect()
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

fn arb_round(
    c: usize,
    n: usize,
    t: usize,
) -> impl Strategy<Value = (Vec<GenAction>, Vec<(usize, Option<u32>)>)> {
    let adversary =
        proptest::collection::btree_map(0..c, proptest::option::of(any::<u32>()), 0..=t)
            .prop_map(|m| m.into_iter().collect::<Vec<_>>());
    (arb_actions(c, n), adversary)
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

fn arb_retention() -> impl Strategy<Value = TraceRetention> {
    prop_oneof![
        Just(TraceRetention::All),
        Just(TraceRetention::LastRounds(3)),
        Just(TraceRetention::None),
    ]
}

/// The non-ideal channel models, with parameters spanning their regimes
/// (no loss to total loss, always-capture to never-capture, radii from
/// deaf to all-hearing on a 16×16 grid).
fn arb_model() -> impl Strategy<Value = ChannelModelSpec> {
    prop_oneof![
        (0..=1_000_000u32).prop_map(|p_loss_ppm| ChannelModelSpec::Lossy { p_loss_ppm }),
        (0..1100u32).prop_map(|threshold| ChannelModelSpec::Capture { threshold }),
        (
            proptest::collection::vec((0..16u64, 0..16u64), 0..12),
            0..24u64
        )
            .prop_map(|(grid, radius)| ChannelModelSpec::Geometric {
                positions: grid
                    .into_iter()
                    .map(|(x, y)| (x as i64, y as i64))
                    .collect(),
                radius,
            }),
    ]
}

/// A deterministic, channel-skewed honest schedule for the roster tests
/// (some collisions, some clean deliveries, rotating listeners).
fn roster_actions(c: usize, n: usize, round: u64) -> Vec<Action<u32>> {
    (0..n)
        .map(|i| match (i + round as usize) % 4 {
            0 => Action::Transmit {
                channel: ChannelId(i % 2),
                frame: (round as u32) * 100 + i as u32,
            },
            1 => Action::Transmit {
                channel: ChannelId(2 + (i + round as usize) % (c - 2)),
                frame: (round as u32) * 100 + i as u32,
            },
            2 => Action::Listen {
                channel: ChannelId((i + round as usize) % c),
            },
            _ => Action::Sleep,
        })
        .collect()
}

fn roster_adversary(seed: u64, kind: usize) -> Box<dyn Adversary<u32>> {
    match kind {
        0 => Box::new(RandomJammer::new(seed)),
        1 => Box::new(Spoofer::new(seed, |round, ch: ChannelId| {
            (round as u32) << 8 | ch.index() as u32
        })),
        _ => Box::new(BusyChannelJammer::new(seed, 6)),
    }
}

/// The engine and the oracle for one configuration, with the same model
/// seed.
fn pair(cfg: NetworkConfig, model_seed: u64) -> (Network<u32>, ReferenceNetwork<u32>) {
    let mut engine = Network::new(cfg.clone());
    let mut oracle = ReferenceNetwork::new(cfg);
    engine.seed_channel_model(model_seed);
    oracle.seed_channel_model(model_seed);
    (engine, oracle)
}

/// Resolve one round on both implementations and require identical
/// results: the outcomes (or the error), every listener's reception,
/// the stats, the round counters, and every retained record.
fn assert_same_round(
    engine: &mut Network<u32>,
    oracle: &mut ReferenceNetwork<u32>,
    actions: &[Action<u32>],
    adversary: &AdversaryAction<u32>,
) {
    let pairs = to_sparse(actions);
    let expected = oracle.resolve_round_dense(actions, adversary);
    match engine.resolve_round_sparse(&pairs, adversary) {
        Ok(view) => {
            let outcomes: Vec<ChannelOutcome<u32>> =
                view.outcomes().map(ChannelOutcome::from).collect();
            assert_eq!(Ok(outcomes), expected);
            let receptions: Vec<(NodeId, Option<u32>)> = view
                .listeners()
                .iter()
                .map(|&(node, ch)| (node, view.reception_for(node, ch).copied()))
                .collect();
            assert_eq!(receptions, oracle.receptions());
        }
        Err(err) => assert_eq!(Err(err), expected),
    }
    let stats: &Stats = engine.stats();
    assert_eq!(stats, oracle.stats());
    assert_eq!(engine.round(), oracle.round());
    assert_eq!(
        engine.trace().completed_rounds(),
        oracle.trace().completed_rounds()
    );
    assert_eq!(engine.trace().len(), oracle.trace().len());
    assert!(engine.trace().records().eq(oracle.trace().records()));
}

proptest! {
    /// Arbitrary multi-round executions under arbitrary jam/spoof moves:
    /// engine and oracle agree on every outcome, reception, stat, and
    /// retained record, across all retention policies.
    #[test]
    fn arena_engine_matches_reference(
        rounds in proptest::collection::vec(arb_round(4, 10, 2), 1..12),
        retention in arb_retention(),
    ) {
        let cfg = NetworkConfig::new(4, 2).unwrap().with_retention(retention);
        let (mut engine, mut oracle) = pair(cfg, 0);
        for (gen, adv) in &rounds {
            assert_same_round(&mut engine, &mut oracle, &to_actions(gen), &to_adversary(adv));
        }
    }

    /// Hostile rounds — honest channels past `C`, adversary moves on
    /// out-of-range channels, the same channel twice, or over budget —
    /// interleaved with valid ones: both implementations return the same
    /// error (checked in the same order) and a rejected round changes
    /// nothing on either side.
    #[test]
    fn hostile_rounds_fail_identically(
        rounds in proptest::collection::vec(
            (
                arb_actions(5, 8),
                proptest::collection::vec((0..6usize, proptest::option::of(any::<u32>())), 0..5),
            ),
            1..12,
        ),
        retention in arb_retention(),
    ) {
        // C = 4, so honest channel 4 and adversary channels 4..6 are out
        // of range; the adversary list may repeat channels and exceed t.
        let cfg = NetworkConfig::new(4, 2).unwrap().with_retention(retention);
        let (mut engine, mut oracle) = pair(cfg, 0);
        for (gen, adv) in &rounds {
            assert_same_round(&mut engine, &mut oracle, &to_actions(gen), &to_adversary(adv));
        }
    }

    /// The non-ideal models (lossy, capture, geometric) under arbitrary
    /// executions and every retention policy: the engine's wire
    /// outcomes, per-listener `reception_for`, stats, and recorded
    /// diverging receptions all match the oracle's plain reading of the
    /// same model.
    #[test]
    fn non_ideal_models_match_reference(
        model in arb_model(),
        model_seed in any::<u64>(),
        rounds in proptest::collection::vec(arb_round(4, 12, 2), 1..10),
        retention in arb_retention(),
    ) {
        let cfg = NetworkConfig::new(4, 2)
            .unwrap()
            .with_retention(retention)
            .with_channel_model(model);
        let (mut engine, mut oracle) = pair(cfg, model_seed);
        for (gen, adv) in &rounds {
            assert_same_round(&mut engine, &mut oracle, &to_actions(gen), &to_adversary(adv));
        }
    }

    /// The roster's trace-mining adversaries (random jammer, spoofer,
    /// busy-window jammer) against a scripted honest schedule, under
    /// every retention policy: adversary moves are derived from the
    /// engine's retained trace each round, so this exercises the record
    /// arena, the recycled bounded window, and history-dependent
    /// behavior end to end. (A divergence in any retained record would
    /// also skew the adversary's future moves, so the execution itself
    /// is a sensitive detector.)
    #[test]
    fn roster_adversaries_match_reference(
        seed in any::<u64>(),
        kind in 0..3usize,
        rounds in 4..40usize,
        retention in prop_oneof![
            Just(TraceRetention::All),
            Just(TraceRetention::LastRounds(8)),
            Just(TraceRetention::None),
        ],
    ) {
        let (c, t, n) = (5, 2, 12);
        let cfg = NetworkConfig::new(c, t).unwrap().with_retention(retention);
        let (mut engine, mut oracle) = pair(cfg, 0);
        let mut adversary = roster_adversary(seed, kind);
        for round in 0..rounds as u64 {
            let view = AdversaryView {
                channels: c,
                budget: t,
                nodes: n,
                trace: engine.trace(),
            };
            let adv_action = adversary.act(round, &view);
            assert_same_round(&mut engine, &mut oracle, &roster_actions(c, n, round), &adv_action);
        }
    }

    /// Selecting [`ChannelModelSpec::Ideal`] explicitly is bit-identical
    /// to the default (model-less) configuration under every retention
    /// policy, against the history-mining roster — whatever the model
    /// seed. This is the guarantee that lets the committed BENCH files
    /// and golden corpus stay valid across the channel-model refactor.
    #[test]
    fn explicit_ideal_model_is_bit_identical_to_default(
        seed in any::<u64>(),
        kind in 0..3usize,
        rounds in 4..40usize,
        retention in prop_oneof![
            Just(TraceRetention::All),
            Just(TraceRetention::LastRounds(8)),
            Just(TraceRetention::None),
        ],
    ) {
        let (c, t, n) = (5, 2, 12);
        let cfg = NetworkConfig::new(c, t).unwrap().with_retention(retention);
        let mut default: Network<u32> = Network::new(cfg.clone());
        let mut ideal: Network<u32> =
            Network::new(cfg.with_channel_model(ChannelModelSpec::Ideal));
        ideal.seed_channel_model(seed ^ 0xDEAD_BEEF);
        let mut adversary = roster_adversary(seed, kind);
        for round in 0..rounds as u64 {
            let pairs = to_sparse(&roster_actions(c, n, round));
            let view = AdversaryView {
                channels: c,
                budget: t,
                nodes: n,
                trace: default.trace(),
            };
            let adv_action = adversary.act(round, &view);
            let expected: Vec<ChannelOutcome<u32>> = default
                .resolve_round_sparse(&pairs, &adv_action)
                .unwrap()
                .outcomes()
                .map(ChannelOutcome::from)
                .collect();
            let got: Vec<ChannelOutcome<u32>> = ideal
                .resolve_round_sparse(&pairs, &adv_action)
                .unwrap()
                .outcomes()
                .map(ChannelOutcome::from)
                .collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(default.stats(), ideal.stats());
            prop_assert_eq!(default.trace().len(), ideal.trace().len());
            prop_assert!(default
                .trace()
                .records()
                .zip(ideal.trace().records())
                .all(|(a, b)| a == b && a.reception_nodes.is_empty()));
        }
    }
}
