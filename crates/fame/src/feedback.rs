//! The `communication-feedback` routine (Figure 1, Section 5.3).
//!
//! After a communication round, nodes must agree on which channels were
//! disrupted. For each reported channel `r`, the `C` *witnesses* `W[r]`
//! broadcast for `Θ((C/(C−t))·log n)` repetitions: a witness whose flag is
//! `false` broadcasts `<false>` on its rank channel, one whose flag is
//! `true` broadcasts `<true, r>`. Because the `C` witnesses cover **all**
//! `C` channels every repetition, the adversary can never spoof a `<true>`
//! report — it can only collide. Every non-witness listens on a fresh
//! random channel per repetition and succeeds with probability at least
//! `(C−t)/C`, so by a Chernoff bound it learns a true flag w.h.p.
//!
//! [`FeedbackCore`] is the per-node state machine; it is embedded inside
//! the full f-AME node and also runnable standalone via [`FeedbackNode`] /
//! [`run_feedback`] (the Lemma 5 experiments, E2/E11).

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use radio_network::adversaries::NoAdversary;
use radio_network::{
    Action, Adversary, ChannelId, EngineError, NetworkConfig, Protocol, Reception, Simulation,
};

use crate::messages::FameFrame;
use crate::params::Params;

/// Per-node state machine for one invocation of `communication-feedback`.
///
/// Drive it with [`FeedbackCore::action`] / [`FeedbackCore::observe`] for
/// exactly [`FeedbackCore::total_rounds`] local rounds, then read the
/// agreed set with [`FeedbackCore::into_disrupted`].
#[derive(Clone, Debug)]
pub struct FeedbackCore {
    me: usize,
    c: usize,
    blocks: usize,
    reps: usize,
    /// `W[r]` per reported channel; each sorted, length exactly `c`.
    witness_sets: Vec<Vec<usize>>,
    /// `Some(flag)` for blocks where this node is a witness.
    my_flags: Vec<Option<bool>>,
    /// The set `D` under construction: reported channels believed `true`.
    d: BTreeSet<usize>,
    rng: SmallRng,
}

impl FeedbackCore {
    /// Build the state machine for node `me`.
    ///
    /// * `witness_sets[r]` — the witnesses `W[r]` for reported channel `r`;
    ///   must each contain exactly `params.c()` distinct nodes.
    /// * `my_flags[r]` — `Some(b)` iff `me ∈ witness_sets[r]`, where `b` is
    ///   this witness's channel-`r` flag.
    ///
    /// # Panics
    ///
    /// Panics if a witness set has the wrong size, is unsorted, or the
    /// flags are inconsistent with membership (programming errors in the
    /// caller — the protocol constructs these deterministically).
    pub fn new(
        me: usize,
        params: &Params,
        witness_sets: Vec<Vec<usize>>,
        my_flags: Vec<Option<bool>>,
        seed: u64,
    ) -> Self {
        assert_eq!(witness_sets.len(), my_flags.len(), "one flag per block");
        for (r, w) in witness_sets.iter().enumerate() {
            assert_eq!(
                w.len(),
                params.c(),
                "W[{r}] must have exactly C = {} members",
                params.c()
            );
            assert!(w.windows(2).all(|p| p[0] < p[1]), "W[{r}] must be sorted");
            assert_eq!(
                w.contains(&me),
                my_flags[r].is_some(),
                "flag presence must match witness membership for block {r}"
            );
        }
        let mut d = BTreeSet::new();
        // A witness with a true flag knows its channel succeeded (Fig. 1
        // line 14): it joins D immediately.
        for (r, flag) in my_flags.iter().enumerate() {
            if *flag == Some(true) {
                d.insert(r);
            }
        }
        FeedbackCore {
            me,
            c: params.c(),
            blocks: witness_sets.len(),
            reps: params.feedback_reps(),
            witness_sets,
            my_flags,
            d,
            rng: SmallRng::seed_from_u64(seed ^ 0xFEED_BACC ^ (me as u64) << 20),
        }
    }

    /// Total local rounds this invocation runs for.
    pub fn total_rounds(&self) -> u64 {
        (self.blocks * self.reps) as u64
    }

    /// The reported-channel block a local round belongs to.
    fn block_of(&self, local_round: u64) -> usize {
        (local_round / self.reps as u64) as usize
    }

    /// The action for `local_round ∈ 0..total_rounds()`.
    pub fn action(&mut self, local_round: u64) -> Action<FameFrame> {
        let r = self.block_of(local_round);
        match self.my_flags[r] {
            Some(flag) => {
                // rank(me, W[r]) picks my broadcast channel (Fig. 1 lines
                // 10, 15): the C witnesses cover all C channels.
                let rank = self.witness_sets[r]
                    .iter()
                    .position(|&p| p == self.me)
                    .expect("validated membership");
                let frame = if flag {
                    FameFrame::FeedbackTrue { reported: r }
                } else {
                    FameFrame::FeedbackFalse
                };
                Action::Transmit {
                    channel: ChannelId(rank),
                    frame,
                }
            }
            None => Action::Listen {
                channel: ChannelId(self.rng.gen_range(0..self.c)),
            },
        }
    }

    /// Feed back what was heard (only meaningful when listening).
    pub fn observe(&mut self, local_round: u64, reception: Option<Reception<&FameFrame>>) {
        let r = self.block_of(local_round);
        if let Some(Reception {
            frame: Some(FameFrame::FeedbackTrue { reported }),
            ..
        }) = reception
        {
            // Fig. 1 line 21 only collects <true, r> during block r. Since
            // witnesses occupy every channel in every block, a spoofed
            // report can never be delivered, but we keep the strict check.
            if *reported == r {
                self.d.insert(*reported);
            }
        }
    }

    /// Finish, returning the agreed disrupted/succeeded set `D`.
    pub fn into_disrupted(self) -> BTreeSet<usize> {
        self.d
    }

    /// Read-only view of the set built so far.
    pub fn d(&self) -> &BTreeSet<usize> {
        &self.d
    }
}

/// Standalone protocol node wrapping [`FeedbackCore`] — used by the
/// Lemma 5 experiments and tests.
#[derive(Clone, Debug)]
pub struct FeedbackNode {
    core: Option<FeedbackCore>,
    result: Option<BTreeSet<usize>>,
    round: u64,
    total: u64,
}

impl FeedbackNode {
    /// Wrap a core.
    pub fn new(core: FeedbackCore) -> Self {
        let total = core.total_rounds();
        FeedbackNode {
            core: Some(core),
            result: None,
            round: 0,
            total,
        }
    }

    /// The agreed set `D`, available after the run completes.
    pub fn disrupted(&self) -> Option<&BTreeSet<usize>> {
        self.result.as_ref()
    }
}

impl Protocol for FeedbackNode {
    type Msg = FameFrame;

    fn begin_round(&mut self, _round: u64) -> Action<FameFrame> {
        match self.core.as_mut() {
            Some(core) => core.action(self.round),
            None => Action::Sleep,
        }
    }

    fn end_round(&mut self, _round: u64, reception: Option<Reception<&FameFrame>>) {
        if let Some(core) = self.core.as_mut() {
            core.observe(self.round, reception);
            self.round += 1;
            if self.round == self.total {
                self.result = Some(self.core.take().expect("present").into_disrupted());
            }
        }
    }

    fn is_done(&self) -> bool {
        self.core.is_none()
    }
}

/// Run one standalone invocation of `communication-feedback` on a fresh
/// network: `witness_sets[r]` are the witnesses for block `r`, and
/// `flags[r]` is the channel-`r` flag shared by all its witnesses.
///
/// Returns the per-node `D` sets.
///
/// # Errors
///
/// Propagates engine errors (adversary over budget etc.).
pub fn run_feedback<A>(
    params: &Params,
    witness_sets: Vec<Vec<usize>>,
    flags: &[bool],
    adversary: A,
    seed: u64,
) -> Result<Vec<BTreeSet<usize>>, EngineError>
where
    A: Adversary<FameFrame>,
{
    run_feedback_inner(params, witness_sets, flags, adversary, seed, None)
}

/// Like [`run_feedback`], also handing every finished round to `sink`
/// (e.g. a [`ChannelSink`](radio_network::ChannelSink) streaming the
/// trace to a file). The execution is bit-identical to
/// [`run_feedback`]'s.
///
/// # Errors
///
/// Same as [`run_feedback`].
pub fn run_feedback_streaming<A>(
    params: &Params,
    witness_sets: Vec<Vec<usize>>,
    flags: &[bool],
    adversary: A,
    seed: u64,
    sink: Box<dyn radio_network::TraceSink<FameFrame>>,
) -> Result<Vec<BTreeSet<usize>>, EngineError>
where
    A: Adversary<FameFrame>,
{
    run_feedback_inner(params, witness_sets, flags, adversary, seed, Some(sink))
}

fn run_feedback_inner<A>(
    params: &Params,
    witness_sets: Vec<Vec<usize>>,
    flags: &[bool],
    adversary: A,
    seed: u64,
    sink: Option<Box<dyn radio_network::TraceSink<FameFrame>>>,
) -> Result<Vec<BTreeSet<usize>>, EngineError>
where
    A: Adversary<FameFrame>,
{
    assert_eq!(witness_sets.len(), flags.len());
    let cfg = NetworkConfig::new(params.c(), params.t())?
        .with_channel_model(params.channel_model().clone());
    let nodes: Vec<FeedbackNode> = (0..params.n())
        .map(|me| {
            let my_flags: Vec<Option<bool>> = witness_sets
                .iter()
                .zip(flags)
                .map(|(w, &b)| if w.contains(&me) { Some(b) } else { None })
                .collect();
            FeedbackNode::new(FeedbackCore::new(
                me,
                params,
                witness_sets.clone(),
                my_flags,
                seed,
            ))
        })
        .collect();
    let mut sim = match sink {
        Some(sink) => Simulation::with_sink(cfg, nodes, adversary, seed, sink)?,
        None => Simulation::new(cfg, nodes, adversary, seed)?,
    };
    let blocks = flags.len();
    let reps = params.feedback_reps();
    sim.run((blocks * reps) as u64 + 2)?;
    Ok(sim
        .into_nodes()
        .into_iter()
        .map(|n| n.disrupted().cloned().expect("run completed"))
        .collect())
}

/// Deterministic witness partition for standalone runs: block `r` gets
/// nodes `r*C .. (r+1)*C` (mirrors the paper's "partition of
/// `{p_1 … p_{C²}}` into `C` sets of size `C`", generalized to any number
/// of blocks).
pub fn default_witness_sets(params: &Params, blocks: usize) -> Vec<Vec<usize>> {
    let c = params.c();
    assert!(
        blocks * c <= params.n(),
        "need at least blocks*C nodes for disjoint witness sets"
    );
    (0..blocks)
        .map(|r| (r * c..(r + 1) * c).collect())
        .collect()
}

/// Convenience wrapper: run with no adversary.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_feedback_quiet(
    params: &Params,
    flags: &[bool],
    seed: u64,
) -> Result<Vec<BTreeSet<usize>>, EngineError> {
    let witness_sets = default_witness_sets(params, flags.len());
    run_feedback(params, witness_sets, flags, NoAdversary, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_network::adversaries::{RandomJammer, Spoofer, SweepJammer};

    fn params() -> Params {
        Params::minimal(40, 2).unwrap()
    }

    fn expected(flags: &[bool]) -> BTreeSet<usize> {
        flags
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(r, _)| r)
            .collect()
    }

    #[test]
    fn agreement_without_adversary() {
        let p = params();
        let flags = [true, false, true];
        let ds = run_feedback_quiet(&p, &flags, 11).unwrap();
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(d, &expected(&flags), "node {i} disagrees");
        }
    }

    #[test]
    fn agreement_under_random_jamming() {
        let p = params();
        let flags = [false, true, true];
        let ds = run_feedback(
            &p,
            default_witness_sets(&p, flags.len()),
            &flags,
            RandomJammer::new(5),
            13,
        )
        .unwrap();
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(d, &expected(&flags), "node {i} disagrees");
        }
    }

    #[test]
    fn agreement_under_sweep_jamming() {
        let p = params();
        let flags = [true, true, false];
        let ds = run_feedback(
            &p,
            default_witness_sets(&p, flags.len()),
            &flags,
            SweepJammer::new(),
            17,
        )
        .unwrap();
        for d in &ds {
            assert_eq!(d, &expected(&flags));
        }
    }

    /// Lemma 5's key security property: a spoofed `<true, r>` can never be
    /// accepted for a false channel, because every channel is occupied by a
    /// broadcasting witness.
    #[test]
    fn spoofed_true_reports_never_stick() {
        let p = params();
        let flags = [false, false, false];
        let ds = run_feedback(
            &p,
            default_witness_sets(&p, flags.len()),
            &flags,
            Spoofer::new(3, |round, _ch| FameFrame::FeedbackTrue {
                reported: (round % 3) as usize,
            }),
            19,
        )
        .unwrap();
        for (i, d) in ds.iter().enumerate() {
            assert!(d.is_empty(), "node {i} accepted a spoofed report: {d:?}");
        }
    }

    #[test]
    fn round_count_matches_params() {
        let p = params();
        let core = FeedbackCore::new(
            39,
            &p,
            default_witness_sets(&p, 3),
            vec![None, None, None],
            1,
        );
        assert_eq!(core.total_rounds(), 3 * p.feedback_reps() as u64);
    }

    #[test]
    #[should_panic(expected = "must have exactly C")]
    fn wrong_witness_set_size_panics() {
        let p = params();
        let _ = FeedbackCore::new(0, &p, vec![vec![0, 1]], vec![Some(true)], 1);
    }

    /// All witnesses of a block broadcast every repetition, covering all C
    /// channels (the anti-spoofing invariant).
    #[test]
    fn witnesses_cover_all_channels() {
        let p = params();
        let sets = default_witness_sets(&p, 1);
        let mut channels_used = BTreeSet::new();
        for &w in &sets[0] {
            let mut core = FeedbackCore::new(w, &p, sets.clone(), vec![Some(false)], 1);
            match core.action(0) {
                Action::Transmit { channel, .. } => {
                    channels_used.insert(channel.index());
                }
                other => panic!("witness should transmit, got {other:?}"),
            }
        }
        assert_eq!(channels_used.len(), p.c());
    }
}
