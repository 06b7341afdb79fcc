//! The `--channel-model` axis of the `disruptability` and `whp_knee`
//! bins (parsed with the rest of the CLI by
//! [`Experiment::new`](crate::Experiment::new)).
//!
//! ```text
//! disruptability --channel-model all       # 4 models x adversary roster
//! disruptability --channel-model lossy     # one model
//! whp_knee --channel-model lossy,capture   # comma lists compose
//! ```
//!
//! With the flag, `disruptability` reruns its E4 grid per model at `t = 2`
//! and writes `BENCH_channel_models.json` — charting how far the paper's
//! `cover <= t` guarantee and round costs survive each physical-layer
//! deviation — while `whp_knee` reruns the feedback-scale sweep per model
//! into `BENCH_channel_models_knee.json`. Without the flag both bins run
//! their classic grids and reports, byte-identical to before the axis
//! existed.
//!
//! The concrete model parameters are fixed *here* (5% Bernoulli loss, a
//! capture margin of 128/1024, the smallest square unit grid covering `n`
//! with radius `side - 1`) so every run of the axis charts the same four
//! models, matching the golden `tests/corpus/` traces the replayer pins.

use radio_network::ChannelModelSpec;

/// One named point on the `--channel-model` axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelModelChoice {
    /// The paper's idealized channel (the baseline column).
    Ideal,
    /// Per-delivery Bernoulli loss, `p = 5%`.
    Lossy,
    /// Strongest-transmitter capture, margin threshold 128 of 1024.
    Capture,
    /// Unit-grid geometry with radius `side - 1` — the farthest corner
    /// pairs fall out of earshot.
    Geometric,
}

impl ChannelModelChoice {
    /// Every axis point, in report order.
    pub const ALL: [ChannelModelChoice; 4] = [
        ChannelModelChoice::Ideal,
        ChannelModelChoice::Lossy,
        ChannelModelChoice::Capture,
        ChannelModelChoice::Geometric,
    ];

    /// The CLI name of this choice.
    pub fn name(self) -> &'static str {
        match self {
            ChannelModelChoice::Ideal => "ideal",
            ChannelModelChoice::Lossy => "lossy",
            ChannelModelChoice::Capture => "capture",
            ChannelModelChoice::Geometric => "geometric",
        }
    }

    /// The model spec for an `n`-node scenario. Only `Geometric` depends
    /// on `n`: nodes fill the smallest `side x side` unit grid with
    /// `side^2 >= n`, audible within radius `side - 1` (the same layout
    /// the replay corpus commits).
    pub fn spec_for(self, n: usize) -> ChannelModelSpec {
        match self {
            ChannelModelChoice::Ideal => ChannelModelSpec::Ideal,
            ChannelModelChoice::Lossy => ChannelModelSpec::Lossy { p_loss_ppm: 50_000 },
            ChannelModelChoice::Capture => ChannelModelSpec::Capture { threshold: 128 },
            ChannelModelChoice::Geometric => {
                let side = (1usize..)
                    .find(|s| s * s >= n)
                    .expect("some square covers n");
                let positions: Vec<(i64, i64)> = (0..n as i64)
                    .map(|i| (i % side as i64, i / side as i64))
                    .collect();
                ChannelModelSpec::Geometric {
                    positions,
                    radius: side as u64 - 1,
                }
            }
        }
    }
}

/// Parse a `--channel-model` value: `all`, or a comma list of distinct
/// model names.
pub(crate) fn parse_model_list(value: &str) -> Result<Vec<ChannelModelChoice>, String> {
    if value == "all" {
        return Ok(ChannelModelChoice::ALL.to_vec());
    }
    let mut models = Vec::new();
    for name in value.split(',') {
        let choice = ChannelModelChoice::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| {
                format!(
                    "--channel-model: unknown model \"{name}\" (valid: ideal, lossy, capture, \
                     geometric, all)"
                )
            })?;
        if models.contains(&choice) {
            return Err(format!("--channel-model: \"{name}\" listed twice"));
        }
        models.push(choice);
    }
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_the_committed_corpus_parameters() {
        assert!(ChannelModelChoice::Ideal.spec_for(18).is_ideal());
        assert_eq!(
            ChannelModelChoice::Lossy.spec_for(18),
            ChannelModelSpec::Lossy { p_loss_ppm: 50_000 }
        );
        assert_eq!(
            ChannelModelChoice::Capture.spec_for(18),
            ChannelModelSpec::Capture { threshold: 128 }
        );
        let geo = ChannelModelChoice::Geometric.spec_for(18);
        assert_eq!(geo.label(), "geometric-r4-n18");
        let ChannelModelSpec::Geometric { positions, radius } = geo else {
            panic!("geometric choice builds a geometric spec");
        };
        assert_eq!(radius, 4);
        assert_eq!(positions.len(), 18);
        assert_eq!(positions[0], (0, 0));
        assert_eq!(positions[17], (2, 3));
    }
}
