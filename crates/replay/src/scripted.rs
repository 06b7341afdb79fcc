//! [`ScriptedAdversary`]: re-emit a recorded adversary schedule verbatim
//! through the normal [`Adversary`] trait.
//!
//! The scripted adversary never looks at the [`AdversaryView`] it is
//! handed — in particular it never mines the retained trace the way
//! `BusyChannelJammer` or the omniscient jammers do — so a replay is
//! independent of the engine's [`radio_network::TraceRetention`] and of
//! which resolver (dense oracle or sparse engine) resolves the rounds.
//! Rounds past the end of the script, and rounds missing from a
//! gap-skipped trace, are replayed as idle.

use radio_network::{Adversary, AdversaryAction, AdversaryView, RoundRecord};

/// An adversary that replays a fixed per-round schedule.
#[derive(Clone, Debug)]
pub struct ScriptedAdversary<M> {
    schedule: Vec<AdversaryAction<M>>,
}

impl<M> ScriptedAdversary<M> {
    /// Build a schedule from parsed trace records. `total_rounds` sizes
    /// the schedule (missing rounds stay idle); `decode` turns a recorded
    /// spoof-frame string back into a protocol frame and should error for
    /// frame types whose recorded encoding is lossy.
    ///
    /// # Errors
    /// If a record's round falls outside `0..total_rounds`, or `decode`
    /// rejects a spoofed frame (noise-only schedules never call it).
    pub fn from_records(
        records: &[RoundRecord<String>],
        total_rounds: u64,
        decode: impl Fn(&str) -> Result<M, String>,
    ) -> Result<Self, String> {
        let mut schedule: Vec<AdversaryAction<M>> = Vec::new();
        schedule.resize_with(
            usize::try_from(total_rounds).map_err(|_| "trace round count overflows usize")?,
            AdversaryAction::idle,
        );
        for record in records {
            let slot = schedule
                .get_mut(usize::try_from(record.round).unwrap_or(usize::MAX))
                .ok_or_else(|| {
                    format!(
                        "record for round {} is outside the schedule (0..{total_rounds})",
                        record.round
                    )
                })?;
            for (channel, emission) in record.adversary() {
                let emission = match emission {
                    radio_network::Emission::Noise => radio_network::Emission::Noise,
                    radio_network::Emission::Spoof(frame) => {
                        radio_network::Emission::Spoof(decode(frame).map_err(|e| {
                            format!(
                                "round {}: spoofed frame on channel {}: {e}",
                                record.round, channel.0
                            )
                        })?)
                    }
                };
                slot.push(channel, emission);
            }
        }
        Ok(ScriptedAdversary { schedule })
    }

    /// The number of rounds the schedule covers.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// `true` when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }
}

impl<M: Clone> Adversary<M> for ScriptedAdversary<M> {
    fn act(&mut self, round: u64, _view: &AdversaryView<'_, M>) -> AdversaryAction<M> {
        usize::try_from(round)
            .ok()
            .and_then(|r| self.schedule.get(r))
            .cloned()
            .unwrap_or_else(AdversaryAction::idle)
    }

    fn name(&self) -> &'static str {
        "scripted-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_network::{ChannelId, Emission, Trace, TraceRetention};

    fn record(round: u64, adversary: Vec<(ChannelId, Emission<String>)>) -> RoundRecord<String> {
        RoundRecord::from_parts(round, Vec::new(), Vec::new(), adversary, vec![None, None])
    }

    #[test]
    fn replays_recorded_moves_and_idles_in_gaps() {
        let records = vec![
            record(0, vec![(ChannelId(1), Emission::Noise)]),
            record(
                2,
                vec![(ChannelId(0), Emission::Spoof("forged".to_string()))],
            ),
        ];
        let mut adv =
            ScriptedAdversary::from_records(&records, 4, |s| Ok(s.to_string())).expect("decodes");
        assert_eq!(adv.len(), 4);
        let trace = Trace::new(TraceRetention::None);
        let view = AdversaryView {
            channels: 2,
            budget: 1,
            nodes: 3,
            trace: &trace,
        };
        assert_eq!(
            adv.act(0, &view).transmissions,
            vec![(ChannelId(1), Emission::Noise)]
        );
        assert!(adv.act(1, &view).is_empty());
        assert_eq!(
            adv.act(2, &view).transmissions,
            vec![(ChannelId(0), Emission::Spoof("forged".to_string()))]
        );
        assert!(adv.act(3, &view).is_empty());
        // Past the end of the script: idle, not a panic.
        assert!(adv.act(100, &view).is_empty());
    }

    #[test]
    fn decoder_errors_surface_with_round_context() {
        let records = vec![record(
            1,
            vec![(ChannelId(0), Emission::Spoof("opaque".to_string()))],
        )];
        let err = ScriptedAdversary::<String>::from_records(&records, 2, |_| {
            Err("lossy encoding".to_string())
        })
        .unwrap_err();
        assert!(err.contains("round 1"), "{err}");
        assert!(err.contains("lossy encoding"), "{err}");
    }

    #[test]
    fn out_of_range_round_is_an_error() {
        let records = vec![record(5, Vec::new())];
        assert!(ScriptedAdversary::from_records(&records, 3, |s| Ok(s.to_string())).is_err());
    }
}
