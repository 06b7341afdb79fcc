//! Counter-mode PRF and the pseudo-random channel-hopping generator.
//!
//! Sections 6 and 7 of the paper derive an adversary-unpredictable
//! channel-hopping pattern from a shared secret: in each round the
//! communicating pair (or whole group) tunes to `PRF(key, round) mod C`.
//! Because the adversary lacks the key, every round it can do no better than
//! guessing which `t` of the `C` channels to jam.

use crate::hmac::HmacKey;
use crate::key::{Digest, SymmetricKey};

/// A keyed pseudo-random function `F(key, label, counter) -> 32 bytes`,
/// instantiated as `HMAC-SHA256(key, label || counter_be)`.
///
/// The `label` domain-separates independent uses of the same key (hopping
/// vs. keystream vs. key derivation). The key blocks are hashed once, in
/// [`Prf::new`]; each evaluation then costs 2 compressions.
#[derive(Clone, Debug)]
pub struct Prf {
    key: HmacKey,
    label: &'static [u8],
}

/// Longest domain-separation label a [`Prf`] accepts — sized so every
/// evaluation's `label || counter || tweak` input fits a stack buffer
/// (the hopping PRF runs once per node per round; heap traffic here
/// would break the gateway's zero-allocation steady-state tick).
pub const MAX_LABEL: usize = 48;

impl Prf {
    /// A PRF under `key` with domain-separation `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label` exceeds [`MAX_LABEL`] bytes.
    pub fn new(key: &SymmetricKey, label: &'static [u8]) -> Self {
        assert!(
            label.len() <= MAX_LABEL,
            "PRF label exceeds MAX_LABEL bytes"
        );
        Prf {
            key: HmacKey::new(key.as_bytes()),
            label,
        }
    }

    /// Evaluate at `counter`.
    pub fn eval(&self, counter: u64) -> Digest {
        let mut msg = [0u8; MAX_LABEL + 8];
        let l = self.label.len();
        msg[..l].copy_from_slice(self.label);
        msg[l..l + 8].copy_from_slice(&counter.to_be_bytes());
        self.key.mac(&msg[..l + 8])
    }

    /// Evaluate at `(counter, tweak)` — two-dimensional inputs.
    pub fn eval2(&self, counter: u64, tweak: u64) -> Digest {
        let mut msg = [0u8; MAX_LABEL + 16];
        let l = self.label.len();
        msg[..l].copy_from_slice(self.label);
        msg[l..l + 8].copy_from_slice(&counter.to_be_bytes());
        msg[l + 8..l + 16].copy_from_slice(&tweak.to_be_bytes());
        self.key.mac(&msg[..l + 16])
    }
}

/// The channel-hopping sequence shared by everyone who knows `key`.
///
/// Building one hashes the key blocks (2 compressions); hold it for as
/// long as the key lives, and each [`ChannelHopper::channel_for`] costs 2
/// compressions per rejection-sampling attempt.
///
/// ```rust
/// use radio_crypto::{ChannelHopper, key::SymmetricKey};
/// let key = SymmetricKey::from_bytes([1u8; 32]);
/// let hopper = ChannelHopper::new(&key, 4);
/// // Both endpoints compute the same channel for round 17:
/// assert_eq!(hopper.channel_for(17), ChannelHopper::new(&key, 4).channel_for(17));
/// assert!(hopper.channel_for(17) < 4);
/// ```
#[derive(Clone, Debug)]
pub struct ChannelHopper {
    prf: Prf,
    channels: usize,
}

impl ChannelHopper {
    /// A hopping sequence over `channels` channels keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(key: &SymmetricKey, channels: usize) -> Self {
        assert!(channels > 0, "hopping needs at least one channel");
        ChannelHopper {
            prf: Prf::new(key, b"secure-radio/hop"),
            channels,
        }
    }

    /// The channel index for round `round`, in `0..channels`.
    ///
    /// Uses rejection sampling to avoid modulo bias (irrelevant for secrecy
    /// here, but it keeps the per-channel load exactly uniform, which the
    /// delivery-probability experiments rely on).
    pub fn channel_for(&self, round: u64) -> usize {
        let c = self.channels as u128;
        let zone = (u128::MAX / c) * c;
        let mut attempt = 0u64;
        loop {
            let d = self.prf.eval2(round, attempt);
            let x = u128::from_be_bytes(d.as_bytes()[..16].try_into().expect("16 bytes"));
            if x < zone {
                return (x % c) as usize;
            }
            attempt += 1;
        }
    }

    /// Number of channels hopped over.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    #[test]
    fn prf_is_deterministic_and_label_separated() {
        let p1 = Prf::new(&key(1), b"a");
        let p2 = Prf::new(&key(1), b"b");
        assert_eq!(p1.eval(5), p1.eval(5));
        assert_ne!(p1.eval(5), p2.eval(5));
        assert_ne!(p1.eval(5), p1.eval(6));
        assert_ne!(p1.eval2(5, 0), p1.eval2(5, 1));
    }

    #[test]
    fn hopper_is_shared_knowledge() {
        let a = ChannelHopper::new(&key(3), 7);
        let b = ChannelHopper::new(&key(3), 7);
        for round in 0..100 {
            assert_eq!(a.channel_for(round), b.channel_for(round));
        }
    }

    #[test]
    fn hopper_differs_across_keys() {
        let a = ChannelHopper::new(&key(3), 16);
        let b = ChannelHopper::new(&key(4), 16);
        let same = (0..64)
            .filter(|&r| a.channel_for(r) == b.channel_for(r))
            .count();
        assert!(
            same < 16,
            "sequences should look independent, {same}/64 equal"
        );
    }

    #[test]
    fn hopper_is_roughly_uniform() {
        let hopper = ChannelHopper::new(&key(9), 5);
        let mut counts = [0u32; 5];
        let rounds = 5_000;
        for r in 0..rounds {
            counts[hopper.channel_for(r)] += 1;
        }
        let expected = rounds as f64 / 5.0;
        for (ch, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "channel {ch} count {c} deviates {dev:.2}");
        }
    }

    #[test]
    fn held_hopper_costs_two_compressions_per_hop() {
        use crate::sha256::compressions::during;
        let (hopper, n) = during(|| ChannelHopper::new(&key(5), 3));
        assert_eq!(n, 2, "key blocks, paid once");
        // With 3 channels a rejection resample has probability ~2^-127.
        for round in 0..64 {
            assert_eq!(during(|| hopper.channel_for(round)).1, 2, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ChannelHopper::new(&key(0), 0);
    }
}
