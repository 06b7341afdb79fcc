//! Counter-mode PRF and the pseudo-random channel-hopping generator.
//!
//! Sections 6 and 7 of the paper derive an adversary-unpredictable
//! channel-hopping pattern from a shared secret: in each round the
//! communicating pair (or whole group) tunes to a channel drawn from
//! `PRF(key, round)`. Because the adversary lacks the key, every round it
//! can do no better than guessing which `t` of the `C` channels to jam.
//!
//! ## The hop sequence: one PRF block per 32 rounds
//!
//! Rounds are grouped in blocks of 32. Round `r` reads byte `r mod 32` of
//! `B = PRF(K, "secure-radio/hop-block", r / 32)`, one 32-byte output:
//!
//! * a byte `x` below `zone = ⌊256 / C⌋ · C` selects channel `x mod C`;
//! * a byte at or above `zone` falls back to per-round rejection sampling:
//!   the first of `PRF(K, "secure-radio/hop", r, attempt)`, attempt = 0,
//!   1, …, whose leading 16 bytes fall below the largest multiple of `C`
//!   in `u128`, taken mod `C`.
//!
//! A holder of the sequence ([`ChannelHopper`], or a [`HopBlock`] beside a
//! key held elsewhere) keeps the current block, so hopping costs 2 SHA-256
//! compressions per 32 rounds plus 2 per fallback round; at `C = 3` a
//! round falls back with probability 1/256.
//!
//! **Security.** Modelled as a random function, the PRF gives every
//! distinct input an independent uniform output, so the 32 bytes of one
//! block are independent uniform values. Channels seen earlier in a block
//! (an adversary learns them by watching where the group transmits)
//! therefore reveal nothing about the later ones; distinct blocks are
//! distinct inputs, and the fallback inputs are disjoint from the block
//! inputs (another label and another length: 32 bytes against 30), so no
//! round's channel depends on any other's. Each round's channel is
//! uniform on `0..C` — an accepted byte is uniform below a multiple of
//! `C`, and so is a fallback draw — and the adversary still blocks a
//! given round with probability at most `t / C`, exactly as with one PRF
//! call per round. Per-channel load stays exactly uniform, which the
//! delivery-probability experiments rely on. The sealing PRFs under the
//! same key ([`cipher`](crate::cipher): keystream and MAC subkey) take
//! inputs of other labels and lengths too (35 and 31 bytes), so the hop
//! sequence is independent of every sealed frame.

use crate::hmac::HmacKey;
use crate::key::{Digest, SymmetricKey};

/// `PRF(key, label, counter) = HMAC-SHA256(key, label || counter_be)`
/// under a key whose blocks are already hashed: 2 compressions for labels
/// up to 47 bytes.
pub fn eval(key: &HmacKey, label: &[u8], counter: u64) -> Digest {
    key.mac_parts(&[label, &counter.to_be_bytes()])
}

/// `PRF(key, label, counter, tweak) = HMAC-SHA256(key, label || counter_be
/// || tweak_be)` — two-dimensional inputs (2 compressions for labels up to
/// 39 bytes).
pub fn eval2(key: &HmacKey, label: &[u8], counter: u64, tweak: u64) -> Digest {
    key.mac_parts(&[label, &counter.to_be_bytes(), &tweak.to_be_bytes()])
}

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

impl Prf {
    /// A PRF under `key` with domain-separation `label`.
    pub fn new(key: &SymmetricKey, label: &'static [u8]) -> Self {
        Prf {
            key: HmacKey::new(key.as_bytes()),
            label,
        }
    }

    /// Evaluate at `counter`.
    pub fn eval(&self, counter: u64) -> Digest {
        eval(&self.key, self.label, counter)
    }

    /// Evaluate at `(counter, tweak)` — two-dimensional inputs.
    pub fn eval2(&self, counter: u64, tweak: u64) -> Digest {
        eval2(&self.key, self.label, counter, tweak)
    }
}

/// Label of the per-block hop PRF.
const HOP_BLOCK_LABEL: &[u8] = b"secure-radio/hop-block";
/// Label of the per-round fallback PRF.
const HOP_LABEL: &[u8] = b"secure-radio/hop";
/// Rounds served by one hop block: one per output byte.
const ROUNDS_PER_BLOCK: u64 = 32;
/// [`HopBlock::index`] before the first hop (`round / 32` never reaches it).
const NO_BLOCK: u64 = u64::MAX;

/// The held state of one key's hop sequence: the PRF block of the current
/// 32 rounds (see the [module docs](self)).
///
/// It holds no key: [`HopBlock::channel_for`] takes the key's
/// [`HmacKey`], so a holder that already keeps that key for other PRF
/// uses (a [`SealKey`](crate::cipher::SealKey)'s keystream) hops without a
/// second copy. One `HopBlock` serves one key; start a new one when the
/// key changes. The block predicts up to 32 future channels, so `Debug`
/// is redacted.
#[derive(Clone)]
pub struct HopBlock {
    /// Which block `bytes` holds (`round / 32`), or [`NO_BLOCK`].
    index: u64,
    bytes: [u8; 32],
}

impl HopBlock {
    /// An empty block: the first hop computes one.
    pub fn new() -> Self {
        HopBlock {
            index: NO_BLOCK,
            bytes: [0; 32],
        }
    }

    /// The channel for round `round`, in `0..channels`, of the hop
    /// sequence keyed by `key`: 2 compressions on the first round of a
    /// block, none on the others, plus 2 on a fallback round.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn channel_for(&mut self, key: &HmacKey, channels: usize, round: u64) -> usize {
        let index = round / ROUNDS_PER_BLOCK;
        if self.index != index {
            self.bytes = *eval(key, HOP_BLOCK_LABEL, index).as_bytes();
            self.index = index;
        }
        let x = usize::from(self.bytes[(round % ROUNDS_PER_BLOCK) as usize]);
        if x < 256 / channels * channels {
            x % channels
        } else {
            fallback_channel(key, channels, round)
        }
    }
}

impl Default for HopBlock {
    fn default() -> Self {
        HopBlock::new()
    }
}

impl std::fmt::Debug for HopBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HopBlock(<redacted>)")
    }
}

/// Per-round rejection sampling over 128-bit PRF outputs: the channel of a
/// round whose block byte fell outside the zone.
fn fallback_channel(key: &HmacKey, channels: usize, round: u64) -> usize {
    let c = channels as u128;
    let zone = (u128::MAX / c) * c;
    let mut attempt = 0u64;
    loop {
        let d = eval2(key, HOP_LABEL, round, attempt);
        let x = u128::from_be_bytes(d.as_bytes()[..16].try_into().expect("16 bytes"));
        if x < zone {
            return (x % c) as usize;
        }
        attempt += 1;
    }
}

/// The channel-hopping sequence shared by everyone who knows `key`.
///
/// Building one hashes the key blocks (2 compressions); hold it for as
/// long as the key lives, and [`ChannelHopper::channel_for`] costs 2
/// compressions per 32 rounds (see the [module docs](self)).
///
/// ```rust
/// use radio_crypto::{ChannelHopper, key::SymmetricKey};
/// let key = SymmetricKey::from_bytes([1u8; 32]);
/// let mut hopper = ChannelHopper::new(&key, 4);
/// // Both endpoints compute the same channel for round 17:
/// assert_eq!(hopper.channel_for(17), ChannelHopper::new(&key, 4).channel_for(17));
/// assert!(hopper.channel_for(17) < 4);
/// ```
#[derive(Clone, Debug)]
pub struct ChannelHopper {
    key: HmacKey,
    channels: usize,
    block: HopBlock,
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
            key: HmacKey::new(key.as_bytes()),
            channels,
            block: HopBlock::new(),
        }
    }

    /// The channel index for round `round`, in `0..channels`.
    pub fn channel_for(&mut self, round: u64) -> usize {
        self.block.channel_for(&self.key, self.channels, round)
    }

    /// Number of channels hopped over.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use crate::sha256::compressions::during;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    /// The hop sequence written out from the module docs with one-shot
    /// HMACs, independent of [`HopBlock`]'s caching.
    fn reference_channel(key: &SymmetricKey, channels: usize, round: u64) -> usize {
        let mut input = b"secure-radio/hop-block".to_vec();
        input.extend_from_slice(&(round / 32).to_be_bytes());
        let block = hmac_sha256(key.as_bytes(), &input);
        let x = usize::from(block.as_bytes()[(round % 32) as usize]);
        if x < 256 / channels * channels {
            return x % channels;
        }
        let c = channels as u128;
        (0u64..)
            .map(|attempt| {
                let mut input = b"secure-radio/hop".to_vec();
                input.extend_from_slice(&round.to_be_bytes());
                input.extend_from_slice(&attempt.to_be_bytes());
                let d = hmac_sha256(key.as_bytes(), &input);
                u128::from_be_bytes(d.as_bytes()[..16].try_into().expect("16 bytes"))
            })
            .find(|&x| x < u128::MAX / c * c)
            .map(|x| (x % c) as usize)
            .expect("rejection sampling terminates")
    }

    /// Rounds in `rounds` whose block byte is at or above the zone.
    fn fallback_rounds(key: &SymmetricKey, channels: usize, rounds: u64) -> Vec<u64> {
        let hop = HmacKey::new(key.as_bytes());
        (0..rounds)
            .filter(|&r| {
                let block = eval(&hop, HOP_BLOCK_LABEL, r / 32);
                usize::from(block.as_bytes()[(r % 32) as usize]) >= 256 / channels * channels
            })
            .collect()
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
    fn prf_is_hmac_of_label_and_counters() {
        let held = HmacKey::new(key(1).as_bytes());
        let mut input = b"label".to_vec();
        input.extend_from_slice(&7u64.to_be_bytes());
        assert_eq!(
            eval(&held, b"label", 7),
            hmac_sha256(key(1).as_bytes(), &input)
        );
        assert_eq!(
            Prf::new(&key(1), b"label").eval(7),
            eval(&held, b"label", 7)
        );
        input.extend_from_slice(&9u64.to_be_bytes());
        assert_eq!(
            eval2(&held, b"label", 7, 9),
            hmac_sha256(key(1).as_bytes(), &input)
        );
        assert_eq!(
            Prf::new(&key(1), b"label").eval2(7, 9),
            eval2(&held, b"label", 7, 9)
        );
    }

    /// Known answers at C = 3 (no fallback in these rounds) and C = 7
    /// (bytes 252–255 fall back), checked against the spelled-out
    /// definition too.
    #[test]
    fn known_answer_hop_sequences() {
        let k = key(0x2A);
        let mut c3 = ChannelHopper::new(&k, 3);
        let seq3: Vec<usize> = (0..40).map(|r| c3.channel_for(r)).collect();
        assert_eq!(seq3, KAT_C3);
        assert!(fallback_rounds(&k, 3, 40).is_empty());
        let mut c7 = ChannelHopper::new(&k, 7);
        let seq7: Vec<usize> = (0..64).map(|r| c7.channel_for(r)).collect();
        assert_eq!(seq7, KAT_C7);
        assert_eq!(fallback_rounds(&k, 7, 64), KAT_C7_FALLBACKS);
        for r in 0..64 {
            assert_eq!(
                seq7[r as usize],
                reference_channel(&k, 7, r),
                "C=7 round {r}"
            );
            if r < 40 {
                assert_eq!(
                    seq3[r as usize],
                    reference_channel(&k, 3, r),
                    "C=3 round {r}"
                );
            }
        }
    }

    /// Channels of rounds 0..40 at C = 3 under key `[0x2A; 32]`.
    const KAT_C3: [usize; 40] = [
        0, 0, 2, 0, 0, 0, 0, 1, 0, 2, 2, 1, 0, 1, 2, 2, 0, 2, 1, 2, //
        0, 0, 2, 0, 1, 0, 0, 2, 0, 2, 0, 2, 1, 0, 2, 2, 1, 0, 0, 1,
    ];
    /// Channels of rounds 0..64 at C = 7 under key `[0x2A; 32]`.
    const KAT_C7: [usize; 64] = [
        4, 1, 2, 1, 6, 3, 3, 0, 2, 2, 0, 5, 6, 2, 0, 0, 2, 0, 2, 1, 1, 5, 0, 1, 2, 1, 1, 4, 3, 0,
        5, 1, 3, 1, 3, 1, 1, 5, 4, 3, 0, 5, 1, 4, 0, 3, 2, 3, 3, 6, 1, 5, 1, 0, 0, 2, 1, 0, 2, 2,
        6, 1, 5, 4,
    ];
    /// Rounds of `KAT_C7` whose block byte is 252–255.
    const KAT_C7_FALLBACKS: [u64; 1] = [41];

    #[test]
    fn fallback_rounds_use_per_round_rejection_sampling() {
        let k = key(0x2A);
        let mut hopper = ChannelHopper::new(&k, 7);
        let fallbacks = fallback_rounds(&k, 7, 2048);
        assert!(!fallbacks.is_empty(), "4/256 of the rounds fall back");
        for &r in &fallbacks {
            assert_eq!(
                hopper.channel_for(r),
                reference_channel(&k, 7, r),
                "round {r}"
            );
        }
    }

    #[test]
    fn hopper_is_shared_knowledge() {
        let mut a = ChannelHopper::new(&key(3), 7);
        let mut b = ChannelHopper::new(&key(3), 7);
        for round in 0..100 {
            assert_eq!(a.channel_for(round), b.channel_for(round));
        }
        // A hopper answers any round, in any order.
        for round in [5u64, 99, 0, 64, 31, 32] {
            assert_eq!(
                a.channel_for(round),
                ChannelHopper::new(&key(3), 7).channel_for(round)
            );
        }
    }

    #[test]
    fn hopper_differs_across_keys() {
        let mut a = ChannelHopper::new(&key(3), 16);
        let mut b = ChannelHopper::new(&key(4), 16);
        let same = (0..64)
            .filter(|&r| a.channel_for(r) == b.channel_for(r))
            .count();
        assert!(
            same < 16,
            "sequences should look independent, {same}/64 equal"
        );
    }

    /// Per-channel counts over 10⁶ rounds pass a chi-square test at
    /// p = 0.001, at C = 3 and at C = 7 (where 4/256 of the rounds fall
    /// back).
    #[test]
    fn hopper_is_uniform_by_chi_square() {
        const ROUNDS: u64 = 1_000_000;
        // Chi-square critical values at p = 0.001 for C - 1 degrees of
        // freedom.
        for (channels, critical) in [(3usize, 13.816), (7, 22.458)] {
            let mut hopper = ChannelHopper::new(&key(9), channels);
            let mut counts = vec![0u64; channels];
            for r in 0..ROUNDS {
                counts[hopper.channel_for(r)] += 1;
            }
            let expected = ROUNDS as f64 / channels as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&n| (n as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < critical,
                "C={channels}: chi-square {chi2:.2} >= {critical} for counts {counts:?}"
            );
        }
    }

    #[test]
    fn held_hopper_costs_two_compressions_per_block() {
        let (mut hopper, n) = during(|| ChannelHopper::new(&key(5), 3));
        assert_eq!(n, 2, "key blocks, paid once");
        assert!(
            fallback_rounds(&key(5), 3, 128).is_empty(),
            "key 5 has no byte 255 in its first four blocks"
        );
        for round in 0..128u64 {
            let expected = if round.is_multiple_of(32) { 2 } else { 0 };
            assert_eq!(
                during(|| hopper.channel_for(round)).1,
                expected,
                "round {round}"
            );
        }
        // A fallback round pays one more PRF call (2 compressions).
        let k = key(0x2A);
        let mut c7 = ChannelHopper::new(&k, 7);
        let r = fallback_rounds(&k, 7, 2048)[0];
        let _ = c7.channel_for(r - r % 32); // the block of round r
        let expected = if r.is_multiple_of(32) { 4 } else { 2 };
        assert_eq!(
            during(|| c7.channel_for(r)).1,
            expected,
            "fallback round {r}"
        );
    }

    /// A key change in mid-block starts a fresh block under the new key:
    /// its first hop pays for a block, and no byte of the old key's block
    /// is reused.
    #[test]
    fn rekey_in_mid_block_starts_a_fresh_block() {
        let (old, new) = (key(1), key(2));
        let mut reference = ChannelHopper::new(&new, 3);
        let old_key = HmacKey::new(old.as_bytes());
        let new_key = HmacKey::new(new.as_bytes());
        let mut hop = HopBlock::new();
        for round in 0..40 {
            let _ = hop.channel_for(&old_key, 3, round);
        }
        // The holder starts a new `HopBlock` with the new key at round 40,
        // eight rounds into block 1.
        let mut hop = HopBlock::new();
        let (first, cost) = during(|| hop.channel_for(&new_key, 3, 40));
        assert_eq!(cost, 2, "a fresh block");
        assert_eq!(first, reference.channel_for(40));
        for round in 41..100 {
            assert_eq!(
                hop.channel_for(&new_key, 3, round),
                reference.channel_for(round),
                "round {round}"
            );
        }
    }

    #[test]
    fn one_channel_is_always_channel_zero() {
        let mut hopper = ChannelHopper::new(&key(7), 1);
        assert!((0..100).all(|r| hopper.channel_for(r) == 0));
    }

    #[test]
    fn debug_of_hop_state_is_redacted() {
        let mut hopper = ChannelHopper::new(&key(7), 3);
        let _ = hopper.channel_for(0);
        let dbg = format!("{hopper:?}");
        assert!(dbg.contains("HopBlock(<redacted>)"), "{dbg}");
        assert!(!dbg.contains("bytes"), "{dbg}");
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ChannelHopper::new(&key(0), 0);
    }
}
