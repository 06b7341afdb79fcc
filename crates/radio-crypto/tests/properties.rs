//! Property tests for the cryptographic substrate.

use proptest::prelude::*;

use radio_crypto::cipher::SealedBox;
use radio_crypto::dh::{DhConfig, KeyPair};
use radio_crypto::hmac::hmac_sha256;
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;
use radio_crypto::sha256::Sha256;

proptest! {
    /// seal ∘ open is the identity for every payload/nonce/key.
    #[test]
    fn cipher_roundtrip(
        key_bytes in any::<[u8; 32]>(),
        nonce in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let boxed = SealedBox::seal(&key, nonce, &payload);
        prop_assert_eq!(boxed.open(&key), Some(payload));
    }

    /// Any single-byte tamper of the ciphertext is rejected.
    #[test]
    fn cipher_tamper_rejected(
        key_bytes in any::<[u8; 32]>(),
        payload in proptest::collection::vec(any::<u8>(), 1..100),
        flip_byte in any::<u8>(),
        pos_seed in any::<usize>(),
    ) {
        prop_assume!(flip_byte != 0);
        let key = SymmetricKey::from_bytes(key_bytes);
        let mut boxed = SealedBox::seal(&key, 3, &payload);
        let pos = pos_seed % boxed.ciphertext.len();
        boxed.ciphertext[pos] ^= flip_byte;
        prop_assert_eq!(boxed.open(&key), None);
    }

    /// A different key never opens the box.
    #[test]
    fn cipher_wrong_key_rejected(
        a in any::<[u8; 32]>(),
        b in any::<[u8; 32]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assume!(a != b);
        let boxed = SealedBox::seal(&SymmetricKey::from_bytes(a), 0, &payload);
        prop_assert_eq!(boxed.open(&SymmetricKey::from_bytes(b)), None);
    }

    /// DH key agreement holds for arbitrary secrets.
    #[test]
    fn dh_agreement(sa in 2u64..1_000_000_007, sb in 2u64..1_000_000_007) {
        let cfg = DhConfig::default();
        let alice = KeyPair::from_secret(&cfg, sa);
        let bob = KeyPair::from_secret(&cfg, sb);
        prop_assert_eq!(alice.shared_key(bob.public()), bob.shared_key(alice.public()));
    }

    /// Incremental hashing equals one-shot hashing at any split point.
    #[test]
    fn sha256_incremental(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        split_seed in any::<usize>(),
    ) {
        let oneshot = Sha256::digest(&data);
        let split = if data.is_empty() { 0 } else { split_seed % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// HMAC separates keys and messages.
    #[test]
    fn hmac_sensitivity(
        k1 in proptest::collection::vec(any::<u8>(), 1..80),
        k2 in proptest::collection::vec(any::<u8>(), 1..80),
        m in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &m), hmac_sha256(&k2, &m));
    }

    /// Hopper output is always in range and fully determined by the key.
    #[test]
    fn hopper_range_and_determinism(
        key_bytes in any::<[u8; 32]>(),
        channels in 1usize..32,
        round in any::<u64>(),
    ) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let mut a = ChannelHopper::new(&key, channels);
        let mut b = ChannelHopper::new(&key, channels);
        let ch = a.channel_for(round);
        prop_assert!(ch < channels);
        prop_assert_eq!(ch, b.channel_for(round));
    }

    /// Key fingerprints never equal the raw key and are collision-free in
    /// practice.
    #[test]
    fn fingerprint_hides_key(key_bytes in any::<[u8; 32]>()) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let fp = key.fingerprint();
        prop_assert_ne!(fp.as_bytes(), key.as_bytes());
    }
}
