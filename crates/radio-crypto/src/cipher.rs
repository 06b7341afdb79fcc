//! Authenticated encryption: PRF keystream XOR + HMAC tag
//! (encrypt-then-MAC).
//!
//! Sections 6 and 7 of the paper encrypt and sign frames under shared
//! symmetric keys ("encrypted with the key shared by v and w", "encrypted
//! using key K"). [`SealedBox`] is that primitive: secrecy from the XOR
//! keystream, authenticity from the MAC — a spoofed or tampered frame fails
//! [`SealedBox::open`] and is discarded by honest receivers.
//!
//! A [`SealKey`] holds what sealing derives from the key — `K`'s HMAC
//! midstates and the MAC subkey's — so a holder seals or opens a short
//! frame for 4 compressions; [`SealedBox::seal`] and [`SealedBox::open`]
//! are one-shot wrappers that build one per call (6 compressions more).

use crate::hmac::{verify_tag, HmacKey};
use crate::key::{Digest, SymmetricKey};
use crate::prf;

/// Label of the keystream PRF.
const STREAM_LABEL: &[u8] = b"secure-radio/stream";
/// Label deriving the MAC subkey.
const MAC_SUBKEY_LABEL: &[u8] = b"secure-radio/mac-subkey";

/// An encrypted, authenticated frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedBox {
    /// Public nonce (round number / epoch counter in the protocols).
    pub nonce: u64,
    /// XOR-encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC over `(nonce, ciphertext)` under the MAC subkey.
    pub tag: Digest,
}

/// A symmetric key prepared for sealing and opening: `K`'s HMAC key (the
/// keystream PRF's) and the HMAC key of the MAC subkey
/// `PRF(K, "secure-radio/mac-subkey", 0)`.
///
/// Building one costs 6 compressions. A frame of up to 32 bytes then
/// costs 4 to seal (keystream 2, tag 2), 4 to open genuinely and 2 to
/// reject; frames are byte-identical to [`SealedBox::seal`]'s. Sealing is
/// deterministic in `(K, nonce, plaintext)`. Both halves are
/// key-equivalent, so `Debug` shows only redacted [`HmacKey`]s.
#[derive(Clone, Debug)]
pub struct SealKey {
    key: HmacKey,
    mac: HmacKey,
}

impl SealKey {
    /// Derive the seal key of `key` (6 compressions).
    pub fn new(key: &SymmetricKey) -> Self {
        let key = HmacKey::new(key.as_bytes());
        let mac = HmacKey::new(prf::eval(&key, MAC_SUBKEY_LABEL, 0).as_bytes());
        SealKey { key, mac }
    }

    /// `K`'s HMAC key: the PRF key of the keystream and, for a holder that
    /// hops on the same key, of the hop sequence
    /// ([`HopBlock::channel_for`](crate::prf::HopBlock::channel_for)).
    /// The uses differ by label only.
    pub fn prf_key(&self) -> &HmacKey {
        &self.key
    }

    /// Encrypt and authenticate `plaintext` with public `nonce`.
    ///
    /// Nonces must not repeat under one key for distinct plaintexts; the
    /// protocols use the (globally unique) round or epoch number.
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> SealedBox {
        let mut ciphertext = plaintext.to_vec();
        self.apply_keystream(nonce, &mut ciphertext);
        let tag = self.tag(nonce, &ciphertext);
        SealedBox {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Verify and decrypt `sealed`. Returns `None` when the tag does not
    /// verify (wrong key, tampered ciphertext, or forged frame), before
    /// any keystream is computed.
    pub fn open(&self, sealed: &SealedBox) -> Option<Vec<u8>> {
        if !verify_tag(&self.tag(sealed.nonce, &sealed.ciphertext), &sealed.tag) {
            return None;
        }
        let mut plaintext = sealed.ciphertext.clone();
        self.apply_keystream(sealed.nonce, &mut plaintext);
        Some(plaintext)
    }

    /// XOR `buf` with the keystream `PRF(K, stream, nonce, 0) || PRF(K,
    /// stream, nonce, 1) || …`.
    fn apply_keystream(&self, nonce: u64, buf: &mut [u8]) {
        for (block, chunk) in (0u64..).zip(buf.chunks_mut(32)) {
            let stream = prf::eval2(&self.key, STREAM_LABEL, nonce, block);
            for (b, s) in chunk.iter_mut().zip(stream.as_bytes()) {
                *b ^= s;
            }
        }
    }

    /// The tag: HMAC under the MAC subkey of `nonce_be || ciphertext`.
    fn tag(&self, nonce: u64, ciphertext: &[u8]) -> Digest {
        self.mac.mac_parts(&[&nonce.to_be_bytes(), ciphertext])
    }
}

impl SealedBox {
    /// Encrypt and authenticate `plaintext` under `key` with public `nonce`:
    /// [`SealKey::seal`] under a seal key built for this one call.
    ///
    /// Nonces must not repeat under one key for distinct plaintexts; the
    /// protocols use the (globally unique) round or epoch number.
    pub fn seal(key: &SymmetricKey, nonce: u64, plaintext: &[u8]) -> Self {
        SealKey::new(key).seal(nonce, plaintext)
    }

    /// Verify and decrypt: [`SealKey::open`] under a seal key built for
    /// this one call. Returns `None` when the tag does not verify (wrong
    /// key, tampered ciphertext, or forged frame).
    pub fn open(&self, key: &SymmetricKey) -> Option<Vec<u8>> {
        SealKey::new(key).open(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    #[test]
    fn roundtrip() {
        let k = key(1);
        for len in [0usize, 1, 31, 32, 33, 100] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let boxed = SealedBox::seal(&k, 7, &pt);
            assert_eq!(boxed.open(&k), Some(pt));
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let boxed = SealedBox::seal(&key(1), 0, b"secret");
        assert_eq!(boxed.open(&key(2)), None);
    }

    #[test]
    fn tamper_rejected() {
        let mut boxed = SealedBox::seal(&key(1), 0, b"secret!");
        boxed.ciphertext[3] ^= 1;
        assert_eq!(boxed.open(&key(1)), None);
    }

    #[test]
    fn nonce_tamper_rejected() {
        let mut boxed = SealedBox::seal(&key(1), 5, b"secret!");
        boxed.nonce = 6;
        assert_eq!(boxed.open(&key(1)), None);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let boxed = SealedBox::seal(&key(1), 0, b"attack at dawn");
        assert_ne!(&boxed.ciphertext[..], b"attack at dawn");
    }

    #[test]
    fn compression_counts_at_frame_size() {
        use crate::sha256::compressions::during;
        // A long-lived frame: 12-byte header plus a 16-byte payload.
        let plain = [0x42u8; 28];
        let (held, derived) = during(|| SealKey::new(&key(1)));
        assert_eq!(derived, 6, "K midstates 2 + MAC subkey 2 + its midstates 2");
        let (boxed, sealed) = during(|| held.seal(9, &plain));
        assert_eq!(sealed, 4, "held seal: keystream 2 + tag 2");
        let (opened, genuine) = during(|| held.open(&boxed));
        assert_eq!(opened.as_deref(), Some(&plain[..]));
        assert_eq!(genuine, 4, "held genuine open: tag 2 + keystream 2");
        let forged = SealKey::new(&key(2)).seal(9, &plain);
        let (rejected, cost) = during(|| held.open(&forged));
        assert_eq!(rejected, None);
        assert_eq!(cost, 2, "held rejected open stops after the tag check");
        // The one-shot wrappers build the seal key on every call.
        assert_eq!(during(|| SealedBox::seal(&key(1), 9, &plain)).1, 10);
        assert_eq!(during(|| boxed.open(&key(1))).1, 10);
        assert_eq!(during(|| boxed.open(&key(2))).1, 8);
    }

    /// The frame format, written out from its definition with one-shot
    /// HMACs: keystream blocks `HMAC(K, "secure-radio/stream" || nonce ||
    /// block)`, MAC subkey `HMAC(K, "secure-radio/mac-subkey" || 0)`, tag
    /// `HMAC(subkey, nonce || ciphertext)`.
    fn reference_seal(key: &SymmetricKey, nonce: u64, plaintext: &[u8]) -> SealedBox {
        use crate::hmac::hmac_sha256;
        let k = key.as_bytes();
        let ciphertext: Vec<u8> = plaintext
            .chunks(32)
            .zip(0u64..)
            .flat_map(|(chunk, block)| {
                let mut input = b"secure-radio/stream".to_vec();
                input.extend_from_slice(&nonce.to_be_bytes());
                input.extend_from_slice(&block.to_be_bytes());
                let stream = hmac_sha256(k, &input);
                chunk
                    .iter()
                    .zip(stream.as_bytes())
                    .map(|(p, s)| p ^ s)
                    .collect::<Vec<u8>>()
            })
            .collect();
        let mut input = b"secure-radio/mac-subkey".to_vec();
        input.extend_from_slice(&0u64.to_be_bytes());
        let subkey = hmac_sha256(k, &input);
        let mut mac_input = nonce.to_be_bytes().to_vec();
        mac_input.extend_from_slice(&ciphertext);
        SealedBox {
            nonce,
            tag: hmac_sha256(subkey.as_bytes(), &mac_input),
            ciphertext,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A held seal key and the one-shot wrappers produce and accept
        /// the same bytes, and both match the frame format's definition.
        #[test]
        fn held_seal_key_matches_one_shot_byte_for_byte(
            k in proptest::prelude::any::<[u8; 32]>(),
            nonce in proptest::prelude::any::<u64>(),
            plaintext in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..101usize),
        ) {
            let key = SymmetricKey::from_bytes(k);
            let held = SealKey::new(&key);
            let boxed = held.seal(nonce, &plaintext);
            proptest::prop_assert_eq!(&boxed, &SealedBox::seal(&key, nonce, &plaintext));
            proptest::prop_assert_eq!(&boxed, &reference_seal(&key, nonce, &plaintext));
            proptest::prop_assert_eq!(held.open(&boxed), boxed.open(&key));
            proptest::prop_assert_eq!(held.open(&boxed), Some(plaintext.clone()));
            let mut tampered = boxed.clone();
            tampered.tag = Digest::from_bytes([0; 32]);
            proptest::prop_assert_eq!(held.open(&tampered), None);
        }
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let a = SealedBox::seal(&key(1), 0, b"same plaintext");
        let b = SealedBox::seal(&key(1), 1, b"same plaintext");
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
