//! Authenticated encryption: PRF keystream XOR + HMAC tag
//! (encrypt-then-MAC).
//!
//! Sections 6 and 7 of the paper encrypt and sign frames under shared
//! symmetric keys ("encrypted with the key shared by v and w", "encrypted
//! using key K"). [`SealedBox`] is that primitive: secrecy from the XOR
//! keystream, authenticity from the MAC — a spoofed or tampered frame fails
//! [`SealedBox::open`] and is discarded by honest receivers.

use crate::hmac::{hmac_sha256, verify_tag};
use crate::key::{Digest, SymmetricKey};
use crate::prf::Prf;

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

fn keystream(key: &SymmetricKey, nonce: u64, len: usize) -> Vec<u8> {
    let prf = Prf::new(key, b"secure-radio/stream");
    let mut out = Vec::with_capacity(len);
    let mut block = 0u64;
    while out.len() < len {
        let d = prf.eval2(nonce, block);
        let take = (len - out.len()).min(32);
        out.extend_from_slice(&d.as_bytes()[..take]);
        block += 1;
    }
    out
}

fn mac_input(nonce: u64, ciphertext: &[u8]) -> Vec<u8> {
    let mut m = Vec::with_capacity(8 + ciphertext.len());
    m.extend_from_slice(&nonce.to_be_bytes());
    m.extend_from_slice(ciphertext);
    m
}

fn mac_key(key: &SymmetricKey) -> [u8; 32] {
    // Independent subkey for the MAC (encrypt-then-MAC discipline).
    *Prf::new(key, b"secure-radio/mac-subkey").eval(0).as_bytes()
}

impl SealedBox {
    /// Encrypt and authenticate `plaintext` under `key` with public `nonce`.
    ///
    /// Nonces must not repeat under one key for secrecy; the protocols use
    /// the (globally unique) round or epoch number.
    pub fn seal(key: &SymmetricKey, nonce: u64, plaintext: &[u8]) -> Self {
        let stream = keystream(key, nonce, plaintext.len());
        let ciphertext: Vec<u8> = plaintext.iter().zip(&stream).map(|(p, s)| p ^ s).collect();
        let tag = hmac_sha256(&mac_key(key), &mac_input(nonce, &ciphertext));
        SealedBox {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Verify and decrypt. Returns `None` when the tag does not verify
    /// (wrong key, tampered ciphertext, or forged frame).
    pub fn open(&self, key: &SymmetricKey) -> Option<Vec<u8>> {
        let expected = hmac_sha256(&mac_key(key), &mac_input(self.nonce, &self.ciphertext));
        if !verify_tag(&expected, &self.tag) {
            return None;
        }
        let stream = keystream(key, self.nonce, self.ciphertext.len());
        Some(
            self.ciphertext
                .iter()
                .zip(&stream)
                .map(|(c, s)| c ^ s)
                .collect(),
        )
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
        let (boxed, sealed) = during(|| SealedBox::seal(&key(1), 9, &plain));
        assert_eq!(sealed, 12, "seal: keystream 4 + MAC subkey 4 + tag 4");
        let (opened, genuine) = during(|| boxed.open(&key(1)));
        assert_eq!(opened.as_deref(), Some(&plain[..]));
        assert_eq!(
            genuine, 12,
            "genuine open: MAC subkey 4 + tag 4 + keystream 4"
        );
        let (rejected, forged) = during(|| boxed.open(&key(2)));
        assert_eq!(rejected, None);
        assert_eq!(forged, 8, "rejected open stops after the tag check");
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let a = SealedBox::seal(&key(1), 0, b"same plaintext");
        let b = SealedBox::seal(&key(1), 1, b"same plaintext");
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
