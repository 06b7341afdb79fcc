//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.

use std::fmt;

use crate::key::Digest;
use crate::sha256::Sha256;

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// An HMAC-SHA-256 key with its two key blocks already hashed.
///
/// HMAC hashes `key ⊕ ipad` and `key ⊕ opad` as the first block of its
/// inner and outer hashes; both depend on the key alone, so this caches
/// the two chaining values (bare `[u32; 8]` midstates) and each
/// [`HmacKey::mac`] of a message up to 55 bytes then costs 2 compressions
/// instead of 4. The midstates are key-equivalent — anyone holding them
/// can forge tags — so `Debug` is redacted.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Hash the key blocks of `key` (2 compressions; keys longer than a
    /// block are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = Sha256::digest(key);
            key_block[..32].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        // Pads live on the stack: the gateway's steady-state tick is
        // pinned at zero heap allocations.
        let pad = |byte: u8| {
            let mut pad = [0u8; BLOCK];
            for (p, b) in pad.iter_mut().zip(&key_block) {
                *p = b ^ byte;
            }
            Sha256::block_midstate(&pad)
        };
        HmacKey {
            inner: pad(IPAD),
            outer: pad(OPAD),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        self.mac_parts(&[message])
    }

    /// `HMAC-SHA256(key, parts[0] || parts[1] || …)`, hashing the parts in
    /// place: the concatenation is never built, so a tag over a header and
    /// a body costs no heap allocation.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::resume_after_block(self.inner);
        for part in parts {
            inner.update(part);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::resume_after_block(self.outer);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

/// Compute `HMAC-SHA256(key, message)` in one shot: [`HmacKey::new`] then
/// [`HmacKey::mac`]. Hold an [`HmacKey`] instead when one key tags many
/// messages.
///
/// ```rust
/// use radio_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-shape tag comparison.
///
/// Good hygiene even in a simulator: compares all bytes before deciding.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key larger than one block.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn tag_verification() {
        let a = hmac_sha256(b"k", b"m");
        let b = hmac_sha256(b"k", b"m");
        let c = hmac_sha256(b"k", b"m2");
        assert!(verify_tag(&a, &b));
        assert!(!verify_tag(&a, &c));
        let _ = hex(a.as_bytes()); // silence unused helper in some cfgs
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn held_key_matches_one_shot() {
        let key = HmacKey::new(b"Jefe");
        for len in [0usize, 1, 55, 56, 64, 200] {
            let msg = vec![0x5Au8; len];
            assert_eq!(key.mac(&msg), hmac_sha256(b"Jefe", &msg), "len {len}");
        }
    }

    #[test]
    fn mac_parts_is_mac_of_the_concatenation() {
        let key = HmacKey::new(b"Jefe");
        let msg: Vec<u8> = (0u8..100).collect();
        for cut in [0usize, 1, 8, 55, 64, 100] {
            let (head, tail) = msg.split_at(cut);
            assert_eq!(key.mac_parts(&[head, tail]), key.mac(&msg), "cut {cut}");
        }
        assert_eq!(key.mac_parts(&[]), key.mac(b""));
    }

    #[test]
    fn compression_counts() {
        use crate::sha256::compressions::during;
        let (key, n) = during(|| HmacKey::new(&[7u8; 32]));
        assert_eq!(n, 2, "key blocks");
        assert_eq!(
            during(|| key.mac(&[0u8; 55])).1,
            2,
            "held key, 55-byte message"
        );
        assert_eq!(
            during(|| key.mac(&[0u8; 36])).1,
            2,
            "held key, 36-byte message"
        );
        assert_eq!(
            during(|| hmac_sha256(&[7u8; 32], &[0u8; 36])).1,
            4,
            "one shot"
        );
    }

    #[test]
    fn debug_of_hmac_key_is_redacted() {
        let key = HmacKey::new(&[7u8; 32]);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("redacted"), "{dbg}");
        for word in key.inner.iter().chain(&key.outer) {
            assert!(!dbg.contains(&word.to_string()), "midstate leaked: {dbg}");
            assert!(
                !dbg.contains(&format!("{word:x}")),
                "midstate leaked: {dbg}"
            );
        }
    }
}
