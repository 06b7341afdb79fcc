//! Unit costs of the `radio-crypto` primitives, timed in isolation at the
//! message sizes the workloads use.

use std::hint::black_box;

use radio_crypto::cipher::SealedBox;
use radio_crypto::dh::{DhConfig, KeyPair};
use radio_crypto::hmac::hmac_sha256;
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;
use radio_crypto::sha256::Sha256;

use crate::report::Outcome;
use crate::stats::{median, now};

/// Plaintext bytes of one long-lived frame: a 12-byte `(sender, eround)`
/// header plus the canonical workload's 16-byte payload.
pub const FRAME_PLAINTEXT: usize = 28;

/// MAC input of one long-lived frame: nonce plus ciphertext.
pub const FRAME_MAC_INPUT: usize = 8 + FRAME_PLAINTEXT;

/// Bytes hashed per SHA-256 sample (a multiple of the 64-byte block).
const SHA_BYTES: usize = 4096;

/// Per-call nanoseconds of the primitives the workloads exercise.
#[derive(Clone, Copy, Debug)]
pub struct CryptoCosts {
    /// One hop: `ChannelHopper::new` plus `channel_for`, as a node pays
    /// it every awake round.
    pub hop_ns: f64,
    /// `SealedBox::seal` of one frame.
    pub seal_ns: f64,
    /// `SealedBox::open` of one genuine frame.
    pub open_ns: f64,
}

/// Median over `batches` of the mean nanoseconds per call of `f`.
fn per_call_ns(batches: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 4 {
        f(i); // warm caches and branch predictors before timing
    }
    let samples: Vec<f64> = (0..batches)
        .map(|b| {
            let start = now();
            for i in 0..iters {
                f(b as u64 * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Time every primitive and record the `crypto.*` unit costs.
pub fn measure(out: &mut Outcome) -> CryptoCosts {
    const BATCHES: usize = 9;
    let key = SymmetricKey::from_bytes([0x5A; 32]);
    let other = SymmetricKey::from_bytes([0xA5; 32]);
    let plain = [0x42u8; FRAME_PLAINTEXT];
    let mac_input = [0x17u8; FRAME_MAC_INPUT];
    let big = vec![0x33u8; SHA_BYTES];
    let sealed = SealedBox::seal(&key, 7, &plain);
    let dh = DhConfig::default();
    let mine = KeyPair::generate(&dh, 1);
    let theirs = KeyPair::generate(&dh, 2).public();

    // Padding adds one block to a block-aligned message.
    let sha_ns = per_call_ns(BATCHES, 200, |_| {
        black_box(Sha256::digest(black_box(&big)));
    }) / (SHA_BYTES / 64 + 1) as f64;
    let hmac_ns = per_call_ns(BATCHES, 4000, |_| {
        black_box(hmac_sha256(
            black_box(key.as_bytes()),
            black_box(&mac_input),
        ));
    });
    let hop_ns = per_call_ns(BATCHES, 4000, |i| {
        black_box(ChannelHopper::new(black_box(&key), 3).channel_for(i));
    });
    let seal_ns = per_call_ns(BATCHES, 2000, |i| {
        black_box(SealedBox::seal(black_box(&key), i, black_box(&plain)));
    });
    let open_ns = per_call_ns(BATCHES, 2000, |_| {
        black_box(black_box(&sealed).open(black_box(&key)));
    });
    let reject_ns = per_call_ns(BATCHES, 2000, |_| {
        black_box(black_box(&sealed).open(black_box(&other)));
    });
    let dh_ns = per_call_ns(BATCHES, 2000, |_| {
        black_box(black_box(&mine).shared_key(black_box(theirs)));
    });
    out.check(
        sealed.open(&key).as_deref() == Some(&plain[..]) && sealed.open(&other).is_none(),
        "crypto probe: seal/open round trip",
    );

    out.set("crypto.sha256_block_ns", sha_ns);
    out.set("crypto.hmac_short_ns", hmac_ns);
    out.set("crypto.hop_ns", hop_ns);
    out.set("crypto.seal_ns", seal_ns);
    out.set("crypto.open_ns", open_ns);
    out.set("crypto.open_reject_ns", reject_ns);
    out.set("crypto.dh_shared_key_ns", dh_ns);
    CryptoCosts {
        hop_ns,
        seal_ns,
        open_ns,
    }
}
