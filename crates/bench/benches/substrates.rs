//! Microbenchmarks of the substrate crates: hashing, MAC, DH, vertex
//! cover, channel hopping, and raw engine round resolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use radio_crypto::cipher::{SealKey, SealedBox};
use radio_crypto::dh::{DhConfig, KeyPair};
use radio_crypto::hmac::{hmac_sha256, HmacKey};
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;
use radio_crypto::sha256::Sha256;
use radio_network::testing::to_sparse;
use radio_network::{Action, AdversaryAction, ChannelId, Network, NetworkConfig};
use removal_game::vertex_cover::min_cover_size;
use secure_radio_bench::workloads::random_pairs;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xA5u8; 1024];
    c.bench_function("sha256/1KiB", |b| {
        b.iter(|| Sha256::digest(black_box(&data)))
    });
}

fn bench_hmac(c: &mut Criterion) {
    let key = [7u8; 32];
    let msg = vec![0x5Au8; 256];
    c.bench_function("hmac_sha256/256B", |b| {
        b.iter(|| hmac_sha256(black_box(&key), black_box(&msg)))
    });
    // A held key tagging a long-lived frame's MAC input (8-byte nonce +
    // 28-byte ciphertext): the key blocks are paid once, outside the loop.
    let held = HmacKey::new(&key);
    let frame = [0x17u8; 36];
    c.bench_function("hmac_key/mac_36B", |b| {
        b.iter(|| held.mac(black_box(&frame)))
    });
}

fn bench_dh(c: &mut Criterion) {
    let cfg = DhConfig::default();
    let alice = KeyPair::generate(&cfg, 1);
    let bob = KeyPair::generate(&cfg, 2);
    c.bench_function("dh/shared_key", |b| {
        b.iter(|| black_box(&alice).shared_key(black_box(bob.public())))
    });
}

fn bench_seal_open(c: &mut Criterion) {
    let key = SymmetricKey::from_bytes([3u8; 32]);
    let msg = vec![0xC3u8; 128];
    c.bench_function("cipher/seal+open/128B", |b| {
        b.iter(|| {
            let boxed = SealedBox::seal(black_box(&key), 7, black_box(&msg));
            boxed.open(&key).expect("round-trips")
        })
    });
    // A held seal key on a long-lived frame (12-byte header + 16-byte
    // payload): 4 compressions per seal or genuine open, with the key's
    // derivation paid once, outside the loop.
    let held = SealKey::new(&key);
    let frame = [0x42u8; 28];
    c.bench_function("cipher/seal_held/28B", |b| {
        b.iter(|| held.seal(7, black_box(&frame)))
    });
    let sealed = held.seal(7, &frame);
    c.bench_function("cipher/open_held/28B", |b| {
        b.iter(|| held.open(black_box(&sealed)).expect("round-trips"))
    });
}

fn bench_hopper(c: &mut Criterion) {
    let key = SymmetricKey::from_bytes([9u8; 32]);
    // One-shot: schedule built per hop, as the group-key and
    // point-to-point nodes pay it.
    c.bench_function("hopper/channel_for", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            ChannelHopper::new(black_box(&key), 3).channel_for(black_box(round))
        })
    });
    // Held: one schedule per key, as a long-lived node keeps it — one
    // PRF block per 32 rounds.
    let mut hopper = ChannelHopper::new(&key, 3);
    c.bench_function("hopper/channel_for_held", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            hopper.channel_for(black_box(round))
        })
    });
}

fn bench_vertex_cover(c: &mut Criterion) {
    let edges = random_pairs(16, 30, 5);
    c.bench_function("vertex_cover/min_cover_size/30edges", |b| {
        b.iter(|| min_cover_size(black_box(&edges)))
    });
}

fn bench_engine_round(c: &mut Criterion) {
    let cfg = NetworkConfig::new(4, 2).unwrap();
    c.bench_function("engine/resolve_round/64nodes", |b| {
        let mut net: Network<u64> = Network::new(cfg.clone());
        let actions: Vec<Action<u64>> = (0..64)
            .map(|i| match i % 3 {
                0 => Action::Transmit {
                    channel: ChannelId(i % 4),
                    frame: i as u64,
                },
                1 => Action::Listen {
                    channel: ChannelId((i + 1) % 4),
                },
                _ => Action::Sleep,
            })
            .collect();
        let pairs = to_sparse(&actions);
        let adversary: AdversaryAction<u64> = AdversaryAction::jam([ChannelId(0)]);
        b.iter(|| {
            net.resolve_round_sparse(black_box(&pairs), black_box(&adversary))
                .expect("resolves")
                .round()
        })
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_dh,
    bench_seal_open,
    bench_hopper,
    bench_vertex_cover,
    bench_engine_round
);
criterion_main!(benches);
