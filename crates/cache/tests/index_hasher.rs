//! Oracle for the per-object index under every eviction policy.
//!
//! Each policy keeps an `ObjectId`-keyed hash index beside its ordering
//! structure; which hasher sits under that index must never show in a
//! hit, a miss, a victim choice or an exported state. This test drives
//! every [`PolicyKind`] through seeded access / insert / contains /
//! delay-charge / clear streams over the key shapes a weak hasher would
//! fold together — dense ids, multiples of 2^k, ids that differ only
//! above bit 40, neighbours of `u64::MAX` — and pins the whole
//! observable history (outcome sequence, byte and object counts, final
//! `to_state()`) as one FNV-1a digest per policy. The digests were taken
//! with `std`'s SipHash under the index; any other hasher has to
//! reproduce them bit for bit. Half-way through each stream the cache
//! is also rebuilt from its own `to_state()` and the copy must continue
//! identically to the original.

mod common;

use common::{key, SplitMix};
use starcdn_cache::policy::{Cache, PolicyKind};

const SEEDS: u64 = 104;
const STEPS: usize = 2_000;
const CAPACITY: u64 = 40_000;
const UNIVERSE: u64 = 512;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One seeded stream against `kind`, folded into `digest`.
fn drive(kind: PolicyKind, seed: u64, digest: &mut Fnv) {
    let mut rng = SplitMix(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x1D);
    let mut cache = kind.build(CAPACITY);
    let mut copy: Option<Box<dyn Cache + Send>> = None;
    let (mut hits, mut misses) = (0u64, 0u64);
    for step in 0..STEPS {
        if step == STEPS / 2 {
            copy = Some(cache.to_state().build().expect("exported state restores"));
        }
        // Skewed toward low ranks so the stream has a hot head.
        let rank = (rng.next() % UNIVERSE) * (rng.next() % UNIVERSE) / UNIVERSE;
        let id = key(seed, rank);
        let size = 100 + rng.next() % 500;
        let op = rng.next() % 400;
        let mut both = |f: &mut dyn FnMut(&mut dyn Cache) -> u64| {
            let seen = f(cache.as_mut());
            if let Some(c) = copy.as_mut() {
                assert_eq!(f(c.as_mut()), seen, "{}: seed {seed} step {step}", kind.name());
            }
            seen
        };
        let seen = match op {
            0..=279 => both(&mut |c| c.access(id, size).is_hit() as u64),
            280..=327 => both(&mut |c| {
                c.insert(id, size);
                2
            }),
            328..=387 => both(&mut |c| 4 + c.contains(id) as u64 + c.size_of(id).unwrap_or(0) * 8),
            388..=398 => both(&mut |c| {
                c.record_fetch_delay(id, size % 7);
                3
            }),
            _ => both(&mut |c| {
                c.clear();
                6
            }),
        };
        if op < 280 {
            hits += seen;
            misses += 1 - seen;
        }
        digest.u64(seen);
        digest.u64(cache.used_bytes());
        digest.u64(cache.len() as u64);
    }
    // The stream exercised both sides of the index lookup.
    assert!(
        hits > 200 && misses > 200,
        "{}: seed {seed}: {hits} hits, {misses} misses",
        kind.name()
    );
    let state = cache.to_state();
    assert_eq!(state.kind(), kind);
    let copy = copy.expect("every stream passes its half-way point");
    assert_eq!(copy.to_state(), state, "{}: seed {seed}: restored copy drifted", kind.name());
    digest.bytes(format!("{state:?}").as_bytes());
}

fn policy_digest(kind: PolicyKind) -> u64 {
    let mut digest = Fnv::new();
    for seed in 0..SEEDS {
        drive(kind, seed, &mut digest);
    }
    digest.0
}

#[test]
fn every_policy_history_is_independent_of_the_index_hasher() {
    let pinned: [(PolicyKind, u64); 7] = [
        (PolicyKind::Lru, 0x0056_4A6C_10A5_D082),
        (PolicyKind::Lfu, 0x5519_0B9B_9EB0_587F),
        (PolicyKind::Fifo, 0xBF6A_521E_E4F5_8EEB),
        (PolicyKind::Sieve, 0xEA0E_464E_9A48_79AE),
        (PolicyKind::Slru, 0x68F2_EC69_80EE_556A),
        (PolicyKind::TinyLfu, 0xC497_CC7A_C18A_3A7D),
        (PolicyKind::Mad, 0xABAF_44C6_CE0F_7071),
    ];
    assert_eq!(pinned.map(|(k, _)| k), PolicyKind::ALL);
    let got = pinned.map(|(k, _)| (k, policy_digest(k)));
    let render = |row: &[(PolicyKind, u64)]| {
        row.iter().map(|(k, d)| format!("{}={d:#018x}", k.name())).collect::<Vec<_>>().join(" ")
    };
    assert_eq!(got, pinned, "\n got    {}\n pinned {}", render(&got), render(&pinned));
}
