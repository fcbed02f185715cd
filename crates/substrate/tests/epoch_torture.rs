//! Epoch-snapshot torture test: seeded writer threads hammer every
//! data-changing operation — whole-shard writes, raw bit flips with
//! scrub repair (alone or fused with a decode), raw image re-imports —
//! while reader threads take versioned snapshots of the same shards. The epoch contract under
//! test is the one the serving fast path leans on:
//!
//! * **No torn or stale-epoch decode**: two reads of the same shard
//!   that observe the same epoch must observe bit-identical plaintext,
//!   across *all* threads — a fused scrub-and-decode included, whose
//!   decode must be the plaintext of the epoch it leaves behind. An epoch-tagged cache entry is therefore
//!   always safe to serve while the shard's live epoch still matches.
//! * **Monotonicity**: a single reader never sees a shard's epoch go
//!   backwards.
//!
//! Everything is seeded (a splitmix/LCG per thread) and runs on plain
//! `std::thread` — no extra dependencies — over all four substrate
//! kinds, so the schedule-space search is cheap enough for every CI
//! run.

use milr_substrate::{SharedSubstrate, SubstrateKind};
use std::collections::HashMap;

const SHARDS: usize = 3;
const SHARD_WEIGHTS: usize = 26; // 2 codewords per shard for SECDED kinds
const GENERATIONS: usize = 60;
const READERS: usize = 3;
const READS_PER_READER: usize = 400;

/// FNV-1a over the plaintext bit pattern (`to_bits` sidesteps NaN and
/// signed-zero equality traps for the fault-injected Plain/Xts kinds).
fn fingerprint(weights: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

struct Lcg(u64);

impl Lcg {
    fn seeded(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// One writer per shard cycles through every epoch-bumping operation;
/// readers sweep all shards with the versioned read and
/// log `(shard, epoch) -> fingerprint` observations, merged and
/// cross-checked at the end. A writer logs its fused scrub-and-decode
/// too: it is the shard's only writer, so the epoch after the call is
/// the one the decode observed.
fn torture(kind: SubstrateKind, seed: u64) {
    let golden: Vec<f32> = (0..SHARDS * SHARD_WEIGHTS)
        .map(|i| (i as f32) * 0.25 - 7.0)
        .collect();
    let shared = SharedSubstrate::store_with(&golden, SHARDS, |c| kind.store(c));
    assert_eq!(shared.shard_count(), SHARDS);

    let observations: Vec<Vec<(usize, u64, u64)>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let shared = shared.clone();
                let mut rng = Lcg::seeded(seed ^ (shard as u64) << 8);
                s.spawn(move || {
                    let mut seen: Vec<(usize, u64, u64)> = Vec::new();
                    let n = shared.read_shard(shard).len();
                    let mut buf = vec![0.0f32; n];
                    let (r_lo, r_hi) = shared.shard_raw_range(shard);
                    for g in 1..=GENERATIONS {
                        match rng.next() % 3 {
                            0 => {
                                // Whole-shard write: a fresh generation.
                                let pattern = g as f32 + shard as f32 * 1000.0;
                                shared.write_shard(shard, &vec![pattern; n]).unwrap();
                            }
                            1 => {
                                // Inject one raw fault, then scrub. Writers
                                // are per-shard, so at most one bit is
                                // outstanding per codeword — within every
                                // kind's correction (or tolerated garbling)
                                // envelope.
                                let bit = r_lo + rng.next() as usize % (r_hi - r_lo);
                                shared.flip_raw_bit(bit);
                                if g % 2 == 0 {
                                    shared.scrub_shard(shard);
                                } else {
                                    shared.scrub_read_shard_into(shard, &mut buf);
                                    let epoch = shared.shard_epoch(shard);
                                    seen.push((shard, epoch, fingerprint(&buf)));
                                }
                            }
                            _ => {
                                // Re-import the current raw image — the
                                // peer-repair write path.
                                let image = shared.export_shard_raw(shard);
                                shared.import_shard_raw(shard, &image).unwrap();
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let shared = shared.clone();
                let mut rng = Lcg::seeded(seed ^ 0xBEEF ^ (r as u64) << 16);
                s.spawn(move || {
                    let mut seen: Vec<(usize, u64, u64)> = Vec::new();
                    let mut floor = [0u64; SHARDS];
                    let mut buf = vec![0.0f32; SHARD_WEIGHTS];
                    for _ in 0..READS_PER_READER {
                        let shard = rng.next() as usize % SHARDS;
                        let epoch = shared.read_shard_into_versioned(shard, &mut buf);
                        assert!(
                            epoch >= floor[shard],
                            "{kind:?}: shard {shard} epoch went backwards \
                             ({} after {})",
                            epoch,
                            floor[shard]
                        );
                        floor[shard] = epoch;
                        seen.push((shard, epoch, fingerprint(&buf)));
                    }
                    seen
                })
            })
            .collect();
        writers
            .into_iter()
            .chain(readers)
            .map(|h| h.join().expect("thread panicked"))
            .collect()
    });

    // Cross-thread consistency: one plaintext per (shard, epoch).
    let mut by_version: HashMap<(usize, u64), u64> = HashMap::new();
    for (shard, epoch, print) in observations.into_iter().flatten() {
        if let Some(&prior) = by_version.get(&(shard, epoch)) {
            assert_eq!(
                prior, print,
                "{kind:?}: shard {shard} epoch {epoch} decoded two \
                 different bit patterns — torn or stale-epoch read"
            );
        } else {
            by_version.insert((shard, epoch), print);
        }
    }

    // Quiesced: every versioned read now reports the final epoch and
    // the exact bits a fresh decode returns.
    for shard in 0..SHARDS {
        let weights = shared.read_shard(shard);
        let mut buf = vec![0.0f32; weights.len()];
        let epoch = shared.read_shard_into_versioned(shard, &mut buf);
        assert_eq!(epoch, shared.shard_epoch(shard));
        assert_eq!(fingerprint(&buf), fingerprint(&weights));
    }
}

#[test]
fn versioned_reads_are_consistent_under_concurrent_mutation() {
    for kind in SubstrateKind::ALL {
        for seed in [0x0DDBA11, 0x5EED_F00D] {
            torture(kind, seed);
        }
    }
}
