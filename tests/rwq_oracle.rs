//! Executable specification of §IV-B, checked against the real remote
//! write queue: a deliberately naive model that tracks, per destination,
//! an open window of byte->value mappings and flushes on exactly the
//! paper's conditions. On any store stream, the real queue and the
//! oracle must agree on (a) the sequence of flush reasons, (b) each
//! flush's byte content, and (c) the final buffered content.

mod common;

use std::collections::BTreeMap;

use common::{assert_overlaps_differ, Written};
use finepack::{AllocationPolicy, FinePackConfig, FlushReason, RemoteWriteQueue};
use gpu_model::{GpuId, RemoteStore};
use sim_engine::DetRng;

/// The naive §IV-B model: one open window per destination.
#[derive(Debug, Default)]
struct Oracle {
    /// dst -> (window base, bytes, payload cost so far, line set)
    open: BTreeMap<u8, OracleWindow>,
}

#[derive(Debug, Default, Clone)]
struct OracleWindow {
    base: u64,
    bytes: BTreeMap<u64, u8>,
    payload_used: u32,
    lines: std::collections::BTreeSet<u64>,
}

#[derive(Debug, PartialEq, Eq)]
struct OracleFlush {
    dst: u8,
    reason: FlushReason,
    bytes: BTreeMap<u64, u8>,
}

impl Oracle {
    fn insert(&mut self, cfg: &FinePackConfig, store: &RemoteStore) -> Option<OracleFlush> {
        let dst = store.dst.index() as u8;
        let sub = cfg.subheader;
        let line = store.addr & !u64::from(cfg.entry_bytes - 1);
        let mut flush = None;
        if let Some(w) = self.open.get(&dst) {
            let in_window = store.addr >= w.base && store.end() <= w.base + sub.addressable_range();
            let line_present = w.lines.contains(&line);
            let fresh_bytes = (store.addr..store.end())
                .filter(|a| !w.bytes.contains_key(a))
                .count() as u32;
            let cost = if line_present {
                fresh_bytes
            } else {
                store.len() + sub.bytes()
            };
            let payload_ok = w.payload_used + cost <= cfg.max_payload;
            let entries_ok = line_present || w.lines.len() < cfg.entries_per_partition as usize;
            if !in_window || !payload_ok || !entries_ok {
                let reason = if !in_window {
                    FlushReason::WindowMiss
                } else if !payload_ok {
                    FlushReason::PayloadFull
                } else {
                    FlushReason::EntriesFull
                };
                let w = self.open.remove(&dst).expect("window open");
                flush = Some(OracleFlush {
                    dst,
                    reason,
                    bytes: w.bytes,
                });
            }
        }
        let w = self.open.entry(dst).or_insert_with(|| OracleWindow {
            base: cfg.subheader.window_base(store.addr),
            ..OracleWindow::default()
        });
        // Payload-cost accounting mirrors the register semantics.
        let line_present = w.lines.contains(&line);
        let fresh_bytes = (store.addr..store.end())
            .filter(|a| !w.bytes.contains_key(a))
            .count() as u32;
        w.payload_used += if line_present {
            fresh_bytes
        } else {
            store.len() + cfg.subheader.bytes()
        };
        w.lines.insert(line);
        for (a, b) in (store.addr..).zip(store.bytes()) {
            w.bytes.insert(a, b);
        }
        flush
    }

    fn release(&mut self) -> Vec<OracleFlush> {
        std::mem::take(&mut self.open)
            .into_iter()
            .map(|(dst, w)| OracleFlush {
                dst,
                reason: FlushReason::Release,
                bytes: w.bytes,
            })
            .collect()
    }
}

fn batch_bytes(batch: &finepack::FlushedBatch) -> BTreeMap<u64, u8> {
    let mut out = BTreeMap::new();
    for e in &batch.entries {
        for (off, len) in e.runs() {
            for i in off..off + len {
                out.insert(e.line_addr + u64::from(i), e.data[i as usize]);
            }
        }
    }
    out
}

/// Random stores whose seeds differ at every byte they overlap, so a
/// flush holding an older store's bytes differs from the oracle's.
fn random_stream(rng: &mut DetRng) -> Vec<RemoteStore> {
    let mut written = Written::default();
    let stores: Vec<RemoteStore> = (0..rng.next_in_range(1, 300))
        .map(|_| {
            let dst = rng.next_in_range(1, 4) as u8;
            let line = rng.next_u64_below(512);
            let off = (rng.next_u64_below(128) as u32).min(127);
            let len = (rng.next_in_range(1, 33) as u32).min(128 - off);
            let store = RemoteStore {
                src: GpuId::new(0),
                dst: GpuId::new(dst),
                // Two 1GB-window-crossing regions to exercise window misses.
                addr: (u64::from(dst % 2) << 31) + line * 128 + u64::from(off),
                len,
                value_seed: 0,
            };
            written.fresh(rng, store)
        })
        .collect();
    assert_overlaps_differ(&stores);
    stores
}

/// Byte conservation at the queue boundary: every masked byte a store
/// delivers is either committed by some flush or elided as an overwrite
/// of a still-buffered byte — nothing is lost or invented. Random
/// streams hit same-address overwrites, window misses, and (under
/// `DynamicShared`) cross-destination evictions.
#[test]
fn masked_bytes_are_conserved_through_the_queue() {
    let mut rng = DetRng::new(0x09_0002, "rwq-conservation");
    for alloc in [
        AllocationPolicy::StaticPartition,
        AllocationPolicy::DynamicShared,
    ] {
        for _ in 0..32 {
            let stores = random_stream(&mut rng);
            let cfg = FinePackConfig::paper(4).with_allocation(alloc);
            let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
            let mut issued = 0u64;
            let mut committed = 0u64;
            for s in &stores {
                issued += u64::from(s.len());
                if let Some(batch) = rwq.insert(s).expect("valid store") {
                    committed += batch_bytes(&batch).len() as u64;
                }
            }
            for batch in rwq.flush_all(FlushReason::Release) {
                committed += batch_bytes(&batch).len() as u64;
            }
            assert_eq!(
                issued,
                committed + rwq.stats().overwritten_bytes,
                "byte conservation broke under {alloc:?}: \
                 {issued} issued != {committed} committed + {} overwritten",
                rwq.stats().overwritten_bytes
            );
        }
    }
}

/// Pins the queue's `available_payload` charges to the oracle's payload
/// accounting: after every insert, each open window's remaining budget
/// must equal `max_payload` minus the §IV-B cost of everything merged
/// into it (fresh bytes on hits, data plus subheader on new lines).
#[test]
fn window_budgets_match_the_oracle_payload_accounting() {
    let mut rng = DetRng::new(0x09_0003, "rwq-budget");
    for _ in 0..32 {
        let stores = random_stream(&mut rng);
        let cfg = FinePackConfig::paper(4);
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let mut oracle = Oracle::default();
        for s in &stores {
            let _ = rwq.insert(s).expect("valid store");
            let _ = oracle.insert(&cfg, s);
            for (dst, w) in &oracle.open {
                let budgets = rwq.window_budgets(GpuId::new(*dst));
                assert_eq!(budgets.len(), 1, "paper config keeps one window open");
                assert_eq!(budgets[0].0, w.base, "window base diverged");
                assert_eq!(
                    budgets[0].1,
                    cfg.max_payload - w.payload_used,
                    "available payload diverged for dst {dst} at base {:#x}",
                    w.base
                );
            }
        }
    }
}

#[test]
fn queue_matches_the_executable_spec() {
    let mut rng = DetRng::new(0x09_0001, "rwq-oracle");
    for _ in 0..64 {
        let stores = random_stream(&mut rng);
        let cfg = FinePackConfig::paper(4);
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let mut oracle = Oracle::default();
        for s in &stores {
            let real = rwq.insert(s).expect("valid store");
            let spec = oracle.insert(&cfg, s);
            match (real, spec) {
                (None, None) => {}
                (Some(batch), Some(expected)) => {
                    assert_eq!(batch.dst.index() as u8, expected.dst);
                    assert_eq!(batch.reason, expected.reason);
                    assert_eq!(batch_bytes(&batch), expected.bytes);
                }
                (real, spec) => {
                    panic!("divergence: real={real:?} spec={spec:?}");
                }
            }
        }
        // Final release must agree byte-for-byte per destination.
        let mut real: Vec<(u8, BTreeMap<u64, u8>)> = rwq
            .flush_all(FlushReason::Release)
            .iter()
            .map(|b| (b.dst.index() as u8, batch_bytes(b)))
            .collect();
        let mut spec: Vec<(u8, BTreeMap<u64, u8>)> = oracle
            .release()
            .into_iter()
            .map(|f| (f.dst, f.bytes))
            .collect();
        real.sort_by_key(|(d, _)| *d);
        spec.sort_by_key(|(d, _)| *d);
        assert_eq!(real, spec);
    }
}
