//! The remote write queue (§IV-B): a per-destination-partitioned,
//! fully-associative SRAM that buffers outbound remote stores, merges
//! same-address writes (the GPU's weak memory model permits this before a
//! system-scope release), and hands full windows to the packetizer.

use std::collections::BTreeMap;

use gpu_model::{GpuId, RemoteStore};

use crate::config::{AllocationPolicy, FinePackConfig, FinePackError};

/// Why a partition was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// An incoming store fell outside the open address window.
    WindowMiss,
    /// The accumulated payload would exceed the maximum packet payload.
    PayloadFull,
    /// All queue entries in the partition were occupied.
    EntriesFull,
    /// A system-scoped release (fence or kernel end) arrived.
    Release,
    /// A remote load matched a queued store (same-address ordering).
    LoadHit,
    /// A remote atomic matched a queued store (§IV-C: atomics flush).
    AtomicHit,
    /// An inactivity timeout expired (optional, §IV-B: useful when
    /// latency or burstiness constrains performance).
    Timeout,
}

impl FlushReason {
    /// All reasons, for iterating metric tables.
    pub const ALL: [FlushReason; 7] = [
        FlushReason::WindowMiss,
        FlushReason::PayloadFull,
        FlushReason::EntriesFull,
        FlushReason::Release,
        FlushReason::LoadHit,
        FlushReason::AtomicHit,
        FlushReason::Timeout,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::WindowMiss => "window-miss",
            FlushReason::PayloadFull => "payload-full",
            FlushReason::EntriesFull => "entries-full",
            FlushReason::Release => "release",
            FlushReason::LoadHit => "load-hit",
            FlushReason::AtomicHit => "atomic-hit",
            FlushReason::Timeout => "timeout",
        }
    }

    /// This reason's position in [`FlushReason::ALL`], which indexes
    /// every per-reason counter table.
    pub(crate) fn index(self) -> usize {
        FlushReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("reason in ALL")
    }
}

/// One flushed queue entry: a cache-block-aligned line with a byte mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushedEntry {
    /// Cache-block-aligned base address of the line.
    pub line_addr: u64,
    /// Bit `i` set means byte `line_addr + i` holds valid data.
    pub mask: u128,
    /// Line data; only masked bytes are meaningful.
    pub data: Vec<u8>,
}

impl FlushedEntry {
    /// Number of valid bytes in the entry.
    pub fn valid_bytes(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterates the contiguous runs of valid bytes as
    /// `(start_offset, len)` pairs in ascending order.
    ///
    /// Walks the full mask width, not `data.len()`: a mask bit beyond
    /// the allocated data would otherwise be dropped silently. Such an
    /// entry is malformed — the queue always sizes `data` to the line —
    /// so it trips the debug assertion instead. (Entries flushed from a
    /// queue with payload buffering disabled carry empty `data` by
    /// design; their runs are timing-only and exempt.)
    pub fn runs(&self) -> Vec<(u32, u32)> {
        debug_assert!(
            self.data.is_empty()
                || u128::BITS - self.mask.leading_zeros() <= self.data.len() as u32,
            "mask bit {} set beyond entry data length {}",
            (u128::BITS - self.mask.leading_zeros()).saturating_sub(1),
            self.data.len()
        );
        self.runs_iter().collect()
    }

    /// Allocation-free form of [`FlushedEntry::runs`]: the packetizer's
    /// hot loop iterates runs without materializing a `Vec`.
    pub fn runs_iter(&self) -> MaskRuns {
        MaskRuns { mask: self.mask }
    }
}

/// Iterator over the contiguous set-bit runs of a byte mask, as
/// `(start_offset, len)` pairs in ascending order.
///
/// Word-level run extraction: `trailing_zeros` jumps to the next run's
/// start and `trailing_zeros` of the inverted remainder measures its
/// length — each run costs two count instructions instead of a
/// per-bit walk over the 128-bit mask.
#[derive(Debug, Clone)]
pub struct MaskRuns {
    mask: u128,
}

impl Iterator for MaskRuns {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.mask == 0 {
            return None;
        }
        let start = self.mask.trailing_zeros();
        let len = (!(self.mask >> start)).trailing_zeros();
        if start + len >= u128::BITS {
            self.mask = 0;
        } else {
            self.mask &= !span_mask(start, len);
        }
        Some((start, len))
    }
}

/// A flushed partition's contents, ready for the packetizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushedBatch {
    /// Destination GPU of every store in the batch.
    pub dst: GpuId,
    /// Why the flush happened.
    pub reason: FlushReason,
    /// The partition's open window base at flush time.
    pub window_base: u64,
    /// Entries in ascending line-address order.
    pub entries: Vec<FlushedEntry>,
    /// Number of store transactions merged into this batch.
    pub stores_merged: u64,
    /// Bytes that were overwritten in place (redundant transfers elided).
    pub overwritten_bytes: u64,
}

impl FlushedBatch {
    /// Total valid payload bytes across entries.
    pub fn valid_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.valid_bytes()))
            .sum()
    }
}

/// Deducts a phase-3 merge charge from a window's payload budget.
///
/// Phase-1 admission already proved `cost <= available_payload` for the
/// window the store merges into, so the subtraction can never wrap; the
/// debug assertion pins that cross-phase invariant, and release builds
/// saturate at zero instead of wrapping to a ~4 GiB budget if admission
/// and charge ever disagree.
fn charge_payload(available_payload: u32, cost: u32) -> u32 {
    debug_assert!(
        cost <= available_payload,
        "phase-3 charge of {cost}B exceeds the window's remaining budget of \
         {available_payload}B: phase-1 admission and phase-3 merge disagree"
    );
    available_payload.saturating_sub(cost)
}

/// Byte mask covering `[offset, offset + len)` within a 128B line.
pub(crate) fn span_mask(offset: u32, len: u32) -> u128 {
    debug_assert!(offset + len <= 128);
    if len == 128 {
        u128::MAX
    } else {
        ((1u128 << len) - 1) << offset
    }
}

#[derive(Debug, Clone)]
struct EntrySlot {
    mask: u128,
    data: Vec<u8>,
}

/// Free line buffers of one length, for queue entries and combining
/// lines under full payloads: a flushed entry's buffer comes back once
/// its packets are built, so a run allocates buffers only while more
/// lines are live than ever before.
#[derive(Debug, Clone)]
pub(crate) struct LinePool {
    len: usize,
    free: Vec<Vec<u8>>,
}

impl LinePool {
    /// An empty pool of `len`-byte buffers.
    pub(crate) fn new(len: usize) -> Self {
        LinePool {
            len,
            free: Vec::new(),
        }
    }

    /// A zeroed buffer, as a fresh one reads: a returned one when the
    /// pool holds one.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0);
                buf
            }
            None => vec![0; self.len],
        }
    }

    /// Takes `buf` back. One of another length, such as the empty
    /// `data` of a timing-only entry, is dropped.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if buf.len() == self.len {
            self.free.push(buf);
        }
    }
}

/// One open outer transaction: an aligned address window accumulating
/// entries until its payload budget, entry allocation, or window range is
/// exhausted.
#[derive(Debug, Clone)]
struct Window {
    /// Masked (aligned) window base.
    base: u64,
    /// Entry slots sorted ascending by line address. A sorted vector
    /// beats a `BTreeMap` here: windows hold at most a few dozen
    /// entries, lookups are a cache-friendly binary search, and flushing
    /// moves the storage out wholesale with no per-node frees.
    entries: Vec<(u64, EntrySlot)>,
    /// Remaining payload budget in bytes (the paper's available-payload-
    /// length register; full == `max_payload`, zero == full window).
    available_payload: u32,
    stores_merged: u64,
    overwritten_bytes: u64,
    /// Monotonic use stamp for LRU eviction among windows.
    last_use: u64,
}

impl Window {
    fn take(self, dst: GpuId, reason: FlushReason) -> FlushedBatch {
        FlushedBatch {
            dst,
            reason,
            window_base: self.base,
            entries: self
                .entries
                .into_iter()
                .map(|(line_addr, slot)| FlushedEntry {
                    line_addr,
                    mask: slot.mask,
                    data: slot.data,
                })
                .collect(),
            stores_merged: self.stores_merged,
            overwritten_bytes: self.overwritten_bytes,
        }
    }
}

/// One destination's share of the queue: up to `windows_per_partition`
/// concurrently open windows (the paper evaluates exactly one).
#[derive(Debug, Clone)]
struct Partition {
    dst: GpuId,
    windows: Vec<Window>,
}

impl Partition {
    fn new(dst: GpuId) -> Self {
        Partition {
            dst,
            windows: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn entry_count(&self) -> usize {
        self.windows.iter().map(|w| w.entries.len()).sum()
    }

    fn take_all(&mut self, reason: FlushReason) -> Vec<FlushedBatch> {
        let dst = self.dst;
        std::mem::take(&mut self.windows)
            .into_iter()
            .map(|w| w.take(dst, reason))
            .collect()
    }
}

/// Cumulative remote-write-queue statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwqStats {
    /// Stores accepted into the queue.
    pub stores_received: u64,
    /// Stores that merged into an existing entry (associative hit).
    pub entry_hits: u64,
    /// Stores that allocated a new entry.
    pub entry_misses: u64,
    /// Total bytes elided by in-queue overwrites.
    pub overwritten_bytes: u64,
    /// Flush counts: indexed by [`FlushReason::ALL`] order.
    pub flushes: [u64; 7],
}

impl RwqStats {
    /// Flush count for `reason`.
    pub fn flushes_for(&self, reason: FlushReason) -> u64 {
        self.flushes[reason.index()]
    }

    fn record_flush(&mut self, reason: FlushReason) {
        self.flushes[reason.index()] += 1;
    }
}

/// The remote write queue: one partition per peer GPU, per §IV-B.
///
/// # Examples
///
/// ```
/// use finepack::{FinePackConfig, RemoteWriteQueue};
/// use gpu_model::{GpuId, RemoteStore};
///
/// let mut rwq = RemoteWriteQueue::new(GpuId::new(0), FinePackConfig::paper(4));
/// let store = RemoteStore {
///     src: GpuId::new(0),
///     dst: GpuId::new(1),
///     addr: 1 << 34, // inside GPU1's window in a 16GB/GPU map
///     len: 8,
///     value_seed: 7,
/// };
/// assert!(rwq.insert(&store)?.is_none()); // buffered, no flush yet
/// let batches = rwq.flush_all(finepack::FlushReason::Release);
/// assert_eq!(batches.len(), 1);
/// assert_eq!(batches[0].valid_bytes(), 8);
/// # Ok::<(), finepack::FinePackError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RemoteWriteQueue {
    src: GpuId,
    config: FinePackConfig,
    partitions: BTreeMap<GpuId, Partition>,
    stats: RwqStats,
    /// Global monotonic use stamp, for LRU decisions across windows
    /// (and across partitions under [`AllocationPolicy::DynamicShared`]).
    use_seq: u64,
    /// The entry slots' payload buffers, with those given back by
    /// [`RemoteWriteQueue::recycle`]. `None` in timing-only runs: entry
    /// slots hold masks but no payload bytes, and flushed entries carry
    /// empty `data`.
    pool: Option<LinePool>,
}

impl RemoteWriteQueue {
    /// Creates a queue for GPU `src` with the given configuration.
    /// Partitions are allocated lazily per destination.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(src: GpuId, config: FinePackConfig) -> Self {
        config.validate();
        assert!(
            config.entry_bytes <= 128,
            "entry masks support at most 128B lines"
        );
        RemoteWriteQueue {
            src,
            config,
            partitions: BTreeMap::new(),
            stats: RwqStats::default(),
            use_seq: 0,
            pool: Some(LinePool::new(config.entry_bytes as usize)),
        }
    }

    /// Controls whether entry slots buffer payload bytes.
    ///
    /// Timing-only runs never read the data back — masks alone determine
    /// every packet boundary and byte count — so skipping the per-entry
    /// line allocation and the per-store byte writes removes the queue's only
    /// payload-proportional work. Flushed entries then carry empty
    /// `data`; callers must not materialize [`FlushedEntry::runs`]-based
    /// payloads in this mode. Switch only while the queue is empty.
    pub fn set_buffer_payloads(&mut self, on: bool) {
        debug_assert!(
            self.buffered_entries() == 0,
            "payload buffering toggled with entries in flight"
        );
        self.pool = on.then(|| LinePool::new(self.config.entry_bytes as usize));
    }

    /// The configuration in force.
    pub fn config(&self) -> &FinePackConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &RwqStats {
        &self.stats
    }

    /// Total entries currently buffered across all partitions.
    pub fn buffered_entries(&self) -> usize {
        self.partitions.values().map(|p| p.entry_count()).sum()
    }

    /// The open windows for `dst` as `(window_base, available_payload)`
    /// pairs in insertion order — an observation surface for tests and
    /// auditors that pin the payload-budget bookkeeping against an
    /// independently recomputed oracle. Empty if the partition holds
    /// nothing.
    pub fn window_budgets(&self, dst: GpuId) -> Vec<(u64, u32)> {
        self.partitions
            .get(&dst)
            .map(|p| {
                p.windows
                    .iter()
                    .map(|w| (w.base, w.available_payload))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Offers a store to the queue. Returns any [`FlushedBatch`]es that
    /// accepting the store forced out (window miss with all windows
    /// busy, payload full, or entries full); the incoming store is then
    /// buffered as the first store of a fresh window, exactly as §IV-B
    /// specifies.
    ///
    /// With payload buffering on, the queue writes the store's bytes
    /// from its seed straight into the entry slot; with it off, it
    /// writes none.
    ///
    /// # Errors
    ///
    /// Returns an error if the store is larger than a queue entry,
    /// crosses a cache-block boundary (the L1 coalescer never emits
    /// either), or is addressed back to the issuing GPU (a routing bug
    /// upstream — local traffic never enters the remote write queue).
    pub fn insert(&mut self, store: &RemoteStore) -> Result<Option<FlushedBatch>, FinePackError> {
        let entry_bytes = self.config.entry_bytes;
        let len = store.len();
        if len == 0 || len > entry_bytes {
            return Err(FinePackError::StoreTooLarge {
                len,
                max: entry_bytes,
            });
        }
        let line_off = (store.addr % u64::from(entry_bytes)) as u32;
        if line_off + len > entry_bytes {
            return Err(FinePackError::StoreCrossesBlock {
                addr: store.addr,
                len,
            });
        }
        if store.dst == self.src {
            return Err(FinePackError::SelfRoute {
                gpu: self.src.as_u8(),
                addr: store.addr,
            });
        }

        let subheader = self.config.subheader;
        let sub_bytes = subheader.bytes();
        let max_payload = self.config.max_payload;
        let per_window_cap = match self.config.allocation {
            AllocationPolicy::StaticPartition => self.config.entries_per_window() as usize,
            // The shared pool bounds entries globally, not per window.
            AllocationPolicy::DynamicShared => usize::MAX,
        };
        let max_windows = self.config.windows_per_partition as usize;

        self.stats.stores_received += 1;
        let line_addr = store.addr - u64::from(line_off);
        let wanted_base = subheader.window_base(store.addr);
        self.use_seq += 1;
        let use_seq = self.use_seq;

        let mut flushed = None;
        let mut needs_new_entry = true;
        // Phase 1: partition-local admission. May flush the matching
        // window (budget/entry exhaustion) or the partition-LRU window
        // (all window slots busy elsewhere).
        {
            let partition = self
                .partitions
                .entry(store.dst)
                .or_insert_with(|| Partition::new(store.dst));
            debug_assert_eq!(partition.dst, store.dst);
            let matching = partition.windows.iter().position(|w| {
                w.base == wanted_base && store.end() <= w.base + subheader.addressable_range()
            });
            match matching {
                Some(idx) => {
                    let w = &partition.windows[idx];
                    let slot_idx = w.entries.binary_search_by_key(&line_addr, |(a, _)| *a);
                    let line_present = slot_idx.is_ok();
                    let cost = if let Ok(i) = slot_idx {
                        let slot = &w.entries[i].1;
                        let incoming = span_mask(line_off, len);
                        (incoming & !slot.mask).count_ones()
                    } else {
                        len + sub_bytes
                    };
                    let payload_ok = cost <= w.available_payload;
                    let entries_ok = line_present || w.entries.len() < per_window_cap;
                    if payload_ok && entries_ok {
                        needs_new_entry = !line_present;
                    } else {
                        let reason = if !payload_ok {
                            FlushReason::PayloadFull
                        } else {
                            FlushReason::EntriesFull
                        };
                        self.stats.record_flush(reason);
                        let dst = partition.dst;
                        let w = partition.windows.remove(idx);
                        flushed = Some(w.take(dst, reason));
                    }
                }
                None => {
                    if partition.windows.len() >= max_windows {
                        // All windows busy elsewhere: evict the least
                        // recently used one (with a single window this is
                        // the paper's plain window-miss flush).
                        let (idx, _) = partition
                            .windows
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, w)| w.last_use)
                            .expect("windows non-empty");
                        self.stats.record_flush(FlushReason::WindowMiss);
                        let dst = partition.dst;
                        let w = partition.windows.remove(idx);
                        flushed = Some(w.take(dst, FlushReason::WindowMiss));
                    }
                }
            }
        }

        // Phase 2: shared-pool admission (§IV-C dynamic allocation). A
        // new entry with the pool full evicts the globally LRU window —
        // unless phase 1 already freed space.
        if needs_new_entry
            && self.config.allocation == AllocationPolicy::DynamicShared
            && flushed.is_none()
            && self.buffered_entries() >= self.config.total_entries() as usize
        {
            let victim = self
                .partitions
                .iter()
                .flat_map(|(d, p)| p.windows.iter().map(move |w| (*d, w.base, w.last_use)))
                .min_by_key(|(_, _, last_use)| *last_use);
            if let Some((dst, base, _)) = victim {
                let p = self.partitions.get_mut(&dst).expect("victim partition");
                let idx = p
                    .windows
                    .iter()
                    .position(|w| w.base == base)
                    .expect("victim window");
                self.stats.record_flush(FlushReason::EntriesFull);
                let w = p.windows.remove(idx);
                flushed = Some(w.take(dst, FlushReason::EntriesFull));
            }
        }

        // Phase 3: perform the insert (the victim of phase 2 may have
        // been the matching window itself, so re-resolve by base).
        let partition = self
            .partitions
            .entry(store.dst)
            .or_insert_with(|| Partition::new(store.dst));
        let matching = partition.windows.iter().position(|w| {
            w.base == wanted_base && store.end() <= w.base + subheader.addressable_range()
        });
        match matching {
            Some(idx) => {
                // Merge into the open window.
                let w = &mut partition.windows[idx];
                w.last_use = use_seq;
                w.stores_merged += 1;
                let incoming = span_mask(line_off, len);
                match w.entries.binary_search_by_key(&line_addr, |(a, _)| *a) {
                    Ok(i) => {
                        let slot = &mut w.entries[i].1;
                        let overlap = (incoming & slot.mask).count_ones();
                        let fresh = (incoming & !slot.mask).count_ones();
                        w.overwritten_bytes += u64::from(overlap);
                        self.stats.overwritten_bytes += u64::from(overlap);
                        w.available_payload = charge_payload(w.available_payload, fresh);
                        slot.mask |= incoming;
                        if self.pool.is_some() {
                            copy_payload(
                                store,
                                &mut slot.data[line_off as usize..(line_off + len) as usize],
                            );
                        }
                        self.stats.entry_hits += 1;
                    }
                    Err(i) => {
                        w.available_payload = charge_payload(w.available_payload, len + sub_bytes);
                        let slot = new_slot(line_off, store, self.pool.as_mut());
                        w.entries.insert(i, (line_addr, slot));
                        self.stats.entry_misses += 1;
                    }
                }
            }
            None => {
                // Open a fresh window with this store as its first.
                let slot = new_slot(line_off, store, self.pool.as_mut());
                partition.windows.push(Window {
                    base: wanted_base,
                    entries: vec![(line_addr, slot)],
                    available_payload: max_payload.saturating_sub(len + sub_bytes),
                    stores_merged: 1,
                    overwritten_bytes: 0,
                    last_use: use_seq,
                });
                self.stats.entry_misses += 1;
            }
        }
        Ok(flushed)
    }

    /// Takes back the entry buffers of `batch`, a batch this queue
    /// flushed, once its packets are built: later entries reuse them
    /// instead of allocating. Timing-only batches carry no buffers.
    pub(crate) fn recycle(&mut self, batch: FlushedBatch) {
        if let Some(pool) = &mut self.pool {
            for entry in batch.entries {
                pool.put(entry.data);
            }
        }
    }

    /// Flushes one destination's windows (e.g. on a load hit).
    pub fn flush_dst(&mut self, dst: GpuId, reason: FlushReason) -> Option<FlushedBatch> {
        let batches = self.flush_dst_all(dst, reason);
        debug_assert!(batches.len() <= 1 || self.config.windows_per_partition > 1);
        batches.into_iter().next()
    }

    /// Flushes every window of one destination, returning one batch per
    /// window (relevant with [`FinePackConfig::windows_per_partition`]
    /// greater than one).
    pub fn flush_dst_all(&mut self, dst: GpuId, reason: FlushReason) -> Vec<FlushedBatch> {
        let Some(p) = self.partitions.get_mut(&dst) else {
            return Vec::new();
        };
        let batches = p.take_all(reason);
        for _ in &batches {
            self.stats.record_flush(reason);
        }
        batches
    }

    /// Flushes every partition — the system-scoped-release behaviour
    /// required for memory-model compatibility (§IV-B).
    pub fn flush_all(&mut self, reason: FlushReason) -> Vec<FlushedBatch> {
        let mut out = Vec::new();
        for p in self.partitions.values_mut() {
            let batches = p.take_all(reason);
            for _ in &batches {
                self.stats.record_flush(reason);
            }
            out.extend(batches);
        }
        out
    }

    /// Destinations whose partitions currently hold buffered stores.
    pub fn non_empty_dsts(&self) -> Vec<GpuId> {
        self.partitions
            .iter()
            .filter(|(_, p)| !p.is_empty())
            .map(|(d, _)| *d)
            .collect()
    }

    /// Handles a remote atomic: atomics are never coalesced (§IV-C); any
    /// queued store overlapping the operand's address flushes first so
    /// same-address ordering is preserved. Returns the flush, if any.
    pub fn atomic_probe(&mut self, dst: GpuId, addr: u64, len: u32) -> Option<FlushedBatch> {
        self.probe(dst, addr, len, FlushReason::AtomicHit)
    }

    /// Handles a remote load: if the address range overlaps any queued
    /// store for that destination, the partition is flushed (same-address
    /// load-store ordering, §IV-B). Returns the flush, if any.
    pub fn load_probe(&mut self, dst: GpuId, addr: u64, len: u32) -> Option<FlushedBatch> {
        self.probe(dst, addr, len, FlushReason::LoadHit)
    }

    fn probe(
        &mut self,
        dst: GpuId,
        addr: u64,
        len: u32,
        reason: FlushReason,
    ) -> Option<FlushedBatch> {
        let entry_bytes = u64::from(self.config.entry_bytes);
        let overlapping_window = {
            let p = self.partitions.get(&dst)?;
            let end = addr + u64::from(len);
            p.windows.iter().position(|w| {
                w.entries.iter().any(|(line, slot)| {
                    let line_end = line + entry_bytes;
                    if end <= *line || addr >= line_end {
                        return false;
                    }
                    let lo = addr.max(*line) - line;
                    let hi = end.min(line_end) - line;
                    let m = span_mask(lo as u32, (hi - lo) as u32);
                    slot.mask & m != 0
                })
            })
        };
        let idx = overlapping_window?;
        let p = self.partitions.get_mut(&dst).expect("partition exists");
        let dst_id = p.dst;
        let w = p.windows.remove(idx);
        self.stats.record_flush(reason);
        Some(w.take(dst_id, reason))
    }
}

fn new_slot(line_off: u32, store: &RemoteStore, pool: Option<&mut LinePool>) -> EntrySlot {
    let mask = span_mask(line_off, store.len());
    let Some(pool) = pool else {
        return EntrySlot {
            mask,
            data: Vec::new(),
        };
    };
    let mut slot = EntrySlot {
        mask,
        data: pool.take(),
    };
    let off = line_off as usize;
    copy_payload(store, &mut slot.data[off..off + store.len() as usize]);
    slot
}

/// Writes `store`'s payload bytes into `out`, which spans exactly them:
/// the bytes come from the store's seed, with no buffer in between.
pub(crate) fn copy_payload(store: &RemoteStore, out: &mut [u8]) {
    debug_assert_eq!(out.len(), store.len() as usize);
    out.iter_mut().zip(store.bytes()).for_each(|(d, b)| *d = b);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dst: u8, addr: u64, len: u32, value_seed: u64) -> RemoteStore {
        RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(dst),
            addr,
            len,
            value_seed,
        }
    }

    fn bytes(store: &RemoteStore) -> Vec<u8> {
        store.bytes().collect()
    }

    /// Asserts that `older` and `newer` differ at every byte they both
    /// write, so a last-writer check cannot pass with the wrong winner.
    fn assert_overlap_differs(older: &RemoteStore, newer: &RemoteStore) {
        let (lo, hi) = (older.addr.max(newer.addr), older.end().min(newer.end()));
        assert!(lo < hi, "the stores overlap");
        for a in lo..hi {
            let (o, n) = ((a - older.addr) as usize, (a - newer.addr) as usize);
            assert_ne!(bytes(older)[o], bytes(newer)[n], "byte {a:#x}");
        }
    }

    fn rwq() -> RemoteWriteQueue {
        RemoteWriteQueue::new(GpuId::new(0), FinePackConfig::paper(4))
    }

    #[test]
    fn self_routed_store_is_rejected() {
        let mut q = rwq();
        let err = q.insert(&store(0, 0x1000, 4, 1)).unwrap_err();
        assert!(matches!(
            err,
            FinePackError::SelfRoute {
                gpu: 0,
                addr: 0x1000
            }
        ));
        assert_eq!(q.buffered_entries(), 0);
        assert_eq!(q.stats().stores_received, 0);
    }

    #[test]
    fn self_route_reports_the_boundary_gpu_id() {
        // GPU 255 is the top of the id space: the diagnostic must carry
        // it through un-truncated (the old `index() as u8` narrowing).
        let mut q = RemoteWriteQueue::new(GpuId::new(u8::MAX), FinePackConfig::paper(4));
        let err = q
            .insert(&RemoteStore {
                src: GpuId::new(u8::MAX),
                dst: GpuId::new(u8::MAX),
                addr: 0x1000,
                len: 4,
                value_seed: 1,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            FinePackError::SelfRoute {
                gpu: 255,
                addr: 0x1000
            }
        ));
    }

    #[test]
    fn runs_cover_the_full_mask_width() {
        // A store at the very top of a 128B line must surface as a run
        // even though earlier bytes are unset; the old implementation
        // bounded the walk by data.len(), which silently dropped high
        // mask bits of a short-allocated entry.
        let e = FlushedEntry {
            line_addr: 0,
            mask: span_mask(120, 8) | 1,
            data: vec![7; 128],
        };
        assert_eq!(e.runs(), vec![(0, 1), (120, 8)]);
        // Full line: one run covering every byte.
        let full = FlushedEntry {
            line_addr: 0,
            mask: u128::MAX,
            data: vec![7; 128],
        };
        assert_eq!(full.runs(), vec![(0, 128)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond entry data length")]
    fn short_allocated_entry_trips_the_mask_bound_assert() {
        let e = FlushedEntry {
            line_addr: 0,
            mask: 1u128 << 40,
            data: vec![0; 32], // mask bit 40 has no backing byte
        };
        let _ = e.runs();
    }

    #[test]
    fn first_store_sets_window() {
        let mut q = rwq();
        assert!(q.insert(&store(1, 0x1234_5678, 4, 1)).unwrap().is_none());
        assert_eq!(q.buffered_entries(), 1);
        assert_eq!(q.stats().entry_misses, 1);
    }

    #[test]
    fn window_budgets_track_admission_costs() {
        let cfg = FinePackConfig::paper(4);
        let sub = cfg.subheader.bytes();
        let max = cfg.max_payload;
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        // New entry: charged len + subheader.
        assert_eq!(q.window_budgets(GpuId::new(1)), vec![(0, max - 8 - sub)]);
        // Partial overlap: only the 4 fresh bytes are charged.
        q.insert(&store(1, 0x1004, 8, 2)).unwrap();
        assert_eq!(q.window_budgets(GpuId::new(1)), vec![(0, max - 12 - sub)]);
        // Full overwrite: nothing fresh, nothing charged.
        q.insert(&store(1, 0x1000, 12, 3)).unwrap();
        assert_eq!(q.window_budgets(GpuId::new(1)), vec![(0, max - 12 - sub)]);
        // Other partitions are untouched.
        assert!(q.window_budgets(GpuId::new(2)).is_empty());
    }

    #[test]
    fn same_line_stores_merge() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        q.insert(&store(1, 0x1008, 8, 2)).unwrap();
        assert_eq!(q.buffered_entries(), 1);
        assert_eq!(q.stats().entry_hits, 1);
        let b = q.flush_all(FlushReason::Release);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].valid_bytes(), 16);
        assert_eq!(b[0].entries[0].runs(), vec![(0, 16)]);
    }

    #[test]
    fn same_address_overwrite_is_elided() {
        let mut q = rwq();
        let (old, new) = (store(1, 0x1000, 8, 1), store(1, 0x1000, 8, 2));
        assert_overlap_differs(&old, &new);
        q.insert(&old).unwrap();
        q.insert(&new).unwrap();
        let b = q.flush_all(FlushReason::Release);
        // Only 8 valid bytes on the wire, holding the *final* value.
        assert_eq!(b[0].valid_bytes(), 8);
        assert_eq!(b[0].overwritten_bytes, 8);
        assert_eq!(&b[0].entries[0].data[0..8], &bytes(&new)[..]);
        assert_eq!(q.stats().overwritten_bytes, 8);
    }

    #[test]
    fn window_miss_flushes_and_rebuffers() {
        let mut q = rwq();
        // Paper config: 1GB window.
        q.insert(&store(1, 0x1000, 4, 1)).unwrap();
        let flushed = q.insert(&store(1, (2u64 << 30) + 0x1000, 4, 2)).unwrap();
        let batch = flushed.expect("window miss must flush");
        assert_eq!(batch.reason, FlushReason::WindowMiss);
        assert_eq!(batch.valid_bytes(), 4);
        // Incoming store became the first store of the new window.
        assert_eq!(q.buffered_entries(), 1);
        assert_eq!(q.stats().flushes_for(FlushReason::WindowMiss), 1);
    }

    #[test]
    fn entries_full_flushes() {
        let mut cfg = FinePackConfig::paper(4);
        cfg.entries_per_partition = 2;
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        q.insert(&store(1, 0, 4, 1)).unwrap();
        q.insert(&store(1, 128, 4, 1)).unwrap();
        let f = q.insert(&store(1, 256, 4, 1)).unwrap();
        assert_eq!(f.unwrap().reason, FlushReason::EntriesFull);
        assert_eq!(q.buffered_entries(), 1);
    }

    #[test]
    fn payload_full_flushes() {
        let mut cfg = FinePackConfig::paper(4);
        cfg.max_payload = 128; // fits one 123B store + 5B subheader
        cfg.entry_bytes = 128;
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        q.insert(&store(1, 0, 123, 1)).unwrap();
        let f = q.insert(&store(1, 256, 8, 1)).unwrap();
        assert_eq!(f.unwrap().reason, FlushReason::PayloadFull);
    }

    #[test]
    fn partitions_are_independent() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 4, 1)).unwrap();
        q.insert(&store(2, 0x2000, 4, 2)).unwrap();
        q.insert(&store(3, 0x3000, 4, 3)).unwrap();
        assert_eq!(q.buffered_entries(), 3);
        let b = q.flush_all(FlushReason::Release);
        assert_eq!(b.len(), 3);
        let dsts: Vec<_> = b.iter().map(|x| x.dst.index()).collect();
        assert_eq!(dsts, vec![1, 2, 3]);
    }

    #[test]
    fn flush_dst_only_touches_one_partition() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 4, 1)).unwrap();
        q.insert(&store(2, 0x2000, 4, 2)).unwrap();
        let b = q.flush_dst(GpuId::new(1), FlushReason::LoadHit).unwrap();
        assert_eq!(b.dst, GpuId::new(1));
        assert_eq!(q.buffered_entries(), 1);
        assert!(q.flush_dst(GpuId::new(1), FlushReason::LoadHit).is_none());
    }

    #[test]
    fn load_probe_flushes_only_on_overlap() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        assert!(q.load_probe(GpuId::new(1), 0x2000, 8).is_none());
        assert!(q.load_probe(GpuId::new(1), 0x1004, 2).is_some());
        assert_eq!(q.buffered_entries(), 0);
    }

    #[test]
    fn load_probe_ignores_unmasked_bytes_of_same_line() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        // Same 128B line, but bytes 0x40.. are not buffered.
        assert!(q.load_probe(GpuId::new(1), 0x1040, 8).is_none());
    }

    #[test]
    fn atomic_probe_flushes_with_atomic_reason() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        let b = q.atomic_probe(GpuId::new(1), 0x1004, 4).unwrap();
        assert_eq!(b.reason, FlushReason::AtomicHit);
        assert_eq!(q.stats().flushes_for(FlushReason::AtomicHit), 1);
        assert!(q.atomic_probe(GpuId::new(1), 0x1004, 4).is_none());
    }

    #[test]
    fn non_empty_dsts_tracks_partitions() {
        let mut q = rwq();
        assert!(q.non_empty_dsts().is_empty());
        q.insert(&store(1, 0x1000, 8, 1)).unwrap();
        q.insert(&store(3, 0x1000, 8, 1)).unwrap();
        let dsts = q.non_empty_dsts();
        assert_eq!(dsts, vec![GpuId::new(1), GpuId::new(3)]);
        q.flush_dst(GpuId::new(1), FlushReason::Timeout);
        assert_eq!(q.non_empty_dsts(), vec![GpuId::new(3)]);
    }

    #[test]
    fn oversized_store_rejected() {
        let mut q = rwq();
        let err = q.insert(&store(1, 0, 129, 0)).unwrap_err();
        assert!(matches!(err, FinePackError::StoreTooLarge { .. }));
    }

    #[test]
    fn block_crossing_store_rejected() {
        let mut q = rwq();
        let err = q.insert(&store(1, 120, 16, 0)).unwrap_err();
        assert!(matches!(err, FinePackError::StoreCrossesBlock { .. }));
    }

    #[test]
    fn batch_entries_ascend_by_address() {
        let mut q = rwq();
        q.insert(&store(1, 0x3000, 4, 1)).unwrap();
        q.insert(&store(1, 0x1000, 4, 1)).unwrap();
        q.insert(&store(1, 0x2000, 4, 1)).unwrap();
        let b = q.flush_all(FlushReason::Release);
        let addrs: Vec<u64> = b[0].entries.iter().map(|e| e.line_addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x2000, 0x3000]);
    }

    #[test]
    fn two_windows_stop_alignment_thrashing() {
        // A data structure straddling a window boundary (§IV-C "Base
        // Address Alignment"): alternating stores to both sides thrash a
        // single-window partition but coalesce fine with two windows.
        let sub = crate::SubheaderFormat::new(4).unwrap(); // 4MB windows
        let boundary = 1u64 << 30;
        let run = |windows: u32| {
            let cfg = FinePackConfig::paper(4)
                .with_subheader(sub)
                .with_windows(windows);
            let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
            let mut flushes = 0u64;
            for i in 0..64u64 {
                let side = i % 2; // alternate across the boundary
                let addr = boundary - (4 << 20) + side * (8 << 20) + (i / 2) * 256;
                if q.insert(&store(1, addr, 8, 1)).unwrap().is_some() {
                    flushes += 1;
                }
            }
            flushes
        };
        let thrash = run(1);
        let calm = run(2);
        assert!(thrash >= 60, "single window must thrash: {thrash}");
        assert_eq!(calm, 0, "two windows must absorb both streams");
    }

    #[test]
    fn multi_window_lru_eviction() {
        let sub = crate::SubheaderFormat::new(4).unwrap();
        let cfg = FinePackConfig::paper(4).with_subheader(sub).with_windows(2);
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let w = 4u64 << 20;
        // Open windows A, B, then touch A again; a third region must
        // evict B (least recently used).
        q.insert(&store(1, 0, 8, 1)).unwrap(); // A (window base 0)
        q.insert(&store(1, 10 * w, 8, 2)).unwrap(); // B
        q.insert(&store(1, 256, 8, 3)).unwrap(); // A again
        let flushed = q.insert(&store(1, 20 * w, 8, 4)).unwrap().unwrap();
        assert_eq!(flushed.window_base, 10 * w, "B evicted, not A");
        assert_eq!(flushed.reason, FlushReason::WindowMiss);
    }

    #[test]
    fn dynamic_allocation_lets_one_hot_destination_use_the_pool() {
        // Static: dst 1 is capped at its partition share. Dynamic: with
        // the other partitions idle, dst 1 may fill the whole pool.
        let run = |policy: crate::AllocationPolicy| {
            let cfg = FinePackConfig::paper(4).with_allocation(policy);
            let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
            let mut flushes = 0u64;
            // 150 distinct lines to one destination: beyond the 64-entry
            // static share, within the 192-entry pool.
            for i in 0..150u64 {
                if q.insert(&store(1, i * 128, 8, 1)).unwrap().is_some() {
                    flushes += 1;
                }
            }
            flushes
        };
        assert!(run(crate::AllocationPolicy::StaticPartition) >= 2);
        assert_eq!(run(crate::AllocationPolicy::DynamicShared), 0);
    }

    #[test]
    fn dynamic_allocation_evicts_globally_lru_window() {
        let cfg = FinePackConfig::paper(4).with_allocation(crate::AllocationPolicy::DynamicShared);
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        // Fill the pool: 191 lines to dst 1, then 1 to dst 2 (the newest).
        for i in 0..191u64 {
            assert!(q.insert(&store(1, i * 128, 8, 1)).unwrap().is_none());
        }
        assert!(q.insert(&store(2, 0x5000, 8, 2)).unwrap().is_none());
        assert_eq!(q.buffered_entries(), 192);
        // Pool full; touching dst 3 must evict dst 1's window (global
        // LRU), not dst 2's.
        let flushed = q.insert(&store(3, 0x9000, 8, 3)).unwrap().unwrap();
        assert_eq!(flushed.dst, GpuId::new(1));
        assert_eq!(flushed.reason, FlushReason::EntriesFull);
    }

    #[test]
    fn dynamic_allocation_preserves_final_values() {
        let cfg = FinePackConfig::paper(4).with_allocation(crate::AllocationPolicy::DynamicShared);
        let mut q = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let (old, new) = (store(1, 0x1000, 8, 1), store(1, 0x1000, 8, 9));
        assert_overlap_differs(&old, &new);
        q.insert(&old).unwrap();
        q.insert(&new).unwrap();
        let b = q.flush_all(FlushReason::Release);
        assert_eq!(b[0].valid_bytes(), 8);
        assert_eq!(&b[0].entries[0].data[0..8], &bytes(&new)[..]);
    }

    #[test]
    fn entries_split_across_windows() {
        let cfg = FinePackConfig::paper(4).with_windows(4);
        assert_eq!(cfg.entries_per_window(), 16);
        cfg.validate();
    }

    #[test]
    fn span_mask_extremes() {
        assert_eq!(span_mask(0, 128), u128::MAX);
        assert_eq!(span_mask(0, 1), 1);
        assert_eq!(span_mask(127, 1), 1u128 << 127);
    }

    #[test]
    fn recycled_buffers_start_zeroed() {
        // Many times the queue's entries pass through it, and every
        // flushed batch comes back: each new entry after the first
        // flushes reuses a buffer that held other stores' bytes, and
        // must read as a fresh one does outside its mask.
        let mut q = rwq();
        let mut rng = sim_engine::DetRng::new(0x2EC7, "rwq-recycle");
        let (mut batches, mut entries) = (0, 0);
        let mut check = |b: FlushedBatch, q: &mut RemoteWriteQueue| {
            for e in &b.entries {
                assert_eq!(e.data.len(), 128);
                for (i, byte) in e.data.iter().enumerate() {
                    if e.mask & (1 << i) == 0 {
                        assert_eq!(*byte, 0, "line {:#x} byte {i}", e.line_addr);
                    }
                }
            }
            batches += 1;
            entries += b.entries.len();
            q.recycle(b);
        };
        for _ in 0..5000 {
            let off = rng.next_u64_below(128);
            let len = rng.next_in_range(1, 129 - off) as u32;
            let addr = rng.next_u64_below(1024) * 128 + off;
            let s = store(rng.next_in_range(1, 4) as u8, addr, len, rng.next_u64());
            if let Some(b) = q.insert(&s).unwrap() {
                check(b, &mut q);
            }
        }
        for b in q.flush_all(FlushReason::Release) {
            check(b, &mut q);
        }
        assert!(
            batches > 50 && entries > 20 * 192,
            "{batches} batches, {entries} entries"
        );
    }

    #[test]
    fn noncontiguous_runs_reported() {
        let mut q = rwq();
        q.insert(&store(1, 0x1000, 4, 1)).unwrap();
        q.insert(&store(1, 0x1010, 4, 2)).unwrap();
        let b = q.flush_all(FlushReason::Release);
        assert_eq!(b[0].entries[0].runs(), vec![(0, 4), (16, 4)]);
    }
}
