//! FinePack configuration: the sub-transaction header format of Table II
//! and the structure sizes of Table III.

use std::fmt;

/// Bits reserved for the length field in every sub-transaction header
/// (mirrors PCIe's 10-bit length, §IV-A).
pub const LENGTH_FIELD_BITS: u32 = 10;

/// How remote-write-queue entry SRAM is shared between destinations.
///
/// §IV-C: "More sophisticated designs might construct the SRAM with
/// fully dynamic allocation, rather than partitioning the capacity in
/// advance."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationPolicy {
    /// The paper's evaluated design: each destination gets a fixed
    /// per-partition share of the entries.
    #[default]
    StaticPartition,
    /// A shared pool: any destination may use any entry; when the pool
    /// fills, the globally least-recently-used window is flushed.
    DynamicShared,
}

/// The sub-transaction header format: a total byte count split into a
/// 10-bit length field and the remaining bits of address offset
/// (Table II).
///
/// # Examples
///
/// ```
/// use finepack::SubheaderFormat;
///
/// let f = SubheaderFormat::new(5)?;
/// assert_eq!(f.offset_bits(), 30);
/// assert_eq!(f.addressable_range(), 1 << 30); // 1 GB
/// # Ok::<(), finepack::FinePackError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubheaderFormat {
    bytes: u32,
}

impl SubheaderFormat {
    /// Creates a format with `bytes` total sub-header bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FinePackError::InvalidSubheader`] unless `2 <= bytes <= 6`
    /// (the range swept in Table II / Fig 12).
    pub fn new(bytes: u32) -> Result<Self, FinePackError> {
        if !(2..=6).contains(&bytes) {
            return Err(FinePackError::InvalidSubheader(bytes));
        }
        Ok(SubheaderFormat { bytes })
    }

    /// The paper's chosen configuration: 5 bytes (30-bit offset, 1 GB
    /// range), per Table III.
    pub fn paper() -> Self {
        SubheaderFormat { bytes: 5 }
    }

    /// Total sub-header size in bytes.
    pub fn bytes(self) -> u32 {
        self.bytes
    }

    /// Address-offset bits carried in the sub-header.
    pub fn offset_bits(self) -> u32 {
        self.bytes * 8 - LENGTH_FIELD_BITS
    }

    /// Addressable range per outer transaction, in bytes
    /// (`2^offset_bits`) — the Table II row.
    pub fn addressable_range(self) -> u64 {
        1u64 << self.offset_bits()
    }

    /// Masks `addr` down to the window base containing it.
    pub fn window_base(self, addr: u64) -> u64 {
        addr & !(self.addressable_range() - 1)
    }
}

impl fmt::Display for SubheaderFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B subheader ({} offset bits, {} range)",
            self.bytes,
            self.offset_bits(),
            human_bytes(self.addressable_range())
        )
    }
}

fn human_bytes(b: u64) -> String {
    const UNITS: [(&str, u64); 4] = [("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10), ("B", 1)];
    for (unit, scale) in UNITS {
        if b >= scale {
            return format!("{}{}", b / scale, unit);
        }
    }
    "0B".to_string()
}

/// Complete FinePack hardware configuration (Table III defaults).
///
/// # Examples
///
/// ```
/// use finepack::FinePackConfig;
///
/// let cfg = FinePackConfig::paper(4);
/// // Table III: 192 entries total on a 4-GPU system (64 per peer).
/// assert_eq!(cfg.total_entries(), 192);
/// assert_eq!(cfg.max_payload, 4096);
/// assert_eq!(cfg.subheader.bytes(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinePackConfig {
    /// Sub-transaction header format.
    pub subheader: SubheaderFormat,
    /// Maximum outer-transaction payload (PCIe max payload), bytes.
    pub max_payload: u32,
    /// Remote write queue entries per destination partition.
    pub entries_per_partition: u32,
    /// Bytes of data per queue entry (one cache block).
    pub entry_bytes: u32,
    /// Number of destination partitions (peer GPUs).
    pub num_partitions: u32,
    /// Open outer transactions (address windows) per partition. The
    /// paper evaluates 1; §IV-C suggests more to avoid thrashing when a
    /// data structure straddles an alignment boundary, at the cost of
    /// fewer entries per window.
    pub windows_per_partition: u32,
    /// Entry-SRAM sharing policy (§IV-C; static in the paper).
    pub allocation: AllocationPolicy,
}

impl FinePackConfig {
    /// The Table III configuration for a node with `num_gpus` GPUs:
    /// 64 × 128B entries per peer partition, 4 KB max payload, 5-byte
    /// sub-headers.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus < 2` (FinePack needs at least one peer).
    pub fn paper(num_gpus: u32) -> Self {
        assert!(num_gpus >= 2, "need at least one peer GPU");
        FinePackConfig {
            subheader: SubheaderFormat::paper(),
            max_payload: 4096,
            entries_per_partition: 64,
            entry_bytes: 128,
            num_partitions: num_gpus - 1,
            windows_per_partition: 1,
            allocation: AllocationPolicy::StaticPartition,
        }
    }

    /// Same structure sizes under a different SRAM sharing policy.
    pub fn with_allocation(mut self, allocation: AllocationPolicy) -> Self {
        self.allocation = allocation;
        self
    }

    /// Same structure sizes but `windows` concurrently open outer
    /// transactions per destination (§IV-C anti-thrashing variant).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or exceeds the entry count.
    pub fn with_windows(mut self, windows: u32) -> Self {
        assert!(
            windows >= 1 && windows <= self.entries_per_partition,
            "windows must be in 1..=entries_per_partition"
        );
        self.windows_per_partition = windows;
        self
    }

    /// Queue entries available to each open window.
    pub fn entries_per_window(&self) -> u32 {
        (self.entries_per_partition / self.windows_per_partition).max(1)
    }

    /// Same structure sizes but a different sub-header format (Fig 12
    /// sweep).
    pub fn with_subheader(mut self, subheader: SubheaderFormat) -> Self {
        self.subheader = subheader;
        self
    }

    /// Total queue entries across all partitions (Table III reports 192
    /// for 4 GPUs).
    pub fn total_entries(&self) -> u32 {
        self.entries_per_partition * self.num_partitions
    }

    /// Total data SRAM across all partitions, in bytes (§IV-B: 48 KB on a
    /// 4-GPU system, not counting tags or byte enables).
    pub fn data_sram_bytes(&self) -> u64 {
        u64::from(self.total_entries()) * u64::from(self.entry_bytes)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero-sized structures,
    /// entry larger than payload, or a window smaller than an entry).
    pub fn validate(&self) {
        assert!(self.entry_bytes.is_power_of_two() && self.entry_bytes > 0);
        assert!(self.max_payload >= self.entry_bytes);
        assert!(self.entries_per_partition > 0);
        assert!(self.num_partitions > 0);
        assert!(self.windows_per_partition >= 1);
        assert!(self.windows_per_partition <= self.entries_per_partition);
        // Note: the addressable window MAY be smaller than a queue entry
        // (the 2-byte Table II format has a 64B window vs 128B entries);
        // the packetizer splits runs at window boundaries in that case.
    }
}

/// Errors produced by FinePack components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinePackError {
    /// Sub-header byte count outside the supported 2–6 range.
    InvalidSubheader(u32),
    /// A store larger than one queue entry / cache block was offered.
    StoreTooLarge {
        /// Offending store length.
        len: u32,
        /// Maximum supported length.
        max: u32,
    },
    /// A store crossing a cache-block boundary was offered (the L1
    /// coalescer never produces these).
    StoreCrossesBlock {
        /// Store address.
        addr: u64,
        /// Store length.
        len: u32,
    },
    /// A store addressed to the GPU that issued it: local traffic must
    /// never enter the remote write queue (a routing bug upstream).
    SelfRoute {
        /// The GPU that both issued and would receive the store.
        gpu: u8,
        /// Store address.
        addr: u64,
    },
    /// Packet decode failed.
    Decode(protocol::ProtocolError),
}

impl fmt::Display for FinePackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinePackError::InvalidSubheader(b) => {
                write!(f, "sub-header must be 2-6 bytes, got {b}")
            }
            FinePackError::StoreTooLarge { len, max } => {
                write!(f, "store of {len} bytes exceeds entry size {max}")
            }
            FinePackError::StoreCrossesBlock { addr, len } => {
                write!(f, "store at {addr:#x} len {len} crosses a cache block")
            }
            FinePackError::SelfRoute { gpu, addr } => {
                write!(f, "store at {addr:#x} routed from GPU{gpu} to itself")
            }
            FinePackError::Decode(e) => write!(f, "packet decode failed: {e}"),
        }
    }
}

impl std::error::Error for FinePackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FinePackError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<protocol::ProtocolError> for FinePackError {
    fn from(e: protocol::ProtocolError) -> Self {
        FinePackError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows() {
        // (bytes, offset bits, range)
        let expect = [
            (2, 6, 64u64),
            (3, 14, 16 << 10),
            (4, 22, 4 << 20),
            (5, 30, 1 << 30),
            (6, 38, 256 << 30),
        ];
        for (bytes, bits, range) in expect {
            let f = SubheaderFormat::new(bytes).unwrap();
            assert_eq!(f.offset_bits(), bits, "bytes={bytes}");
            assert_eq!(f.addressable_range(), range, "bytes={bytes}");
        }
    }

    #[test]
    fn invalid_subheaders_rejected() {
        assert!(SubheaderFormat::new(1).is_err());
        assert!(SubheaderFormat::new(7).is_err());
        assert_eq!(
            SubheaderFormat::new(9).unwrap_err(),
            FinePackError::InvalidSubheader(9)
        );
    }

    #[test]
    fn window_base_masks_low_bits() {
        let f = SubheaderFormat::new(4).unwrap(); // 4MB windows
        assert_eq!(f.window_base(0x0123_4567), 0x0100_0000);
        assert_eq!(f.window_base(0x0040_0000), 0x0040_0000);
        assert_eq!(f.window_base(0x0100_0000), 0x0100_0000);
    }

    #[test]
    fn paper_config_matches_table3() {
        let cfg = FinePackConfig::paper(4);
        cfg.validate();
        assert_eq!(cfg.total_entries(), 192);
        assert_eq!(cfg.data_sram_bytes(), 192 * 128); // 24 KB data per §IV-B sizing of 3 partitions
        assert_eq!(cfg.subheader.offset_bits(), 30);
    }

    #[test]
    fn sixteen_gpu_sram_within_discussion_bound() {
        // §VI-B: on a 16-GPU system the per-GPU partition storage is 120KB
        // (15 partitions x 64 entries x 128B = 120KB).
        let cfg = FinePackConfig::paper(16);
        assert_eq!(cfg.data_sram_bytes(), 120 << 10);
    }

    #[test]
    fn display_formats_range() {
        let f = SubheaderFormat::new(5).unwrap();
        assert_eq!(f.to_string(), "5B subheader (30 offset bits, 1GB range)");
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = FinePackError::StoreTooLarge { len: 256, max: 128 };
        assert!(e.to_string().contains("256"));
        assert!(e.source().is_none());
        let d = FinePackError::from(protocol::ProtocolError::InvalidField("x"));
        assert!(d.source().is_some());
    }

    #[test]
    fn tiny_window_is_allowed() {
        // Table II's 2-byte format has a 64B window, smaller than one
        // 128B queue entry; the packetizer handles the split.
        let cfg = FinePackConfig::paper(4).with_subheader(SubheaderFormat::new(2).unwrap());
        cfg.validate();
    }
}
