//! A sparse functional memory image.
//!
//! Used to verify FinePack's transparency claim: replaying the same store
//! trace through raw P2P stores, write-combining, or FinePack must produce
//! the identical final memory image on the destination GPU.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::trace::RemoteStore;

/// Line size of the sparse image: the L1 line and RWQ entry size the
/// remote stores were already coalesced to (an implementation detail,
/// not a configuration).
const LINE_BYTES: usize = 128;

/// A multiply-xor hasher for line addresses (splitmix64 finalizer).
///
/// [`MemoryImage`] and `system`'s unique-byte tracker hash one `u64` per
/// 128B line of every store they see; SipHash's per-call setup dominates
/// that workload, while neither map lets hash order reach a result (they
/// look up and insert, and the image's compare is an order-independent
/// fold) — so a fast deterministic mix is both safe and measurably
/// faster. The keys are the simulated workload's own addresses, so
/// SipHash's resistance to crafted collisions buys nothing here.
#[derive(Debug, Default, Clone)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// A map keyed by line address, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// How two memory images disagree; see [`MemoryImage::diff`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageDiff {
    /// Number of byte addresses whose values differ.
    pub bytes: u64,
    /// The lowest differing address, or `None` when the images agree.
    pub first: Option<u64>,
}

/// A sparse byte-addressable memory image, stored as the 128B lines its
/// writes touch.
///
/// # Examples
///
/// ```
/// use gpu_model::MemoryImage;
///
/// let mut m = MemoryImage::new();
/// m.write(0x1000, &[1, 2, 3]);
/// assert_eq!(m.read(0x1000, 3), vec![1, 2, 3]);
/// assert_eq!(m.read(0x2000, 1), vec![0]); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    /// Line base address -> line contents. Boxed: an inline 128B value
    /// would make every slot the map reserves on growth that large.
    lines: LineMap<Box<[u8; LINE_BYTES]>>,
    bytes_written: u64,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.write_with(addr, data.len(), |done, piece| {
            piece.copy_from_slice(&data[done..done + piece.len()]);
        });
    }

    /// Writes `store`'s payload bytes at its address, computing them
    /// from its seed straight into the image's lines.
    pub fn write_store(&mut self, store: &RemoteStore) {
        let mut bytes = store.bytes();
        self.write_with(store.addr, store.len() as usize, |_, piece| {
            piece.iter_mut().zip(&mut bytes).for_each(|(d, b)| *d = b);
        });
    }

    /// Writes `len` bytes starting at `addr`, one line piece at a time:
    /// `fill(done, piece)` fills `piece` with bytes `done..` of the
    /// payload.
    fn write_with(&mut self, addr: u64, len: usize, mut fill: impl FnMut(usize, &mut [u8])) {
        let mut done = 0;
        while done < len {
            let cur = addr + done as u64;
            let off = (cur % LINE_BYTES as u64) as usize;
            let n = (len - done).min(LINE_BYTES - off);
            let line = self
                .lines
                .entry(cur - off as u64)
                .or_insert_with(|| Box::new([0u8; LINE_BYTES]));
            fill(done, &mut line[off..off + n]);
            done += n;
        }
        self.bytes_written += len as u64;
    }

    /// Reads `len` bytes starting at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        while out.len() < len {
            let off = (cur % LINE_BYTES as u64) as usize;
            let n = (len - out.len()).min(LINE_BYTES - off);
            match self.lines.get(&(cur - off as u64)) {
                Some(line) => out.extend_from_slice(&line[off..off + n]),
                None => out.extend(std::iter::repeat_n(0, n)),
            }
            cur += n as u64;
        }
        out
    }

    /// Total bytes written over the image's lifetime (counts overwrites).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of touched 128B lines.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }

    /// Compares the two images byte by byte. Untouched bytes read as
    /// zero, so a zero-written byte matches an absent one.
    pub fn diff(&self, other: &MemoryImage) -> ImageDiff {
        const ZERO: [u8; LINE_BYTES] = [0; LINE_BYTES];
        let mut diff = ImageDiff::default();
        let mut compare = |base: u64, a: &[u8; LINE_BYTES], b: &[u8; LINE_BYTES]| {
            if a == b {
                return;
            }
            let mut differing = a.iter().zip(b).enumerate().filter(|(_, (x, y))| x != y);
            if let Some((off, _)) = differing.next() {
                let addr = base + off as u64;
                diff.bytes += 1 + differing.count() as u64;
                diff.first = Some(diff.first.map_or(addr, |f| f.min(addr)));
            }
        };
        for (&base, line) in &self.lines {
            compare(base, line, other.lines.get(&base).map_or(&ZERO, |l| &**l));
        }
        for (&base, line) in &other.lines {
            if !self.lines.contains_key(&base) {
                compare(base, &ZERO, line);
            }
        }
        diff
    }

    /// True if the two images hold identical contents (zero-filled lines
    /// compare equal to absent lines).
    pub fn same_contents(&self, other: &MemoryImage) -> bool {
        self.diff(other).bytes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut m = MemoryImage::new();
        m.write(10, &[1, 2, 3, 4]);
        assert_eq!(m.read(10, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read(9, 6), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn cross_line_write() {
        let mut m = MemoryImage::new();
        m.write(0x1000 + 16, &[7; 16]);
        assert_eq!(m.touched_lines(), 1, "a 16B store inside a line");
        let data: Vec<u8> = (0..16).collect();
        m.write(0x2000 - 8, &data);
        assert_eq!(m.read(0x2000 - 8, 16), data);
        assert_eq!(m.touched_lines(), 3, "a line-crossing store touches two");
    }

    #[test]
    fn write_store_matches_writing_its_bytes() {
        // 255 bytes from mid-line: three line pieces, as a recorded
        // trace's widest atomic can produce.
        let store = RemoteStore {
            src: crate::GpuId::new(0),
            dst: crate::GpuId::new(1),
            addr: 0x1000 + 100,
            len: 255,
            value_seed: 42,
        };
        let bytes: Vec<u8> = store.bytes().collect();
        let (mut a, mut b) = (MemoryImage::new(), MemoryImage::new());
        a.write_store(&store);
        b.write(store.addr, &bytes);
        assert_eq!(a.read(store.addr, 255), bytes);
        assert!(a.same_contents(&b));
        assert_eq!(a.bytes_written(), 255);
        assert_eq!(a.touched_lines(), 3);
    }

    #[test]
    fn overwrites_take_last_value() {
        let mut m = MemoryImage::new();
        m.write(0, &[1, 1, 1, 1]);
        m.write(1, &[9, 9]);
        assert_eq!(m.read(0, 4), vec![1, 9, 9, 1]);
        assert_eq!(m.bytes_written(), 6);
    }

    #[test]
    fn same_contents_ignores_zero_lines() {
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        a.write(0, &[0, 0, 0]); // touched but zero
        assert!(a.same_contents(&b));
        b.write(5000, &[1]);
        assert!(!a.same_contents(&b));
        a.write(5000, &[1]);
        assert!(a.same_contents(&b));
    }

    #[test]
    fn diff_counts_bytes_and_finds_the_lowest() {
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        a.write(0x1000, &[5; 256]);
        b.write(0x1000, &[5; 256]);
        assert_eq!(a.diff(&b), ImageDiff::default());
        // Three differing bytes over two lines, plus a zero-written line
        // only `b` touched, which differs in nothing.
        a.write(0x1004, &[6]);
        a.write(0x1090, &[6, 6]);
        b.write(0x2003, &[0]);
        let want = ImageDiff {
            bytes: 3,
            first: Some(0x1004),
        };
        assert_eq!(a.diff(&b), want);
        assert_eq!(b.diff(&a), want);
        assert!(!a.same_contents(&b));
    }
}
