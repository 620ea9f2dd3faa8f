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

/// Lines per slab chunk of a [`MemoryImage`]: 32 KiB of line data.
const CHUNK_LINES: usize = 256;

type Line = [u8; LINE_BYTES];

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
/// writes touch, in 32 KiB slab chunks.
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
    /// Line base address -> the line's number, in order of first write.
    /// A 4-byte number keeps the map's slots small, where an inline
    /// 128B value would make every slot it reserves on growth that
    /// large.
    index: LineMap<u32>,
    /// Line contents: line `n` is `chunks[n / CHUNK_LINES][n %
    /// CHUNK_LINES]`. Chunks are allocated zeroed, the next one when
    /// every line of the last is taken, so a new line costs no
    /// allocation of its own.
    chunks: Vec<Box<[Line]>>,
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
            let line = self.line_mut(cur - off as u64);
            fill(done, &mut line[off..off + n]);
            done += n;
        }
        self.bytes_written += len as u64;
    }

    /// The line at `base`, taking the next slab line when it is new.
    fn line_mut(&mut self, base: u64) -> &mut Line {
        let next = self.index.len();
        let chunks = &mut self.chunks;
        let n = *self.index.entry(base).or_insert_with(|| {
            if next.is_multiple_of(CHUNK_LINES) {
                chunks.push(vec![[0; LINE_BYTES]; CHUNK_LINES].into_boxed_slice());
            }
            u32::try_from(next).expect("an image holds fewer than 2^32 lines")
        }) as usize;
        &mut self.chunks[n / CHUNK_LINES][n % CHUNK_LINES]
    }

    /// Line number `n`.
    fn slab(&self, n: u32) -> &Line {
        let n = n as usize;
        &self.chunks[n / CHUNK_LINES][n % CHUNK_LINES]
    }

    /// The line at `base`, or `None` if no write touched it.
    fn line(&self, base: u64) -> Option<&Line> {
        self.index.get(&base).map(|&n| self.slab(n))
    }

    /// Reads `len` bytes starting at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        while out.len() < len {
            let off = (cur % LINE_BYTES as u64) as usize;
            let n = (len - out.len()).min(LINE_BYTES - off);
            match self.line(cur - off as u64) {
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
        self.index.len()
    }

    /// Compares the two images byte by byte. Untouched bytes read as
    /// zero, so a zero-written byte matches an absent one.
    pub fn diff(&self, other: &MemoryImage) -> ImageDiff {
        const ZERO: Line = [0; LINE_BYTES];
        let mut diff = ImageDiff::default();
        let mut compare = |base: u64, a: &Line, b: &Line| {
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
        for (&base, &n) in &self.index {
            compare(base, self.slab(n), other.line(base).unwrap_or(&ZERO));
        }
        for (&base, &n) in &other.index {
            if !self.index.contains_key(&base) {
                compare(base, &ZERO, other.slab(n));
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
    fn image_matches_a_per_byte_oracle() {
        use sim_engine::DetRng;
        use std::collections::{BTreeMap, BTreeSet};

        /// What `a.diff(b)` must return, from the per-byte oracles.
        fn oracle_diff(a: &BTreeMap<u64, u8>, b: &BTreeMap<u64, u8>) -> ImageDiff {
            let at = |m: &BTreeMap<u64, u8>, x: &u64| m.get(x).copied().unwrap_or(0);
            let addrs: BTreeSet<u64> = a.keys().chain(b.keys()).copied().collect();
            let mut differing = addrs.into_iter().filter(|x| at(a, x) != at(b, x));
            let first = differing.next();
            ImageDiff {
                bytes: u64::from(first.is_some()) + differing.count() as u64,
                first,
            }
        }

        let mut rng = DetRng::new(0x1A6E, "image-oracle");
        for round in 0..3 {
            // Two images that mostly see the same writes: 700 lines, so
            // each fills a second and a third 256-line slab chunk.
            let (mut a, mut b) = (MemoryImage::new(), MemoryImage::new());
            let (mut oa, mut ob) = (BTreeMap::new(), BTreeMap::new());
            let mut written = [0u64; 2];
            let base = 0x7000_0000 + round * 0x10_0000;
            for _ in 0..1200 {
                let len = rng.next_in_range(1, 256) as usize;
                let addr = base + rng.next_u64_below(700 * 128);
                // Zero runs too: a zero-written byte matches an absent one.
                let data: Vec<u8> = if rng.chance(0.05) {
                    vec![0; len]
                } else {
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                };
                let to = rng.next_u64_below(20);
                for (side, (img, oracle)) in [(&mut a, &mut oa), (&mut b, &mut ob)]
                    .into_iter()
                    .enumerate()
                {
                    // 0: only `a`; 1: only `b`; otherwise both.
                    if to >= 2 || to == side as u64 {
                        img.write(addr, &data);
                        written[side] += len as u64;
                        for (x, v) in (addr..).zip(&data) {
                            oracle.insert(x, *v);
                        }
                    }
                }
            }
            for (img, oracle, bytes) in [(&a, &oa, written[0]), (&b, &ob, written[1])] {
                let lines: BTreeSet<u64> = oracle.keys().map(|x| x & !127).collect();
                assert_eq!(img.touched_lines(), lines.len());
                assert!(img.touched_lines() > 2 * CHUNK_LINES);
                assert_eq!(img.bytes_written(), bytes);
                for _ in 0..200 {
                    // Reads from a little below the written range to a
                    // little above it, so untouched lines are read too.
                    let addr = base - 512 + rng.next_u64_below(700 * 128 + 1024);
                    let len = rng.next_in_range(0, 300) as usize;
                    let want: Vec<u8> = (addr..addr + len as u64)
                        .map(|x| oracle.get(&x).copied().unwrap_or(0))
                        .collect();
                    assert_eq!(img.read(addr, len), want, "round {round}, {addr:#x}+{len}");
                }
            }
            let want = oracle_diff(&oa, &ob);
            assert!(want.bytes > 0, "round {round}");
            assert_eq!(a.diff(&b), want, "round {round}");
            assert_eq!(b.diff(&a), want, "round {round}");
            assert!(!a.same_contents(&b));
            // The same contents written in another order number the
            // lines differently and still compare equal.
            let mut c = MemoryImage::new();
            for (&x, &v) in oa.iter().rev() {
                c.write(x, &[v]);
            }
            assert_eq!(a.diff(&c), ImageDiff::default());
            assert_eq!(c.diff(&a), ImageDiff::default());
            assert!(a.same_contents(&c) && c.same_contents(&a));
        }
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
