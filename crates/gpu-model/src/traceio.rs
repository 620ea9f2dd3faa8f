//! Binary serialization for kernel traces.
//!
//! NVAS is "trace- and execution-driven": traces are collected once and
//! replayed many times. This module gives the reproduction the same
//! workflow — generators synthesize a trace, [`write_trace`] persists it,
//! and [`read_trace`] replays it later (or on another machine) without
//! regenerating. The format is a compact little-endian TLV stream with a
//! magic header and version byte.

use crate::trace::{AccessPattern, KernelTrace, TraceOp};

/// File magic: "FPKT" (FinePack trace).
const MAGIC: &[u8; 4] = b"FPKT";
/// Current format version.
const VERSION: u8 = 1;

const TAG_COMPUTE: u8 = 1;
const TAG_STORE_CONTIG: u8 = 2;
const TAG_STORE_STRIDED: u8 = 3;
const TAG_STORE_SCATTER: u8 = 4;
const TAG_FENCE: u8 = 5;
const TAG_LOAD: u8 = 6;
const TAG_ATOMIC: u8 = 7;

/// Errors produced when decoding a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    /// The stream does not begin with the FPKT magic.
    BadMagic,
    /// The stream's version byte is not supported.
    UnsupportedVersion(u8),
    /// The stream ended inside a record.
    Truncated,
    /// An unknown op tag was encountered.
    UnknownTag(u8),
    /// A field held an out-of-range value.
    InvalidField(&'static str),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadMagic => write!(f, "not a FinePack trace (bad magic)"),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated => write!(f, "trace stream truncated"),
            TraceIoError::UnknownTag(t) => write!(f, "unknown trace op tag {t}"),
            TraceIoError::InvalidField(what) => write!(f, "invalid trace field: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Serializes a kernel trace to its binary form.
///
/// # Examples
///
/// ```
/// use gpu_model::{read_trace, write_trace, KernelTrace, TraceOp};
///
/// let mut t = KernelTrace::new("demo");
/// t.push(TraceOp::Compute { cycles: 64 });
/// t.push(TraceOp::Fence);
/// let bytes = write_trace(&t);
/// assert_eq!(read_trace(&bytes)?, t);
/// # Ok::<(), gpu_model::TraceIoError>(())
/// ```
pub fn write_trace(trace: &KernelTrace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + trace.len() * 16);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    let name = trace.name.as_bytes();
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&(trace.len() as u32).to_le_bytes());
    for op in &trace.ops {
        match op {
            TraceOp::Compute { cycles } => {
                buf.push(TAG_COMPUTE);
                buf.extend_from_slice(&cycles.to_le_bytes());
            }
            TraceOp::WarpStore {
                pattern,
                bytes_per_lane,
                active_mask,
                value_seed,
            } => {
                match pattern {
                    AccessPattern::Contiguous { base } => {
                        buf.push(TAG_STORE_CONTIG);
                        buf.extend_from_slice(&base.to_le_bytes());
                    }
                    AccessPattern::Strided { base, stride } => {
                        buf.push(TAG_STORE_STRIDED);
                        buf.extend_from_slice(&base.to_le_bytes());
                        buf.extend_from_slice(&stride.to_le_bytes());
                    }
                    AccessPattern::Scattered { addrs } => {
                        buf.push(TAG_STORE_SCATTER);
                        buf.push(addrs.len() as u8);
                        for a in addrs {
                            buf.extend_from_slice(&a.to_le_bytes());
                        }
                    }
                }
                buf.push(*bytes_per_lane as u8);
                buf.extend_from_slice(&active_mask.to_le_bytes());
                buf.extend_from_slice(&value_seed.to_le_bytes());
            }
            TraceOp::Fence => buf.push(TAG_FENCE),
            TraceOp::RemoteLoad { addr, bytes } => {
                buf.push(TAG_LOAD);
                buf.extend_from_slice(&addr.to_le_bytes());
                buf.push(*bytes as u8);
            }
            TraceOp::RemoteAtomic {
                addr,
                bytes,
                value_seed,
            } => {
                buf.push(TAG_ATOMIC);
                buf.extend_from_slice(&addr.to_le_bytes());
                buf.push(*bytes as u8);
                buf.extend_from_slice(&value_seed.to_le_bytes());
            }
        }
    }
    buf
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<(), TraceIoError> {
        if self.bytes.len() - self.pos < n {
            Err(TraceIoError::Truncated)
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceIoError> {
        self.need(n)?;
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get_u8(&mut self) -> Result<u8, TraceIoError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16_le(&mut self) -> Result<u16, TraceIoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn get_u32_le(&mut self) -> Result<u32, TraceIoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64_le(&mut self) -> Result<u64, TraceIoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Deserializes a kernel trace from its binary form.
///
/// # Errors
///
/// Returns a [`TraceIoError`] for malformed, truncated, or
/// version-incompatible streams. Never panics on arbitrary input.
pub fn read_trace(bytes: &[u8]) -> Result<KernelTrace, TraceIoError> {
    let buf = &mut Cursor::new(bytes);
    let magic = buf.take(4)?;
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = buf.get_u8()?;
    if version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let name_len = buf.get_u16_le()? as usize;
    let name = String::from_utf8(buf.take(name_len)?.to_vec())
        .map_err(|_| TraceIoError::InvalidField("name utf-8"))?;
    let n_ops = buf.get_u32_le()? as usize;
    let mut trace = KernelTrace::new(name);
    trace.ops.reserve(n_ops.min(1 << 20));
    for _ in 0..n_ops {
        let tag = buf.get_u8()?;
        let op = match tag {
            TAG_COMPUTE => TraceOp::Compute {
                cycles: buf.get_u32_le()?,
            },
            TAG_STORE_CONTIG | TAG_STORE_STRIDED | TAG_STORE_SCATTER => {
                let pattern = match tag {
                    TAG_STORE_CONTIG => AccessPattern::Contiguous {
                        base: buf.get_u64_le()?,
                    },
                    TAG_STORE_STRIDED => AccessPattern::Strided {
                        base: buf.get_u64_le()?,
                        stride: buf.get_u64_le()?,
                    },
                    _ => {
                        let n = buf.get_u8()? as usize;
                        if n > 32 {
                            return Err(TraceIoError::InvalidField("lane count"));
                        }
                        let mut addrs = Vec::with_capacity(n);
                        for _ in 0..n {
                            addrs.push(buf.get_u64_le()?);
                        }
                        AccessPattern::Scattered { addrs }
                    }
                };
                buf.need(13)?;
                let bytes_per_lane = u32::from(buf.get_u8()?);
                if !(1..=8).contains(&bytes_per_lane) {
                    return Err(TraceIoError::InvalidField("bytes per lane"));
                }
                let active_mask = buf.get_u32_le()?;
                if let AccessPattern::Scattered { addrs } = &pattern {
                    // Every active lane needs an address to write.
                    if u64::from(active_mask) >> addrs.len() != 0 {
                        return Err(TraceIoError::InvalidField(
                            "active mask names a lane past the address list",
                        ));
                    }
                }
                TraceOp::WarpStore {
                    pattern,
                    bytes_per_lane,
                    active_mask,
                    value_seed: buf.get_u64_le()?,
                }
            }
            TAG_FENCE => TraceOp::Fence,
            TAG_LOAD => TraceOp::RemoteLoad {
                addr: buf.get_u64_le()?,
                bytes: u32::from(buf.get_u8()?),
            },
            TAG_ATOMIC => TraceOp::RemoteAtomic {
                addr: buf.get_u64_le()?,
                bytes: u32::from(buf.get_u8()?),
                value_seed: buf.get_u64_le()?,
            },
            other => return Err(TraceIoError::UnknownTag(other)),
        };
        trace.push(op);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelTrace {
        let mut t = KernelTrace::new("roundtrip");
        t.push(TraceOp::Compute { cycles: 1234 });
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous { base: 0xdead_be00 },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: 42,
        });
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Strided {
                base: 0x100,
                stride: 512,
            },
            bytes_per_lane: 8,
            active_mask: 0xFF,
            value_seed: 7,
        });
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Scattered {
                addrs: (0..32).map(|i| i * 4096).collect(),
            },
            bytes_per_lane: 8,
            active_mask: 0xFFFF_0000,
            value_seed: 9,
        });
        t.push(TraceOp::Fence);
        t.push(TraceOp::RemoteLoad {
            addr: 0x8000,
            bytes: 8,
        });
        t.push(TraceOp::RemoteAtomic {
            addr: 0x9000,
            bytes: 4,
            value_seed: 3,
        });
        t
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let t = sample();
        let bytes = write_trace(&t);
        assert_eq!(read_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_trace(&sample());
        bytes[0] = b'X';
        assert_eq!(read_trace(&bytes), Err(TraceIoError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = write_trace(&sample());
        bytes[4] = 99;
        assert_eq!(
            read_trace(&bytes),
            Err(TraceIoError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = write_trace(&sample());
        for cut in 0..bytes.len() {
            let r = read_trace(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = KernelTrace::new("");
        let bytes = write_trace(&t);
        assert_eq!(read_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn error_display() {
        assert!(TraceIoError::BadMagic.to_string().contains("magic"));
        assert!(TraceIoError::UnknownTag(9).to_string().contains('9'));
    }
}
