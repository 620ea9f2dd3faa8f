//! The FinePack transaction format (§IV-A, Fig 6): an outer PCIe TLP
//! whose payload concatenates sub-packets, each led by a compact
//! sub-transaction header carrying a base-relative address offset and a
//! byte length.

use gpu_model::GpuId;
use protocol::{FramingModel, ProtocolError, TlpHeader, TlpType};

use crate::config::{FinePackError, SubheaderFormat, LENGTH_FIELD_BITS};

/// A store as the de-packetizer delivers it from a decoded
/// [`FinePackPacket`]: an address and its bytes.
///
/// Its bytes are merged from several issued stores (a queue entry's
/// last writers), so they are not a function of one seed as a
/// [`gpu_model::RemoteStore`]'s are: the record owns them. Egress paths
/// hand their packets' stores over in one buffer per packet instead
/// ([`crate::PackedStores`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredStore {
    /// Node-global physical address of the first byte.
    pub addr: u64,
    /// The bytes delivered.
    pub data: Vec<u8>,
}

impl DeliveredStore {
    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// True if the record carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// One packed store inside a FinePack transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPacket {
    /// Byte offset from the outer transaction's base address.
    pub offset: u64,
    /// Store payload (1–1023 bytes; zero-length terminates decoding).
    pub data: Vec<u8>,
}

impl SubPacket {
    /// Wire bytes of this sub-packet under `format` (sub-header + data).
    pub fn wire_bytes(&self, format: SubheaderFormat) -> u32 {
        format.bytes() + self.data.len() as u32
    }
}

/// A FinePack transaction: base address + packed sub-packets.
///
/// # Examples
///
/// ```
/// use finepack::{FinePackPacket, SubPacket, SubheaderFormat};
/// use gpu_model::GpuId;
///
/// let pkt = FinePackPacket {
///     src: GpuId::new(0),
///     dst: GpuId::new(1),
///     base_addr: 0x4000_0000,
///     subheader: SubheaderFormat::paper(),
///     subpackets: vec![SubPacket { offset: 0x10, data: vec![1, 2, 3, 4] }],
/// };
/// let wire = pkt.encode();
/// let back = FinePackPacket::decode(&wire, SubheaderFormat::paper(), GpuId::new(0), GpuId::new(1))?;
/// assert_eq!(back, pkt);
/// # Ok::<(), finepack::FinePackError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinePackPacket {
    /// Sending GPU (carried out-of-band; on real PCIe this is the
    /// requester ID).
    pub src: GpuId,
    /// Destination GPU (out-of-band; on real PCIe, address routing).
    pub dst: GpuId,
    /// Base address shared by all sub-packets (window-aligned).
    pub base_addr: u64,
    /// Sub-header format in force for this packet.
    pub subheader: SubheaderFormat,
    /// The packed stores.
    pub subpackets: Vec<SubPacket>,
}

impl FinePackPacket {
    /// Payload bytes of the outer transaction (sub-headers + data).
    pub fn payload_bytes(&self) -> u32 {
        self.subpackets
            .iter()
            .map(|s| s.wire_bytes(self.subheader))
            .sum()
    }

    /// Data bytes carried (excluding sub-headers).
    pub fn data_bytes(&self) -> u32 {
        self.subpackets.iter().map(|s| s.data.len() as u32).sum()
    }

    /// Total bytes on the wire under `framing` (outer header + link
    /// framing + DW-padded payload).
    pub fn wire_bytes(&self, framing: &FramingModel) -> u64 {
        framing.wire_bytes(self.payload_bytes())
    }

    /// Number of packed sub-packets.
    pub fn len(&self) -> usize {
        self.subpackets.len()
    }

    /// True if the packet carries no sub-packets.
    pub fn is_empty(&self) -> bool {
        self.subpackets.is_empty()
    }

    /// Encodes the outer TLP header plus the FinePack payload.
    ///
    /// The payload is padded with zero bytes to the next DW; a zero
    /// length field terminates decoding, so sub-packets never have
    /// zero-length payloads.
    ///
    /// # Panics
    ///
    /// Panics if a sub-packet's offset does not fit the sub-header's
    /// offset field, if a payload is empty or exceeds the encodable
    /// length, or if the packet itself is empty.
    pub fn encode(&self) -> Vec<u8> {
        assert!(!self.is_empty(), "cannot encode an empty FinePack packet");
        let payload_len = self.payload_bytes();
        let padded = payload_len.div_ceil(4) * 4;
        // GpuId is bounded to u8 by construction, so widening into the
        // 16-bit requester-id field is lossless for every id.
        let header = TlpHeader::finepack(u16::from(self.src.as_u8()), self.base_addr, padded);
        let mut out = Vec::with_capacity(16 + padded as usize);
        out.extend_from_slice(&header.encode());
        for sub in &self.subpackets {
            let len = sub.data.len() as u64;
            assert!(
                len > 0 && len <= u64::from((1u32 << LENGTH_FIELD_BITS) - 1),
                "sub-packet length {len} not encodable"
            );
            assert!(
                sub.offset < self.subheader.addressable_range(),
                "offset {:#x} exceeds {}-bit offset field",
                sub.offset,
                self.subheader.offset_bits()
            );
            let value: u64 = (sub.offset << LENGTH_FIELD_BITS) | len;
            let bytes = value.to_le_bytes();
            out.extend_from_slice(&bytes[..self.subheader.bytes() as usize]);
            out.extend_from_slice(&sub.data);
        }
        out.resize(16 + padded as usize, 0);
        out
    }

    /// Decodes a wire buffer produced by [`FinePackPacket::encode`].
    ///
    /// # Errors
    ///
    /// Returns an error if the outer header is malformed, is not a
    /// FinePack transaction, or a sub-packet is truncated.
    pub fn decode(
        bytes: &[u8],
        subheader: SubheaderFormat,
        src: GpuId,
        dst: GpuId,
    ) -> Result<Self, FinePackError> {
        let header = TlpHeader::decode(bytes)?;
        if header.tlp_type != TlpType::FinePack {
            return Err(FinePackError::Decode(ProtocolError::InvalidField(
                "not a FinePack transaction",
            )));
        }
        let payload = &bytes[16..];
        if (payload.len() as u32) < header.length_bytes {
            return Err(FinePackError::Decode(ProtocolError::Truncated {
                needed: 16 + header.length_bytes as usize,
                got: bytes.len(),
            }));
        }
        let sub_bytes = subheader.bytes() as usize;
        let mut subpackets = Vec::new();
        let mut pos = 0usize;
        let end = header.length_bytes as usize;
        while pos + sub_bytes <= end {
            let mut raw = [0u8; 8];
            raw[..sub_bytes].copy_from_slice(&payload[pos..pos + sub_bytes]);
            let value = u64::from_le_bytes(raw);
            let len = (value & u64::from((1u32 << LENGTH_FIELD_BITS) - 1)) as usize;
            if len == 0 {
                break; // zero-length terminator / padding
            }
            let offset = value >> LENGTH_FIELD_BITS;
            pos += sub_bytes;
            if pos + len > end {
                return Err(FinePackError::Decode(ProtocolError::Truncated {
                    needed: 16 + pos + len,
                    got: 16 + end,
                }));
            }
            subpackets.push(SubPacket {
                offset,
                data: payload[pos..pos + len].to_vec(),
            });
            pos += len;
        }
        Ok(FinePackPacket {
            src,
            dst,
            base_addr: header.address,
            subheader,
            subpackets,
        })
    }

    /// Disaggregates the packet into individual stores, adding each
    /// sub-packet offset to the base address (the de-packetizer, §IV-B).
    pub fn to_stores(&self) -> Vec<DeliveredStore> {
        self.subpackets
            .iter()
            .map(|s| DeliveredStore {
                addr: self.base_addr + s.offset,
                data: s.data.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(subheader: SubheaderFormat) -> FinePackPacket {
        FinePackPacket {
            src: GpuId::new(2),
            dst: GpuId::new(0),
            base_addr: 0x8000_0000,
            subheader,
            subpackets: vec![
                SubPacket {
                    offset: 0,
                    data: vec![9; 8],
                },
                // Offsets stay below 64 so the sample round-trips even
                // under the 2-byte (6-offset-bit) Table II format.
                SubPacket {
                    offset: 0x30,
                    data: vec![1, 2, 3],
                },
                SubPacket {
                    offset: 0x2F,
                    data: vec![0xAA],
                },
            ],
        }
    }

    #[test]
    fn boundary_gpu_id_encodes_unaliased() {
        // GPU 255 — the top of the id space — must reach the TLP's
        // 16-bit requester-id field un-truncated and round-trip.
        let mut p = sample(SubheaderFormat::paper());
        p.src = GpuId::new(u8::MAX);
        let wire = p.encode();
        let header = TlpHeader::decode(&wire).unwrap();
        assert_eq!(header.requester_id, 255u16);
        let back = FinePackPacket::decode(&wire, p.subheader, p.src, p.dst).expect("roundtrip");
        assert_eq!(back.src, GpuId::new(u8::MAX));
        assert_eq!(back.subpackets, p.subpackets);
    }

    #[test]
    fn roundtrip_all_table2_formats() {
        for bytes in 2..=6 {
            let f = SubheaderFormat::new(bytes).unwrap();
            let pkt = sample(f);
            let wire = pkt.encode();
            let back = FinePackPacket::decode(&wire, f, pkt.src, pkt.dst).unwrap();
            assert_eq!(back, pkt, "subheader={bytes}B");
        }
    }

    #[test]
    fn payload_accounting() {
        let pkt = sample(SubheaderFormat::paper());
        // 3 subheaders x 5B + 12 data bytes.
        assert_eq!(pkt.payload_bytes(), 27);
        assert_eq!(pkt.data_bytes(), 12);
        let fm = FramingModel::pcie_gen4();
        // 27 -> padded 28 + 24 overhead.
        assert_eq!(pkt.wire_bytes(&fm), 52);
    }

    #[test]
    fn wire_is_dw_padded_and_terminated() {
        let pkt = FinePackPacket {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            base_addr: 0x1000,
            subheader: SubheaderFormat::paper(),
            subpackets: vec![SubPacket {
                offset: 1,
                data: vec![7],
            }],
        };
        let wire = pkt.encode();
        assert_eq!((wire.len() - 16) % 4, 0);
        let back = FinePackPacket::decode(&wire, pkt.subheader, pkt.src, pkt.dst).unwrap();
        assert_eq!(back.subpackets, pkt.subpackets);
    }

    #[test]
    fn to_stores_rebases_addresses() {
        let pkt = sample(SubheaderFormat::paper());
        let stores = pkt.to_stores();
        assert_eq!(stores.len(), 3);
        assert_eq!(stores[0].addr, 0x8000_0000);
        assert_eq!(stores[1].addr, 0x8000_0030);
        assert_eq!(stores[2].addr, 0x8000_002F);
        assert_eq!(stores[1].data, vec![1, 2, 3]);
    }

    #[test]
    fn decode_rejects_plain_memwrite() {
        let hdr = TlpHeader::mem_write(0, 0x1000, 8);
        let mut wire = hdr.encode().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        let err = FinePackPacket::decode(
            &wire,
            SubheaderFormat::paper(),
            GpuId::new(0),
            GpuId::new(1),
        );
        assert!(err.is_err());
    }

    #[test]
    fn decode_rejects_truncated_subpacket() {
        let pkt = sample(SubheaderFormat::paper());
        let mut wire = pkt.encode();
        // Claim a longer payload than present by truncating data.
        wire.truncate(16 + 6);
        let err = FinePackPacket::decode(&wire, pkt.subheader, pkt.src, pkt.dst);
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn oversized_offset_panics_on_encode() {
        let f = SubheaderFormat::new(2).unwrap(); // 64B range
        let pkt = FinePackPacket {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            base_addr: 0,
            subheader: f,
            subpackets: vec![SubPacket {
                offset: 64,
                data: vec![1],
            }],
        };
        let _ = pkt.encode();
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_packet_panics_on_encode() {
        let pkt = FinePackPacket {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            base_addr: 0,
            subheader: SubheaderFormat::paper(),
            subpackets: vec![],
        };
        let _ = pkt.encode();
    }
}
