//! NVLink flit-level framing model.
//!
//! NVLink moves data in 16-byte flits. Each request carries a header flit;
//! when the payload is not flit-aligned (or byte enables are otherwise
//! required), an additional byte-enable flit is sent — this is the cause
//! of the goodput "spikes" the paper notes in Figure 2's footnote.

/// NVLink flit size in bytes.
pub const FLIT_BYTES: u32 = 16;

/// Framing model for an NVLink-style flit protocol.
///
/// # Examples
///
/// ```
/// use protocol::NvlinkModel;
///
/// let nv = NvlinkModel::default();
/// // A 16B aligned store: 1 header flit + 1 data flit.
/// assert_eq!(nv.wire_bytes(16, true), 32);
/// // A 12B store additionally pays a byte-enable flit.
/// assert_eq!(nv.wire_bytes(12, true), 48);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NvlinkModel {
    /// Header flits per packet.
    pub header_flits: u32,
    /// Whether a byte-enable flit is charged for non-flit-aligned payloads.
    pub byte_enable_flit: bool,
    /// Maximum data payload per packet, bytes.
    pub max_payload: u32,
}

impl Default for NvlinkModel {
    fn default() -> Self {
        NvlinkModel {
            header_flits: 1,
            byte_enable_flit: true,
            max_payload: 256,
        }
    }
}

impl NvlinkModel {
    /// Total wire bytes for one packet with `payload` data bytes.
    ///
    /// `aligned` indicates the store is flit-aligned at both ends; when
    /// false (or when the size is not a flit multiple), a byte-enable flit
    /// is charged if the model carries them.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is zero or exceeds `max_payload`.
    pub fn wire_bytes(&self, payload: u32, aligned: bool) -> u64 {
        assert!(
            payload > 0 && payload <= self.max_payload,
            "invalid NVLink payload {payload}"
        );
        let data_flits = payload.div_ceil(FLIT_BYTES);
        let needs_be = self.byte_enable_flit && (!aligned || !payload.is_multiple_of(FLIT_BYTES));
        let flits = self.header_flits + data_flits + u32::from(needs_be);
        u64::from(flits) * u64::from(FLIT_BYTES)
    }

    /// Total wire bytes to move `total_payload` bytes in max-size packets.
    pub fn bulk_wire_bytes(&self, total_payload: u64) -> u64 {
        if total_payload == 0 {
            return 0;
        }
        let full = total_payload / u64::from(self.max_payload);
        let rem = (total_payload % u64::from(self.max_payload)) as u32;
        let mut bytes = full * self.wire_bytes(self.max_payload, true);
        if rem > 0 {
            bytes += self.wire_bytes(rem, true);
        }
        bytes
    }

    /// Goodput (payload / wire bytes) for a single packet.
    ///
    /// # Panics
    ///
    /// Panics as for [`NvlinkModel::wire_bytes`].
    pub fn goodput(&self, payload: u32, aligned: bool) -> f64 {
        f64::from(payload) / self.wire_bytes(payload, aligned) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_flit_multiples_skip_be_flit() {
        let nv = NvlinkModel::default();
        assert_eq!(nv.wire_bytes(32, true), 48); // hdr + 2 data
        assert_eq!(nv.wire_bytes(32, false), 64); // + BE flit
    }

    #[test]
    fn goodput_spikes_at_flit_boundaries() {
        let nv = NvlinkModel::default();
        // 16B aligned: 16/32 = 0.5; 17B: needs 2 data flits + BE = 17/64.
        let at16 = nv.goodput(16, true);
        let at17 = nv.goodput(17, true);
        assert!(at16 > at17 * 1.5, "expected spike: {at16} vs {at17}");
    }

    #[test]
    fn small_unaligned_stores_are_inefficient() {
        let nv = NvlinkModel::default();
        // 4B store: header + data flit + BE flit = 48B on wire.
        assert!(nv.goodput(4, false) < 0.1);
    }

    #[test]
    fn bulk_wire_bytes_chunks() {
        let nv = NvlinkModel::default();
        let one = nv.wire_bytes(256, true);
        assert_eq!(nv.bulk_wire_bytes(512), 2 * one);
        assert_eq!(nv.bulk_wire_bytes(0), 0);
    }

    #[test]
    #[should_panic(expected = "invalid NVLink payload")]
    fn zero_payload_panics() {
        let _ = NvlinkModel::default().wire_bytes(0, true);
    }
}
