//! The packet buffer (`rte_mbuf`) layout and metadata accessors.
//!
//! Fig. 9: each buffer object is the mbuf struct (metadata, exactly two
//! cache lines = 128 B), a headroom, and the data room that receives the
//! frame. Fig. 10: CacheDirector makes the headroom *dynamic* — `data_off`
//! moves so that the first 64 B of the frame land in the right LLC slice —
//! and saves its per-core headroom table in the otherwise unused
//! `udata64` metadata field, 4 bits per core ("since 832 ... is 13 cache
//! lines, 4 bits is sufficient for each core. Therefore, our solution
//! would be scalable for up to 16 cores").
//!
//! Metadata lives in simulated physical memory: reading a header field
//! from the data path costs cycles and occupies cache, like the real
//! thing. [`MbufMeta`] is the typed overlay.

use llc_sim::addr::PhysAddr;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;

/// Size of the mbuf metadata struct: two cache lines (Fig. 9).
pub const MBUF_META_SIZE: usize = 128;

/// Default DPDK headroom (`RTE_PKTMBUF_HEADROOM`).
pub const DEFAULT_HEADROOM: u16 = 128;

/// Default data-room size.
pub const DEFAULT_DATAROOM: u16 = 2048;

/// Byte offsets of metadata fields within the object.
mod off {
    pub const DATA_OFF: usize = 0; // u16
    pub const DATA_LEN: usize = 2; // u16
    pub const PKT_LEN: usize = 4; // u32
    pub const UDATA64: usize = 8; // u64
    pub const PORT: usize = 16; // u16
    pub const QUEUE: usize = 18; // u16
}

/// Typed accessor for one mbuf's metadata, given the object's base
/// physical address.
///
/// All methods are *timed*: they walk the cache hierarchy on `core` and
/// return the cycles spent, because touching mbuf metadata is part of the
/// per-packet cost the paper is optimising.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbufMeta {
    base: PhysAddr,
}

impl MbufMeta {
    /// Overlay at the object base address.
    pub fn at(base: PhysAddr) -> Self {
        Self { base }
    }

    /// The object's base address.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Physical address of the headroom start (offset 0 of the buffer
    /// area, directly after the metadata).
    pub fn buf_base(&self) -> PhysAddr {
        self.base.add(MBUF_META_SIZE as u64)
    }

    /// Physical address of the data start for a given `data_off`.
    pub fn data_pa_for(&self, data_off: u16) -> PhysAddr {
        self.buf_base().add(u64::from(data_off))
    }

    /// Reads `data_off` (headroom size).
    pub fn data_off(&self, m: &mut Machine, core: usize) -> (u16, Cycles) {
        let mut b = [0u8; 2];
        let c = m.read_bytes(core, self.base.add(off::DATA_OFF as u64), &mut b);
        (u16::from_le_bytes(b), c)
    }

    /// Writes `data_off`.
    pub fn set_data_off(&self, m: &mut Machine, core: usize, v: u16) -> Cycles {
        m.write_bytes(core, self.base.add(off::DATA_OFF as u64), &v.to_le_bytes())
    }

    /// Reads the segment data length.
    pub fn data_len(&self, m: &mut Machine, core: usize) -> (u16, Cycles) {
        let mut b = [0u8; 2];
        let c = m.read_bytes(core, self.base.add(off::DATA_LEN as u64), &mut b);
        (u16::from_le_bytes(b), c)
    }

    /// Writes the segment data length.
    pub fn set_data_len(&self, m: &mut Machine, core: usize, v: u16) -> Cycles {
        m.write_bytes(core, self.base.add(off::DATA_LEN as u64), &v.to_le_bytes())
    }

    /// Reads the total packet length.
    pub fn pkt_len(&self, m: &mut Machine, core: usize) -> (u32, Cycles) {
        let mut b = [0u8; 4];
        let c = m.read_bytes(core, self.base.add(off::PKT_LEN as u64), &mut b);
        (u32::from_le_bytes(b), c)
    }

    /// Writes the total packet length.
    pub fn set_pkt_len(&self, m: &mut Machine, core: usize, v: u32) -> Cycles {
        m.write_bytes(core, self.base.add(off::PKT_LEN as u64), &v.to_le_bytes())
    }

    /// Reads `udata64` (CacheDirector's per-core headroom table).
    pub fn udata64(&self, m: &mut Machine, core: usize) -> (u64, Cycles) {
        let (v, c) = m.read_u64(core, self.base.add(off::UDATA64 as u64));
        (v, c)
    }

    /// Writes `udata64`.
    pub fn set_udata64(&self, m: &mut Machine, core: usize, v: u64) -> Cycles {
        m.write_u64(core, self.base.add(off::UDATA64 as u64), v)
    }

    /// Reads the input port id.
    pub fn port(&self, m: &mut Machine, core: usize) -> (u16, Cycles) {
        let mut b = [0u8; 2];
        let c = m.read_bytes(core, self.base.add(off::PORT as u64), &mut b);
        (u16::from_le_bytes(b), c)
    }

    /// Writes the input port id.
    pub fn set_port(&self, m: &mut Machine, core: usize, v: u16) -> Cycles {
        m.write_bytes(core, self.base.add(off::PORT as u64), &v.to_le_bytes())
    }

    /// Reads the input queue id.
    pub fn queue(&self, m: &mut Machine, core: usize) -> (u16, Cycles) {
        let mut b = [0u8; 2];
        let c = m.read_bytes(core, self.base.add(off::QUEUE as u64), &mut b);
        (u16::from_le_bytes(b), c)
    }

    /// Writes the input queue id.
    pub fn set_queue(&self, m: &mut Machine, core: usize, v: u16) -> Cycles {
        m.write_bytes(core, self.base.add(off::QUEUE as u64), &v.to_le_bytes())
    }
}

/// Packs a per-core headroom table into `udata64`: for each of up to 16
/// cores, the number of *cache lines* of headroom that places the data
/// start in that core's preferred slice (Fig. 10, §4.2 "we save the
/// number of cache lines instead of actual headroom size").
pub fn pack_headroom_table(lines_per_core: &[u8]) -> u64 {
    assert!(lines_per_core.len() <= 16, "udata64 holds 16 nibbles");
    let mut v = 0u64;
    for (core, &lines) in lines_per_core.iter().enumerate() {
        assert!(lines < 16, "headroom beyond 15 lines does not fit a nibble");
        v |= u64::from(lines) << (core * 4);
    }
    v
}

/// Extracts core `core`'s headroom line count from a packed `udata64`.
pub fn unpack_headroom_lines(udata: u64, core: usize) -> u8 {
    assert!(core < 16, "udata64 holds 16 nibbles");
    ((udata >> (core * 4)) & 0xf) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20))
    }

    #[test]
    fn metadata_roundtrip() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let meta = MbufMeta::at(r.pa(0));
        meta.set_data_off(&mut m, 0, 256);
        meta.set_data_len(&mut m, 0, 1500);
        meta.set_pkt_len(&mut m, 0, 1500);
        meta.set_udata64(&mut m, 0, 0xdead_beef);
        meta.set_port(&mut m, 0, 3);
        meta.set_queue(&mut m, 0, 5);
        assert_eq!(meta.data_off(&mut m, 0).0, 256);
        assert_eq!(meta.data_len(&mut m, 0).0, 1500);
        assert_eq!(meta.pkt_len(&mut m, 0).0, 1500);
        assert_eq!(meta.udata64(&mut m, 0).0, 0xdead_beef);
        assert_eq!(meta.port(&mut m, 0).0, 3);
        assert_eq!(meta.queue(&mut m, 0).0, 5);
    }

    #[test]
    fn metadata_access_costs_cycles() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let meta = MbufMeta::at(r.pa(0));
        let (_, cold) = meta.data_off(&mut m, 0);
        let (_, hot) = meta.data_off(&mut m, 0);
        assert!(cold > hot, "first touch misses, second hits L1");
        assert_eq!(hot, 4);
    }

    #[test]
    fn data_pa_layout_matches_fig9() {
        let meta = MbufMeta::at(PhysAddr(0x1000));
        assert_eq!(meta.buf_base(), PhysAddr(0x1000 + 128));
        assert_eq!(meta.data_pa_for(128), PhysAddr(0x1000 + 256));
        assert_eq!(meta.data_pa_for(0), meta.buf_base());
    }

    #[test]
    fn headroom_table_roundtrip() {
        let lines: Vec<u8> = (0..16).map(|c| (c % 14) as u8).collect();
        let packed = pack_headroom_table(&lines);
        for (core, &want) in lines.iter().enumerate() {
            assert_eq!(unpack_headroom_lines(packed, core), want);
        }
    }

    #[test]
    fn headroom_table_13_lines_fits() {
        // §4.2: 832 B = 13 lines, the maximum the paper needed.
        let packed = pack_headroom_table(&[13; 16]);
        assert_eq!(unpack_headroom_lines(packed, 15), 13);
    }

    #[test]
    #[should_panic(expected = "does not fit a nibble")]
    fn headroom_table_rejects_16_lines() {
        pack_headroom_table(&[16]);
    }

    #[test]
    #[should_panic(expected = "16 nibbles")]
    fn headroom_table_rejects_17_cores() {
        pack_headroom_table(&[0; 17]);
    }
}
