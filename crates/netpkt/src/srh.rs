//! The IPv6 Segment Routing Header (SRH, RFC 8754 / draft-ietf-6man-segment-routing-header).
//!
//! The SRH is an IPv6 routing extension header (routing type 4). It carries
//! the ordered list of segments — 128-bit IPv6 addresses — that the packet
//! must visit, stored in *reverse* order on the wire (`Segment List[0]` is
//! the final segment), plus optional TLVs. `Segments Left` indexes the
//! current segment.
//!
//! The fields an `End.BPF` program may edit through
//! `bpf_lwt_seg6_store_bytes` are the flags, the tag and the TLV area; the
//! offsets of those fields are exported as constants so the `seg6-core`
//! helpers and the verifier-side checks agree on them.

use crate::error::{ensure_len, Error, Result};
use std::net::Ipv6Addr;

/// Length of the fixed part of the SRH (before the segment list), in bytes.
pub const SRH_FIXED_LEN: usize = 8;
/// Routing type value assigned to Segment Routing (RFC 8754).
pub const SRH_ROUTING_TYPE: u8 = 4;
/// Byte offset of the flags field inside the SRH.
pub const SRH_FLAGS_OFFSET: usize = 5;
/// Byte offset of the 16-bit tag field inside the SRH.
pub const SRH_TAG_OFFSET: usize = 6;

/// TLV type for Pad1 (a single padding byte, no length field).
pub const TLV_TYPE_PAD1: u8 = 0;
/// TLV type for PadN.
pub const TLV_TYPE_PADN: u8 = 4;
/// TLV type used by the delay-measurement use case to carry a TX timestamp.
///
/// draft-ali-spring-srv6-pm does not have an IANA allocation; the paper's
/// artefact used an experimental value and so do we.
pub const TLV_TYPE_DM: u8 = 124;
/// TLV type carrying the IPv6 address and UDP port of the delay controller.
pub const TLV_TYPE_CONTROLLER: u8 = 125;
/// TLV type used by the End.OAMP use case to carry the prober's address.
pub const TLV_TYPE_OAM_REPLY_TO: u8 = 126;

/// A single SRH TLV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrhTlv {
    /// One byte of padding.
    Pad1,
    /// `n` bytes of padding (including the type and length octets).
    PadN {
        /// Number of zero bytes in the value (total TLV size is `len + 2`).
        len: u8,
    },
    /// Delay-Measurement TLV: a 64-bit transmission timestamp in nanoseconds.
    DelayMeasurement {
        /// TX timestamp, nanoseconds since the simulation epoch.
        tx_timestamp_ns: u64,
    },
    /// Address and UDP port of the controller collecting delay reports.
    Controller {
        /// Controller IPv6 address.
        addr: Ipv6Addr,
        /// Controller UDP port.
        port: u16,
    },
    /// Address the End.OAMP function must send its ECMP report to.
    OamReplyTo {
        /// Prober IPv6 address.
        addr: Ipv6Addr,
        /// Prober UDP port.
        port: u16,
    },
    /// Any other TLV, kept as raw type + value bytes.
    Opaque {
        /// TLV type octet.
        kind: u8,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

/// Discriminant-only view of a TLV, useful for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlvKind {
    /// Pad1 padding.
    Pad1,
    /// PadN padding.
    PadN,
    /// Delay-Measurement TLV.
    DelayMeasurement,
    /// Controller address TLV.
    Controller,
    /// OAM reply-to TLV.
    OamReplyTo,
    /// Unrecognised TLV.
    Opaque(u8),
}

impl SrhTlv {
    /// The TLV's kind.
    pub fn kind(&self) -> TlvKind {
        match self {
            SrhTlv::Pad1 => TlvKind::Pad1,
            SrhTlv::PadN { .. } => TlvKind::PadN,
            SrhTlv::DelayMeasurement { .. } => TlvKind::DelayMeasurement,
            SrhTlv::Controller { .. } => TlvKind::Controller,
            SrhTlv::OamReplyTo { .. } => TlvKind::OamReplyTo,
            SrhTlv::Opaque { kind, .. } => TlvKind::Opaque(*kind),
        }
    }

    /// Size of the TLV on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            SrhTlv::Pad1 => 1,
            SrhTlv::PadN { len } => 2 + usize::from(*len),
            SrhTlv::DelayMeasurement { .. } => 2 + 8,
            SrhTlv::Controller { .. } | SrhTlv::OamReplyTo { .. } => 2 + 18,
            SrhTlv::Opaque { value, .. } => 2 + value.len(),
        }
    }

    /// Serialises the TLV, appending to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            SrhTlv::Pad1 => out.push(TLV_TYPE_PAD1),
            SrhTlv::PadN { len } => {
                out.push(TLV_TYPE_PADN);
                out.push(*len);
                out.extend(std::iter::repeat_n(0u8, usize::from(*len)));
            }
            SrhTlv::DelayMeasurement { tx_timestamp_ns } => {
                out.push(TLV_TYPE_DM);
                out.push(8);
                out.extend_from_slice(&tx_timestamp_ns.to_be_bytes());
            }
            SrhTlv::Controller { addr, port } => {
                out.push(TLV_TYPE_CONTROLLER);
                out.push(18);
                out.extend_from_slice(&addr.octets());
                out.extend_from_slice(&port.to_be_bytes());
            }
            SrhTlv::OamReplyTo { addr, port } => {
                out.push(TLV_TYPE_OAM_REPLY_TO);
                out.push(18);
                out.extend_from_slice(&addr.octets());
                out.extend_from_slice(&port.to_be_bytes());
            }
            SrhTlv::Opaque { kind, value } => {
                out.push(*kind);
                out.push(value.len() as u8);
                out.extend_from_slice(value);
            }
        }
    }

    /// Checks the TLV at the start of `buf` and returns its wire length,
    /// without building it — the allocation-free half of parsing.
    fn check_one(buf: &[u8]) -> Result<usize> {
        ensure_len(buf, 1)?;
        if buf[0] == TLV_TYPE_PAD1 {
            return Ok(1);
        }
        ensure_len(buf, 2)?;
        let len = usize::from(buf[1]);
        ensure_len(buf, 2 + len)?;
        match buf[0] {
            TLV_TYPE_DM if len != 8 => Err(Error::BadTlv("DM TLV value must be 8 bytes")),
            TLV_TYPE_CONTROLLER | TLV_TYPE_OAM_REPLY_TO if len != 18 => {
                Err(Error::BadTlv("address TLV value must be 18 bytes"))
            }
            _ => Ok(2 + len),
        }
    }

    /// Builds the TLV at the start of `buf`, which [`SrhTlv::check_one`]
    /// accepted; returns it with its wire length.
    fn read_one(buf: &[u8]) -> (SrhTlv, usize) {
        if buf[0] == TLV_TYPE_PAD1 {
            return (SrhTlv::Pad1, 1);
        }
        let value = &buf[2..2 + usize::from(buf[1])];
        let tlv = match buf[0] {
            TLV_TYPE_PADN => SrhTlv::PadN { len: value.len() as u8 },
            TLV_TYPE_DM => SrhTlv::DelayMeasurement {
                tx_timestamp_ns: u64::from_be_bytes(value.try_into().expect("checked 8-byte value")),
            },
            kind @ (TLV_TYPE_CONTROLLER | TLV_TYPE_OAM_REPLY_TO) => {
                let addr = Ipv6Addr::from(<[u8; 16]>::try_from(&value[..16]).expect("checked 18-byte value"));
                let port = u16::from_be_bytes([value[16], value[17]]);
                if kind == TLV_TYPE_CONTROLLER {
                    SrhTlv::Controller { addr, port }
                } else {
                    SrhTlv::OamReplyTo { addr, port }
                }
            }
            other => SrhTlv::Opaque { kind: other, value: value.to_vec() },
        };
        (tlv, 2 + value.len())
    }
}

/// A parsed or to-be-serialised Segment Routing Header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRoutingHeader {
    /// Protocol of the header following the SRH.
    pub next_header: u8,
    /// Index of the currently active segment (counts down to zero).
    pub segments_left: u8,
    /// Index of the last element of the segment list (`segments.len() - 1`).
    pub last_entry: u8,
    /// Flags octet. No flag bits are defined by RFC 8754; End.BPF programs
    /// may nevertheless write it through `bpf_lwt_seg6_store_bytes`.
    pub flags: u8,
    /// Operator-defined tag grouping packets (the paper's `Tag++` program
    /// increments it from eBPF).
    pub tag: u16,
    /// The segment list in wire order (`segments[0]` is the *final* segment).
    pub segments: Vec<Ipv6Addr>,
    /// Optional TLVs following the segment list.
    pub tlvs: Vec<SrhTlv>,
}

impl SegmentRoutingHeader {
    /// Creates an SRH from a segment list already in wire order.
    ///
    /// `segments_left` selects the active segment; `last_entry` is derived
    /// from the list length.
    pub fn new(next_header: u8, segments: Vec<Ipv6Addr>, segments_left: u8) -> Self {
        let last = segments.len().saturating_sub(1) as u8;
        SegmentRoutingHeader {
            next_header,
            segments_left,
            last_entry: last,
            flags: 0,
            tag: 0,
            segments,
            tlvs: Vec::new(),
        }
    }

    /// Creates an SRH from segments given in *path order* (first segment to
    /// visit first). The list is reversed into wire order and
    /// `segments_left` is initialised to point at the first segment of the
    /// path, which matches what an SRv6 source node emits.
    pub fn from_path(next_header: u8, path: &[Ipv6Addr]) -> Self {
        let mut segments: Vec<Ipv6Addr> = path.to_vec();
        segments.reverse();
        let left = segments.len().saturating_sub(1) as u8;
        Self::new(next_header, segments, left)
    }

    /// The currently active segment, i.e. `segments[segments_left]`.
    pub fn current_segment(&self) -> Option<Ipv6Addr> {
        self.segments.get(usize::from(self.segments_left)).copied()
    }

    /// The full path in visiting order (reverse of wire order).
    pub fn path(&self) -> Vec<Ipv6Addr> {
        let mut p = self.segments.clone();
        p.reverse();
        p
    }

    /// Decrements `segments_left` and returns the new active segment, as the
    /// `End` behaviour does. Returns an error if `segments_left` is already
    /// zero (the packet reached its last segment).
    pub fn advance(&mut self) -> Result<Ipv6Addr> {
        if self.segments_left == 0 {
            return Err(Error::Malformed("cannot advance SRH: segments_left is zero"));
        }
        self.segments_left -= 1;
        self.current_segment().ok_or(Error::Malformed("segments_left out of range"))
    }

    /// Total size of the serialised header in bytes, including TLV padding.
    pub fn wire_len(&self) -> usize {
        let tlv_len: usize = self.tlvs.iter().map(SrhTlv::wire_len).sum();
        let unpadded = SRH_FIXED_LEN + 16 * self.segments.len() + tlv_len;
        // The whole extension header must be a multiple of 8 bytes; the
        // serialiser pads the TLV area accordingly.
        unpadded.div_ceil(8) * 8
    }

    /// Byte offset (from the start of the SRH) where the TLV area begins.
    pub fn tlv_offset(&self) -> usize {
        SRH_FIXED_LEN + 16 * self.segments.len()
    }

    /// The value the Hdr Ext Len field will carry: SRH length in 8-octet
    /// units, not counting the first 8 octets.
    pub fn hdr_ext_len(&self) -> u8 {
        ((self.wire_len() - 8) / 8) as u8
    }

    /// Serialises the SRH, padding the TLV area to an 8-byte multiple with
    /// Pad1/PadN TLVs as required by RFC 8754.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out);
        out
    }

    /// [`to_bytes`](Self::to_bytes), appending to `out` — the form for
    /// callers that reuse one buffer across packets.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.next_header);
        out.push(self.hdr_ext_len());
        out.push(SRH_ROUTING_TYPE);
        out.push(self.segments_left);
        out.push(self.last_entry);
        out.push(self.flags);
        out.extend_from_slice(&self.tag.to_be_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.octets());
        }
        for tlv in &self.tlvs {
            tlv.write_to(out);
        }
        let target = self.wire_len();
        let missing = target - (out.len() - start);
        match missing {
            0 => {}
            1 => out.push(TLV_TYPE_PAD1),
            n => {
                out.push(TLV_TYPE_PADN);
                out.push((n - 2) as u8);
                out.extend(std::iter::repeat_n(0u8, n - 2));
            }
        }
        debug_assert_eq!(out.len() - start, target);
    }

    /// Parses an SRH from the start of `buf`. Trailing bytes beyond the
    /// header's declared length are ignored.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let total_len = Self::validate_raw(buf)?;
        let n_segments = usize::from(buf[4]) + 1;
        let segments = buf[SRH_FIXED_LEN..SRH_FIXED_LEN + 16 * n_segments]
            .chunks_exact(16)
            .map(|octets| Ipv6Addr::from(<[u8; 16]>::try_from(octets).expect("16-byte chunk")))
            .collect();
        let mut tlvs = Vec::new();
        let mut off = SRH_FIXED_LEN + 16 * n_segments;
        while off < total_len {
            let (tlv, consumed) = SrhTlv::read_one(&buf[off..total_len]);
            off += consumed;
            tlvs.push(tlv);
        }
        Ok(SegmentRoutingHeader {
            next_header: buf[0],
            segments_left: buf[3],
            last_entry: buf[4],
            flags: buf[5],
            tag: u16::from_be_bytes([buf[6], buf[7]]),
            segments,
            tlvs,
        })
    }

    /// Validates a raw SRH in place, as the kernel does after an `End.BPF`
    /// program has edited it: the declared length must cover the segment
    /// list, `segments_left` must stay within bounds and the TLV area must
    /// parse end-to-end. Returns the total SRH length on success. Checks
    /// everything [`parse`](Self::parse) checks, without allocating.
    pub fn validate_raw(buf: &[u8]) -> Result<usize> {
        ensure_len(buf, SRH_FIXED_LEN)?;
        let total_len = 8 + usize::from(buf[1]) * 8;
        ensure_len(buf, total_len)?;
        if buf[2] != SRH_ROUTING_TYPE {
            return Err(Error::Malformed("routing type is not 4 (Segment Routing)"));
        }
        let n_segments = usize::from(buf[4]) + 1;
        let mut off = SRH_FIXED_LEN + 16 * n_segments;
        if off > total_len {
            return Err(Error::BadLength("segment list exceeds SRH length"));
        }
        if usize::from(buf[3]) >= n_segments {
            return Err(Error::Malformed("segments_left exceeds last_entry"));
        }
        while off < total_len {
            off += SrhTlv::check_one(&buf[off..total_len])?;
        }
        Ok(total_len)
    }

    /// Finds the first TLV of the given kind.
    pub fn find_tlv(&self, kind: TlvKind) -> Option<&SrhTlv> {
        self.tlvs.iter().find(|t| t.kind() == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample() -> SegmentRoutingHeader {
        SegmentRoutingHeader::from_path(17, &[addr("fc00::1"), addr("fc00::2"), addr("fc00::3")])
    }

    #[test]
    fn from_path_reverses_and_sets_segments_left() {
        let srh = sample();
        assert_eq!(srh.segments_left, 2);
        assert_eq!(srh.last_entry, 2);
        assert_eq!(srh.current_segment(), Some(addr("fc00::1")));
        assert_eq!(srh.segments[0], addr("fc00::3"));
        assert_eq!(srh.path(), vec![addr("fc00::1"), addr("fc00::2"), addr("fc00::3")]);
    }

    #[test]
    fn advance_walks_the_path() {
        let mut srh = sample();
        assert_eq!(srh.advance().unwrap(), addr("fc00::2"));
        assert_eq!(srh.advance().unwrap(), addr("fc00::3"));
        assert!(srh.advance().is_err());
    }

    #[test]
    fn roundtrip_without_tlvs() {
        let srh = sample();
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, srh);
    }

    #[test]
    fn roundtrip_with_dm_and_controller_tlvs() {
        let mut srh = sample();
        srh.tag = 0xbeef;
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 123_456_789 });
        srh.tlvs.push(SrhTlv::Controller { addr: addr("2001:db8::99"), port: 9999 });
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.tag, 0xbeef);
        assert_eq!(
            parsed.find_tlv(TlvKind::DelayMeasurement),
            Some(&SrhTlv::DelayMeasurement { tx_timestamp_ns: 123_456_789 })
        );
        assert_eq!(
            parsed.find_tlv(TlvKind::Controller),
            Some(&SrhTlv::Controller { addr: addr("2001:db8::99"), port: 9999 })
        );
    }

    #[test]
    fn serialiser_pads_odd_tlv_area() {
        let mut srh = sample();
        // A 3-byte opaque TLV leaves the TLV area misaligned; the serialiser
        // must pad to an 8-byte boundary and the result must still parse.
        srh.tlvs.push(SrhTlv::Opaque { kind: 200, value: vec![1, 2, 3] });
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(
            parsed.find_tlv(TlvKind::Opaque(200)),
            Some(&SrhTlv::Opaque { kind: 200, value: vec![1, 2, 3] })
        );
    }

    #[test]
    fn parse_rejects_wrong_routing_type() {
        let mut bytes = sample().to_bytes();
        bytes[2] = 3;
        assert!(SegmentRoutingHeader::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_segments_left_out_of_range() {
        let mut bytes = sample().to_bytes();
        bytes[3] = 7;
        assert!(SegmentRoutingHeader::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_truncated_segment_list() {
        let bytes = sample().to_bytes();
        assert!(SegmentRoutingHeader::parse(&bytes[..16]).is_err());
    }

    #[test]
    fn validate_raw_catches_corrupted_tlv_area() {
        let mut srh = sample();
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 1 });
        let mut bytes = srh.to_bytes();
        assert!(SegmentRoutingHeader::validate_raw(&bytes).is_ok());
        // Corrupt the DM TLV length so the walk overruns.
        let tlv_off = srh.tlv_offset();
        bytes[tlv_off + 1] = 200;
        assert!(SegmentRoutingHeader::validate_raw(&bytes).is_err());
    }

    #[test]
    fn wire_len_matches_serialised_length() {
        let mut srh = sample();
        srh.tlvs.push(SrhTlv::OamReplyTo { addr: addr("fc00::aa"), port: 4242 });
        assert_eq!(srh.wire_len(), srh.to_bytes().len());
    }

    #[test]
    fn field_offsets_match_wire_layout() {
        let mut srh = sample();
        srh.flags = 0xa5;
        srh.tag = 0x1234;
        let bytes = srh.to_bytes();
        assert_eq!(bytes[SRH_FLAGS_OFFSET], 0xa5);
        assert_eq!(&bytes[SRH_TAG_OFFSET..SRH_TAG_OFFSET + 2], &[0x12, 0x34]);
    }

    #[test]
    fn single_segment_srh() {
        let srh = SegmentRoutingHeader::from_path(41, &[addr("fc00::9")]);
        assert_eq!(srh.segments_left, 0);
        assert_eq!(srh.last_entry, 0);
        assert_eq!(srh.current_segment(), Some(addr("fc00::9")));
        let parsed = SegmentRoutingHeader::parse(&srh.to_bytes()).unwrap();
        assert_eq!(parsed, srh);
    }
}
