//! Low-level SRv6 packet operations shared by the static seg6local actions,
//! the seg6 transit behaviours and the eBPF helpers.
//!
//! All functions operate on the raw packet bytes (a `Vec<u8>` starting at
//! the outermost IPv6 header) so that both the static datapath and the
//! helper functions running under the VM use exactly the same code.

use netpkt::ipv6::{proto, Ipv6Header, IPV6_HEADER_LEN};
use netpkt::srh::SegmentRoutingHeader;
use std::net::Ipv6Addr;

/// Default hop limit of headers pushed by encapsulation.
pub const ENCAP_HOP_LIMIT: u8 = 64;

/// Offset of the destination address within an IPv6 header.
const DST_OFFSET: usize = 24;
/// Offset of the payload-length field within an IPv6 header.
const PAYLOAD_LEN_OFFSET: usize = 4;
/// Offset of the next-header field within an IPv6 header.
const NEXT_HEADER_OFFSET: usize = 6;
/// Offset of the segments-left field within an SRH.
const SRH_SEGMENTS_LEFT_OFFSET: usize = 3;

/// Result alias with static reasons, convenient for drop accounting.
pub type OpResult<T> = std::result::Result<T, &'static str>;

/// Locates the outermost SRH: returns `(offset, length_in_bytes)`.
pub fn find_srh(packet: &[u8]) -> Option<(usize, usize)> {
    if packet.len() < IPV6_HEADER_LEN {
        return None;
    }
    if packet[NEXT_HEADER_OFFSET] != proto::ROUTING {
        return None;
    }
    let off = IPV6_HEADER_LEN;
    if packet.len() < off + 8 {
        return None;
    }
    let len = 8 + usize::from(packet[off + 1]) * 8;
    if packet.len() < off + len {
        return None;
    }
    Some((off, len))
}

/// Reads the outer destination address.
pub fn outer_dst(packet: &[u8]) -> OpResult<Ipv6Addr> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let mut octets = [0u8; 16];
    octets.copy_from_slice(&packet[DST_OFFSET..DST_OFFSET + 16]);
    Ok(Ipv6Addr::from(octets))
}

/// Reads the outer source address.
pub fn outer_src(packet: &[u8]) -> OpResult<Ipv6Addr> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let mut octets = [0u8; 16];
    octets.copy_from_slice(&packet[8..24]);
    Ok(Ipv6Addr::from(octets))
}

/// Writes the outer destination address.
pub fn set_outer_dst(packet: &mut [u8], dst: Ipv6Addr) -> OpResult<()> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    packet[DST_OFFSET..DST_OFFSET + 16].copy_from_slice(&dst.octets());
    Ok(())
}

/// Decrements the hop limit, returning the new value (0 means the packet
/// must be dropped and an ICMPv6 time-exceeded generated).
pub fn decrement_hop_limit(packet: &mut [u8]) -> OpResult<u8> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    if packet[7] == 0 {
        return Err("hop limit already zero");
    }
    packet[7] -= 1;
    Ok(packet[7])
}

/// The `End`-style SRH advance: requires an SRH with `segments_left > 0`,
/// decrements it and rewrites the outer destination to the new current
/// segment. Returns the new destination. Operates in place — the packet
/// never changes size, so the hot path advances without copying it.
pub fn advance_srh(packet: &mut [u8]) -> OpResult<Ipv6Addr> {
    let (off, len) = find_srh(packet).ok_or("packet has no SRH")?;
    let segments_left = packet[off + SRH_SEGMENTS_LEFT_OFFSET];
    if segments_left == 0 {
        return Err("segments_left is zero");
    }
    let last_entry = packet[off + 4];
    let new_left = segments_left - 1;
    if usize::from(new_left) > usize::from(last_entry) {
        return Err("segments_left exceeds last_entry");
    }
    let seg_off = off + 8 + 16 * usize::from(new_left);
    if seg_off + 16 > off + len {
        return Err("segment list truncated");
    }
    packet[off + SRH_SEGMENTS_LEFT_OFFSET] = new_left;
    let mut octets = [0u8; 16];
    octets.copy_from_slice(&packet[seg_off..seg_off + 16]);
    let next = Ipv6Addr::from(octets);
    set_outer_dst(packet, next)?;
    Ok(next)
}

/// Validates that the packet is an IPv6-in-IPv6 (possibly via an SRH)
/// encapsulation and returns the byte offset of the inner IPv6 header —
/// the amount a decapsulation pulls off the front. Splitting the check
/// from the removal lets `PacketBuf`-based callers decapsulate with a
/// headroom adjustment instead of a reallocation.
pub fn decap_offset(packet: &[u8]) -> OpResult<usize> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let mut inner_off = IPV6_HEADER_LEN;
    let mut next = packet[NEXT_HEADER_OFFSET];
    if next == proto::ROUTING {
        let (off, len) = find_srh(packet).ok_or("truncated SRH")?;
        next = packet[off];
        inner_off = off + len;
    }
    if next != proto::IPV6 {
        return Err("no inner IPv6 packet to decapsulate");
    }
    if packet.len() < inner_off + IPV6_HEADER_LEN {
        return Err("inner IPv6 header truncated");
    }
    Ok(inner_off)
}

/// Removes the outer IPv6 header (and its SRH, if any), leaving the inner
/// IPv6 packet. Returns the inner destination. This is the decapsulation
/// performed by `End.DT6` / `End.DX6` and natively by the kernel on the
/// hybrid-access CPE (§4.2).
pub fn decap_outer(packet: &mut Vec<u8>) -> OpResult<Ipv6Addr> {
    let inner_off = decap_offset(packet)?;
    packet.drain(..inner_off);
    outer_dst(packet)
}

/// Pushes an outer IPv6 header and the given SRH in front of the packet
/// (SRv6 "encap" mode). The outer source is `src`, the outer destination is
/// the SRH's current segment. Returns the new outer destination. Edits the
/// packet in place: a vector with spare capacity grows without allocating.
pub fn push_srh_encap(packet: &mut Vec<u8>, srh_bytes: &[u8], src: Ipv6Addr) -> OpResult<Ipv6Addr> {
    let srh_len =
        SegmentRoutingHeader::validate_raw(srh_bytes).map_err(|_| "invalid SRH for encapsulation")?;
    if srh_bytes[0] != proto::IPV6 {
        return Err("encap SRH must carry IPv6 as next header");
    }
    let dst = current_segment(srh_bytes);
    let outer = Ipv6Header::new(src, dst, proto::ROUTING, (srh_len + packet.len()) as u16, ENCAP_HOP_LIMIT);
    open_gap(packet, 0, IPV6_HEADER_LEN + srh_len);
    outer.write_to(packet);
    packet[IPV6_HEADER_LEN..IPV6_HEADER_LEN + srh_len].copy_from_slice(&srh_bytes[..srh_len]);
    Ok(dst)
}

/// Inserts the given SRH between the existing IPv6 header and its payload
/// (SRv6 "inline" mode). The SRH's last segment should be the original
/// destination; the outer destination is rewritten to the SRH's current
/// segment. Returns the new destination. Edits the packet in place, like
/// [`push_srh_encap`].
pub fn insert_srh_inline(packet: &mut Vec<u8>, srh_bytes: &[u8]) -> OpResult<Ipv6Addr> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let srh_len =
        SegmentRoutingHeader::validate_raw(srh_bytes).map_err(|_| "invalid SRH for inline insertion")?;
    let dst = current_segment(srh_bytes);
    adjust_payload_length(packet, srh_len as isize)?;
    open_gap(packet, IPV6_HEADER_LEN, srh_len);
    packet[IPV6_HEADER_LEN..IPV6_HEADER_LEN + srh_len].copy_from_slice(&srh_bytes[..srh_len]);
    // The inserted SRH must chain to whatever the IPv6 header carried.
    packet[IPV6_HEADER_LEN] = packet[NEXT_HEADER_OFFSET];
    packet[NEXT_HEADER_OFFSET] = proto::ROUTING;
    set_outer_dst(packet, dst)?;
    Ok(dst)
}

/// The current segment of an SRH that passed
/// [`SegmentRoutingHeader::validate_raw`] (which bounds `segments_left`).
fn current_segment(srh: &[u8]) -> Ipv6Addr {
    let off = 8 + 16 * usize::from(srh[SRH_SEGMENTS_LEFT_OFFSET]);
    Ipv6Addr::from(<[u8; 16]>::try_from(&srh[off..off + 16]).expect("validated segment list"))
}

/// Opens a `len`-byte gap at offset `at`, moving the bytes behind it back.
/// The growth lands in the vector's spare capacity, so a reused buffer
/// never reallocates.
fn open_gap(packet: &mut Vec<u8>, at: usize, len: usize) {
    let end = packet.len();
    packet.resize(end + len, 0);
    packet.copy_within(at..end, at + len);
}

/// Re-validates the outermost SRH after an eBPF program edited it, as
/// End.BPF does before handing the packet back to the IPv6 layer. Also
/// checks that the IPv6 payload length is consistent with the actual packet
/// length.
pub fn validate_after_bpf(packet: &[u8]) -> OpResult<()> {
    let (off, len) = find_srh(packet).ok_or("SRH disappeared")?;
    SegmentRoutingHeader::validate_raw(&packet[off..off + len]).map_err(|_| "SRH failed validation")?;
    let payload_len =
        u16::from_be_bytes([packet[PAYLOAD_LEN_OFFSET], packet[PAYLOAD_LEN_OFFSET + 1]]) as usize;
    if payload_len + IPV6_HEADER_LEN != packet.len() {
        return Err("IPv6 payload length inconsistent with packet length");
    }
    Ok(())
}

/// Updates the IPv6 payload-length field after the packet grew or shrank by
/// `delta` bytes behind the IPv6 header.
pub fn adjust_payload_length(packet: &mut [u8], delta: isize) -> OpResult<()> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let current = u16::from_be_bytes([packet[PAYLOAD_LEN_OFFSET], packet[PAYLOAD_LEN_OFFSET + 1]]) as isize;
    let updated = current + delta;
    if updated < 0 || updated > u16::MAX as isize {
        return Err("payload length out of range");
    }
    packet[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 2].copy_from_slice(&(updated as u16).to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::SegmentRoutingHeader;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn srv6_packet() -> Vec<u8> {
        let srh =
            SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::1"), addr("fc00::2"), addr("fc00::3")]);
        build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64).data().to_vec()
    }

    #[test]
    fn find_srh_locates_and_rejects() {
        let pkt = srv6_packet();
        let (off, len) = find_srh(&pkt).unwrap();
        assert_eq!(off, IPV6_HEADER_LEN);
        assert_eq!(len, 8 + 3 * 16);
        let plain = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64);
        assert!(find_srh(plain.data()).is_none());
        assert!(find_srh(&pkt[..45]).is_none());
    }

    #[test]
    fn advance_srh_updates_destination_and_segments_left() {
        let mut pkt = srv6_packet();
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::1"));
        let next = advance_srh(&mut pkt).unwrap();
        assert_eq!(next, addr("fc00::2"));
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::2"));
        let next = advance_srh(&mut pkt).unwrap();
        assert_eq!(next, addr("fc00::3"));
        assert_eq!(advance_srh(&mut pkt).unwrap_err(), "segments_left is zero");
    }

    #[test]
    fn advance_requires_an_srh() {
        let mut plain = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64).data().to_vec();
        assert_eq!(advance_srh(&mut plain).unwrap_err(), "packet has no SRH");
    }

    #[test]
    fn encap_then_decap_restores_inner_packet() {
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[9u8; 16], 64)
            .data()
            .to_vec();
        let mut pkt = inner.clone();
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a"), addr("fc00::b")]);
        let dst = push_srh_encap(&mut pkt, &srh.to_bytes(), addr("fc00::99")).unwrap();
        assert_eq!(dst, addr("fc00::a"));
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::a"));
        assert_eq!(outer_src(&pkt).unwrap(), addr("fc00::99"));
        assert_eq!(pkt.len(), inner.len() + IPV6_HEADER_LEN + srh.wire_len());
        // The outer payload length must cover SRH + inner packet.
        let parsed = Ipv6Header::parse(&pkt).unwrap();
        assert_eq!(parsed.payload_length as usize, srh.wire_len() + inner.len());

        let inner_dst = decap_outer(&mut pkt).unwrap();
        assert_eq!(inner_dst, addr("2001:db8::2"));
        assert_eq!(pkt, inner);
    }

    #[test]
    fn encap_rejects_srh_not_carrying_ipv6() {
        let mut pkt = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64).data().to_vec();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::a")]);
        assert!(push_srh_encap(&mut pkt, &srh.to_bytes(), addr("fc00::99")).is_err());
    }

    #[test]
    fn decap_requires_inner_ipv6() {
        let mut pkt = srv6_packet(); // inner is UDP, not IPv6
        assert!(decap_outer(&mut pkt).is_err());
    }

    #[test]
    fn inline_insertion_preserves_the_original_header_chain() {
        let original = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 7, 8, &[1u8; 24], 64)
            .data()
            .to_vec();
        let mut pkt = original.clone();
        // Path via fc00::a, then back to the original destination.
        let srh = SegmentRoutingHeader::from_path(proto::NONE, &[addr("fc00::a"), addr("2001:db8::2")]);
        let dst = insert_srh_inline(&mut pkt, &srh.to_bytes()).unwrap();
        assert_eq!(dst, addr("fc00::a"));
        let parsed = netpkt::ParsedPacket::parse(&pkt).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        let loc = parsed.require_srh().unwrap();
        // The inserted SRH chains to UDP, whatever its builder said.
        assert_eq!(loc.srh.next_header, proto::UDP);
        assert_eq!(parsed.transport_proto, proto::UDP);
        assert_eq!(parsed.outer.payload_length as usize, original.len() - IPV6_HEADER_LEN + loc.len);
    }

    #[test]
    fn hop_limit_decrement_and_exhaustion() {
        let mut pkt = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 2).data().to_vec();
        assert_eq!(decrement_hop_limit(&mut pkt).unwrap(), 1);
        assert_eq!(decrement_hop_limit(&mut pkt).unwrap(), 0);
        assert!(decrement_hop_limit(&mut pkt).is_err());
    }

    #[test]
    fn validate_after_bpf_checks_lengths() {
        let mut pkt = srv6_packet();
        validate_after_bpf(&pkt).unwrap();
        // Corrupt the SRH hdrlen: validation must fail.
        pkt[IPV6_HEADER_LEN + 1] = 200;
        assert!(validate_after_bpf(&pkt).is_err());
    }

    #[test]
    fn adjust_payload_length_tracks_growth_and_rejects_underflow() {
        let mut pkt = srv6_packet();
        let before = Ipv6Header::parse(&pkt).unwrap().payload_length;
        adjust_payload_length(&mut pkt, 8).unwrap();
        assert_eq!(Ipv6Header::parse(&pkt).unwrap().payload_length, before + 8);
        adjust_payload_length(&mut pkt, -8).unwrap();
        assert_eq!(Ipv6Header::parse(&pkt).unwrap().payload_length, before);
        assert!(adjust_payload_length(&mut pkt, -100_000).is_err());
    }
}
