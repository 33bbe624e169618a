//! The `seg6` lightweight tunnel: SRv6 transit behaviours.
//!
//! Transit behaviours apply to packets *without* an SRH that match a route:
//! either the SRH is inserted directly into the IPv6 packet ("inline" mode)
//! or the packet is encapsulated in an outer IPv6 header carrying the SRH
//! ("encap" mode). This is the static counterpart of what a BPF LWT program
//! does with `bpf_lwt_push_encap`; the Linux implementation the paper builds
//! on exposes both through the `seg6` lightweight tunnel.

use crate::scratch::RunScratch;
use crate::skb::Skb;
use crate::srv6_ops;
use crate::verdict::{ActionOutcome, DropReason};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::Ipv6Prefix;
use std::net::Ipv6Addr;

/// How the SRH is attached to matching traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitMode {
    /// Encapsulate in an outer IPv6 header carrying the SRH.
    Encap,
    /// Insert the SRH into the existing IPv6 header chain.
    Inline,
}

/// A transit behaviour: the SRH to attach and how.
#[derive(Debug, Clone)]
pub struct TransitBehaviour {
    /// Attachment mode.
    pub mode: TransitMode,
    /// The SRH to attach (in wire order).
    pub srh: SegmentRoutingHeader,
}

impl TransitBehaviour {
    /// An encap-mode behaviour routing matching traffic through `path`
    /// (given in visiting order).
    pub fn encap_through(path: &[Ipv6Addr]) -> Self {
        TransitBehaviour {
            mode: TransitMode::Encap,
            srh: SegmentRoutingHeader::from_path(netpkt::proto::IPV6, path),
        }
    }

    /// An inline-mode behaviour routing matching traffic through `path`.
    /// The original destination must be appended by the caller as the last
    /// segment, as SRv6 inline insertion requires.
    pub fn inline_through(path: &[Ipv6Addr]) -> Self {
        TransitBehaviour {
            mode: TransitMode::Inline,
            srh: SegmentRoutingHeader::from_path(netpkt::proto::NONE, path),
        }
    }
}

/// The table of transit behaviours installed on a node, keyed by
/// destination prefix (like `ip -6 route add <prefix> encap seg6 ...`).
#[derive(Debug, Default, Clone)]
pub struct TransitTable {
    entries: Vec<(Ipv6Prefix, TransitBehaviour)>,
}

impl TransitTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs `behaviour` for traffic towards `prefix`.
    pub fn insert(&mut self, prefix: Ipv6Prefix, behaviour: TransitBehaviour) {
        match self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = behaviour,
            None => self.entries.push((prefix, behaviour)),
        }
    }

    /// Removes the behaviour installed for `prefix`.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(p, _)| p != prefix);
        self.entries.len() != before
    }

    /// Finds the behaviour matching `dst` (longest prefix wins).
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<&TransitBehaviour> {
        self.entries.iter().filter(|(p, _)| p.contains(dst)).max_by_key(|(p, _)| p.len()).map(|(_, b)| b)
    }

    /// Number of installed behaviours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Applies a transit behaviour to a packet, returning the new destination
/// the datapath must forward towards.
pub fn apply_transit(
    behaviour: &TransitBehaviour,
    skb: &mut Skb,
    local_addr: Ipv6Addr,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    attach_srh(skb, &behaviour.srh, scratch, |packet, srh| match behaviour.mode {
        TransitMode::Encap => srv6_ops::push_srh_encap(packet, srh, local_addr),
        TransitMode::Inline => {
            // For inline insertion the original destination becomes the last
            // segment so the packet still reaches it after the detour.
            let original_dst = srv6_ops::outer_dst(packet)?;
            if behaviour.srh.segments.first() != Some(&original_dst) {
                prepend_final_segment(srh, original_dst);
            }
            srv6_ops::insert_srh_inline(packet, srh)
        }
    })
}

/// The packet-growing SRH behaviours (transit, End.B6, End.B6.Encaps):
/// the packet is copied into the scratch buffer, `srh` is serialised into
/// the reused SRH buffer, `attach` edits the copy in place and returns the
/// new destination, and the result is committed back into the skb. Once
/// the buffers are warm, nothing allocates.
pub(crate) fn attach_srh(
    skb: &mut Skb,
    srh: &SegmentRoutingHeader,
    scratch: &mut RunScratch,
    attach: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>) -> srv6_ops::OpResult<Ipv6Addr>,
) -> ActionOutcome {
    let RunScratch { pkt: packet, srh: srh_bytes, .. } = scratch;
    packet.clear();
    packet.extend_from_slice(skb.packet.data());
    srh_bytes.clear();
    srh.write_to(srh_bytes);
    match attach(packet, srh_bytes) {
        Ok(dst) => {
            skb.packet.set_data(packet);
            ActionOutcome::Forward { dst, route_override: Default::default() }
        }
        Err(_) => ActionOutcome::Drop(DropReason::Malformed),
    }
}

/// Adds `segment` as the final segment (wire index 0) of the serialised
/// SRH in `srh` and points `segments_left` at the first one, as building
/// the SRH from the extended path would. An SRH already at the size limit
/// wraps its length fields and then fails validation — a counted drop.
fn prepend_final_segment(srh: &mut Vec<u8>, segment: Ipv6Addr) {
    srh.splice(8..8, segment.octets());
    srh[1] = srh[1].wrapping_add(2);
    srh[4] = srh[4].wrapping_add(1);
    srh[3] = srh[4];
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::packet::build_ipv6_udp_packet;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn plain_skb() -> Skb {
        Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn table_lookup_prefers_longest_prefix() {
        let mut table = TransitTable::new();
        table.insert("2001:db8::/32".parse().unwrap(), TransitBehaviour::encap_through(&[addr("fc00::1")]));
        table.insert(
            "2001:db8:0:1::/64".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::2")]),
        );
        let b = table.lookup(addr("2001:db8:0:1::9")).unwrap();
        assert_eq!(b.srh.current_segment(), Some(addr("fc00::2")));
        let b = table.lookup(addr("2001:db8:9::9")).unwrap();
        assert_eq!(b.srh.current_segment(), Some(addr("fc00::1")));
        assert!(table.lookup(addr("2abc::1")).is_none());
        assert_eq!(table.len(), 2);
        assert!(table.remove(&"2001:db8::/32".parse().unwrap()));
        assert!(!table.remove(&"2001:db8::/32".parse().unwrap()));
    }

    #[test]
    fn encap_mode_wraps_and_targets_first_segment() {
        let mut skb = plain_skb();
        let before = skb.len();
        let behaviour = TransitBehaviour::encap_through(&[addr("fc00::a"), addr("fc00::b")]);
        let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"), &mut RunScratch::new());
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fc00::a")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(skb.len() > before);
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        assert_eq!(parsed.outer.src, addr("fc00::99"));
        assert!(parsed.inner.is_some());
    }

    #[test]
    fn inline_mode_keeps_original_destination_reachable() {
        let mut skb = plain_skb();
        let behaviour = TransitBehaviour::inline_through(&[addr("fc00::a")]);
        let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"), &mut RunScratch::new());
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fc00::a")),
            other => panic!("unexpected {other:?}"),
        }
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        let srh = &parsed.require_srh().unwrap().srh;
        // The original destination is the final segment of the inserted SRH.
        assert_eq!(srh.segments[0], addr("2001:db8::2"));
        assert_eq!(srh.path().last().copied(), Some(addr("2001:db8::2")));
        assert!(parsed.inner.is_none());
    }
}
