//! The output oracle: every offered frame, in arrival order, through a
//! fresh single-thread `Seg6Datapath::process` with every program on the
//! interpreter (the VM reference), compared with what came out of the
//! system under test.

use crate::drive::{digest, Checker};
use crate::workload::Input;
use netpkt::PacketBuf;
use seg6_core::{DatapathStats, Seg6Datapath, Skb, Verdict};

/// What the comparison found. Every offered frame is counted once in
/// `matched` (forwarded as the oracle forwards it), `dropped` (dropped by
/// both), `missing`, `wrong` or `refused`; `extra` counts egress frames
/// that match no offered frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdicts {
    pub matched: u64,
    pub dropped: u64,
    pub missing: u64,
    pub wrong: u64,
    pub refused: u64,
    pub extra: u64,
}

impl Verdicts {
    pub fn failed(&self) -> u64 {
        self.missing + self.wrong + self.refused + self.extra
    }
}

/// Headroom for the oracle's packet buffers: room for the largest
/// encapsulation the workloads push (outer IPv6 header plus a 72-byte SRH).
const HEADROOM: usize = 256;

/// Replays sequence numbers `0..offered` through `oracle` and compares
/// each forwarded frame's digest with the recorded egress digest.
/// Frames the transport refused never reached the datapath, so the
/// oracle skips them too. Returns the comparison and the oracle's
/// datapath statistics (drop reasons included).
pub fn verify(
    input: &Input,
    offered: u64,
    checker: &Checker,
    refused: &[u64],
    oracle: &mut Seg6Datapath,
) -> (Verdicts, DatapathStats) {
    let mut v = Verdicts { extra: checker.extra, ..Default::default() };
    let mut refused = refused.iter().copied().peekable();
    for seq in 0..offered {
        let got = checker.digests[seq as usize];
        if refused.peek() == Some(&seq) {
            refused.next();
            v.refused += 1;
            if got != 0 {
                v.extra += 1;
            }
            continue;
        }
        let mut packet = PacketBuf::with_headroom(HEADROOM);
        packet.append(&input.frame(seq));
        let mut skb = Skb::new(packet);
        let expected = match oracle.process(&mut skb, 0) {
            Verdict::Forward { oif, .. } => {
                Some(digest(skb.packet.data(), input.masks[input.template_of(seq)], oif))
            }
            _ => None,
        };
        match (expected, got) {
            (Some(e), g) if g == e => v.matched += 1,
            (None, 0) => v.dropped += 1,
            (Some(_), 0) => v.missing += 1,
            _ => v.wrong += 1,
        }
    }
    (v, oracle.stats.clone())
}
