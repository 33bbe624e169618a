//! The BPF lightweight-tunnel hooks (`lwt_in` / `lwt_out` / `lwt_xmit`).
//!
//! These hooks pre-date the paper (§2.1 calls them "BPF LWT"); they run an
//! eBPF program for traffic matching a route, at the ingress or egress of
//! the IPv6 routing process. The paper uses the xmit hook together with its
//! new `bpf_lwt_push_encap` helper for the delay-monitoring ingress program
//! (§4.1) and the hybrid-access WRR scheduler (§4.2).

use crate::fib::RouterTables;
use crate::scratch::RunScratch;
use crate::seg6local::{invoke_bpf, ActionCtx};
use crate::skb::Skb;
use crate::srv6_ops;
use crate::verdict::ActionOutcome;
use ebpf_vm::helpers::HelperRegistry;
use ebpf_vm::program::LoadedProgram;
use netpkt::Ipv6Prefix;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Which point of the routing process the program is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LwtHook {
    /// After the route lookup, for packets addressed to the local host.
    In,
    /// After the route lookup, for locally generated packets.
    Out,
    /// Just before transmission of forwarded packets.
    Xmit,
}

/// A BPF program attached to a route.
#[derive(Debug, Clone)]
pub struct LwtBpfAttachment {
    /// Hook point.
    pub hook: LwtHook,
    /// The verified program. Its execution tier
    /// ([`LoadedProgram::exec_tier`]) decides how it runs; use
    /// [`LoadedProgram::set_exec_tier`] to pin one.
    pub prog: Arc<LoadedProgram>,
}

/// Routes with BPF programs attached, keyed by destination prefix.
#[derive(Debug, Default, Clone)]
pub struct LwtBpfTable {
    entries: Vec<(Ipv6Prefix, LwtBpfAttachment)>,
}

impl LwtBpfTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `attachment` to traffic towards `prefix`.
    pub fn insert(&mut self, prefix: Ipv6Prefix, attachment: LwtBpfAttachment) {
        match self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = attachment,
            None => self.entries.push((prefix, attachment)),
        }
    }

    /// Removes the attachment for `prefix`.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(p, _)| p != prefix);
        self.entries.len() != before
    }

    /// Finds the attachment matching `dst` at `hook` (longest prefix wins).
    pub fn lookup(&self, dst: Ipv6Addr, hook: LwtHook) -> Option<&LwtBpfAttachment> {
        self.entries
            .iter()
            .filter(|(p, a)| p.contains(dst) && a.hook == hook)
            .max_by_key(|(p, _)| p.len())
            .map(|(_, a)| a)
    }

    /// Number of attachments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no program is attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Runs a BPF LWT program on `skb`, reusing the caller's scratch state so
/// the per-packet path performs no heap allocation.
#[allow(clippy::too_many_arguments)] // mirrors ActionCtx's fields plus the skb and scratch
pub fn run_lwt_bpf(
    attachment: &LwtBpfAttachment,
    skb: &mut Skb,
    local_addr: Ipv6Addr,
    tables: &Arc<RouterTables>,
    helpers: &HelperRegistry,
    now_ns: u64,
    cpu: u32,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    let actx = ActionCtx { local_sid: local_addr, tables, helpers, now_ns, cpu };
    invoke_bpf(&attachment.prog, skb, &actx, scratch, |packet| {
        Ok(srv6_ops::find_srh(packet).map(|(off, _)| off))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::seg6_helper_registry;
    use crate::verdict::DropReason;
    use ebpf_vm::asm::assemble;
    use ebpf_vm::program::{load, Program, ProgramType};
    use netpkt::packet::build_ipv6_udp_packet;
    use std::collections::HashMap;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn load_xmit(source: &str, helpers: &HelperRegistry) -> Arc<LoadedProgram> {
        let prog = Program::new("lwt", ProgramType::LwtXmit, assemble(source).unwrap());
        load(prog, &HashMap::new(), helpers).unwrap()
    }

    fn plain_skb() -> Skb {
        Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn table_lookup_filters_by_hook() {
        let helpers = seg6_helper_registry();
        let prog = load_xmit("mov64 r0, 0\nexit", &helpers);
        let mut table = LwtBpfTable::new();
        table.insert(
            "2001:db8::/32".parse().unwrap(),
            LwtBpfAttachment { hook: LwtHook::Xmit, prog: prog.clone() },
        );
        assert!(table.lookup(addr("2001:db8::5"), LwtHook::Xmit).is_some());
        assert!(table.lookup(addr("2001:db8::5"), LwtHook::In).is_none());
        assert!(table.lookup(addr("2abc::1"), LwtHook::Xmit).is_none());
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        assert!(table.remove(&"2001:db8::/32".parse().unwrap()));
    }

    #[test]
    fn bpf_ok_lets_the_packet_continue() {
        let helpers = seg6_helper_registry();
        let tables = Arc::new(RouterTables::new());
        let prog = load_xmit("mov64 r0, 0\nexit", &helpers);
        let attachment = LwtBpfAttachment { hook: LwtHook::Xmit, prog };
        let mut skb = plain_skb();
        let outcome = run_lwt_bpf(
            &attachment,
            &mut skb,
            addr("fc00::99"),
            &tables,
            &helpers,
            0,
            0,
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("2001:db8::2")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bpf_drop_is_honoured() {
        let helpers = seg6_helper_registry();
        let tables = Arc::new(RouterTables::new());
        let prog = load_xmit("mov64 r0, 2\nexit", &helpers);
        let attachment = LwtBpfAttachment { hook: LwtHook::Xmit, prog };
        let mut skb = plain_skb();
        assert_eq!(
            run_lwt_bpf(
                &attachment,
                &mut skb,
                addr("fc00::99"),
                &tables,
                &helpers,
                0,
                0,
                &mut RunScratch::new()
            ),
            ActionOutcome::Drop(DropReason::BpfDrop)
        );
    }

    #[test]
    fn seg6local_only_helpers_are_rejected_at_load_time() {
        // An lwt_xmit program calling bpf_lwt_seg6_adjust_srh must not load.
        let helpers = seg6_helper_registry();
        let insns = assemble("mov64 r2, 8\nmov64 r3, 8\ncall 75\nexit").unwrap();
        let prog = Program::new("bad", ProgramType::LwtXmit, insns);
        assert!(load(prog, &HashMap::new(), &helpers).is_err());
    }
}
