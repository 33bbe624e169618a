//! The `seg6local` lightweight tunnel: SRv6 endpoint behaviours bound to
//! local SIDs, including the paper's contribution — the `End.BPF` action.
//!
//! A router advertises segments (IPv6 addresses) and installs, for each of
//! them, the behaviour to execute when a packet's current segment matches:
//! the static behaviours (`End`, `End.X`, `End.T`, `End.DX6`, `End.DT6`,
//! `End.B6`, `End.B6.Encaps`) are re-implemented here from their SRv6
//! network-programming definitions, and `End.BPF` advances the SRH and then
//! hands the packet to an eBPF program exactly as §3 of the paper
//! describes.

use crate::ctx;
use crate::env::Seg6Env;
use crate::fib::{flow_hash, RouterTables, TableId, MAIN_TABLE};
use crate::scratch::RunScratch;
use crate::skb::{RouteOverride, Skb};
use crate::srv6_ops;
use crate::transit::attach_srh;
use crate::verdict::{ActionOutcome, DropReason};
use ebpf_vm::helpers::HelperRegistry;
use ebpf_vm::program::{retcode, LoadedProgram};
use ebpf_vm::vm::RunContext;
use netpkt::srh::SegmentRoutingHeader;
use netpkt::{Ipv6Header, Ipv6Prefix};
use std::net::Ipv6Addr;
use std::sync::Arc;

/// A seg6local behaviour bound to a SID.
#[derive(Debug, Clone)]
pub enum Seg6LocalAction {
    /// `End`: advance to the next segment and forward.
    End,
    /// `End.X`: advance and forward to a specific layer-3 next hop.
    EndX {
        /// The next hop to forward to.
        nexthop: Ipv6Addr,
    },
    /// `End.T`: advance and look the next segment up in a specific table
    /// (a numeric id or a VRF registered with
    /// [`RouterTables::register_vrf`]).
    EndT {
        /// Routing table id.
        table: TableId,
    },
    /// `End.DX6`: decapsulate and forward the inner packet to a next hop.
    EndDX6 {
        /// The next hop to forward the inner packet to.
        nexthop: Ipv6Addr,
    },
    /// `End.DT6`: decapsulate and look the inner destination up in a table
    /// (a numeric id or a VRF registered with
    /// [`RouterTables::register_vrf`]).
    EndDT6 {
        /// Routing table id.
        table: TableId,
    },
    /// `End.B6`: insert a new SRH on top of the existing one.
    EndB6 {
        /// The SRH to insert (segments in wire order).
        srh: SegmentRoutingHeader,
    },
    /// `End.B6.Encaps`: encapsulate in an outer IPv6 header with a new SRH.
    EndB6Encaps {
        /// The SRH of the outer encapsulation.
        srh: SegmentRoutingHeader,
    },
    /// `End.BPF`: advance to the next segment, then run the attached eBPF
    /// program (the paper's new action). The execution tier comes from the
    /// program itself ([`LoadedProgram::exec_tier`], native where the host
    /// supports it); use [`LoadedProgram::set_exec_tier`] to pin one.
    EndBpf {
        /// The verified program to execute.
        prog: Arc<LoadedProgram>,
    },
}

impl Seg6LocalAction {
    /// An `End.T` behaviour forwarding via `table` — pass the id returned
    /// by [`RouterTables::register_vrf`] to route through a named VRF.
    pub fn end_t(table: TableId) -> Self {
        Seg6LocalAction::EndT { table }
    }

    /// An `End.DT6` behaviour decapsulating and looking the inner
    /// destination up in `table` (numeric or VRF-registered).
    pub fn end_dt6(table: TableId) -> Self {
        Seg6LocalAction::EndDT6 { table }
    }

    /// Short name, as `ip -6 route` would print it.
    pub fn name(&self) -> &'static str {
        match self {
            Seg6LocalAction::End => "End",
            Seg6LocalAction::EndX { .. } => "End.X",
            Seg6LocalAction::EndT { .. } => "End.T",
            Seg6LocalAction::EndDX6 { .. } => "End.DX6",
            Seg6LocalAction::EndDT6 { .. } => "End.DT6",
            Seg6LocalAction::EndB6 { .. } => "End.B6",
            Seg6LocalAction::EndB6Encaps { .. } => "End.B6.Encaps",
            Seg6LocalAction::EndBpf { .. } => "End.BPF",
        }
    }
}

/// The "My SID" table: local SIDs and their behaviours.
#[derive(Debug, Default, Clone)]
pub struct LocalSidTable {
    entries: Vec<(Ipv6Prefix, Seg6LocalAction)>,
}

impl LocalSidTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `action` to `sid` (longest prefix wins on lookup; SIDs are
    /// usually /128).
    pub fn insert(&mut self, sid: Ipv6Prefix, action: Seg6LocalAction) {
        match self.entries.iter_mut().find(|(p, _)| *p == sid) {
            Some(slot) => slot.1 = action,
            None => self.entries.push((sid, action)),
        }
    }

    /// Removes the binding for `sid`.
    pub fn remove(&mut self, sid: &Ipv6Prefix) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(p, _)| p != sid);
        self.entries.len() != before
    }

    /// Finds the action bound to `dst`, if any.
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<(&Ipv6Prefix, &Seg6LocalAction)> {
        self.entries.iter().filter(|(p, _)| p.contains(dst)).max_by_key(|(p, _)| p.len()).map(|(p, a)| (p, a))
    }

    /// Number of installed SIDs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the installed SIDs.
    pub fn iter(&self) -> impl Iterator<Item = &(Ipv6Prefix, Seg6LocalAction)> {
        self.entries.iter()
    }
}

/// Everything an action needs from the router it runs on.
pub struct ActionCtx<'a> {
    /// The SID that matched (used as the source of pushed encapsulations).
    pub local_sid: Ipv6Addr,
    /// The router's FIB tables.
    pub tables: &'a Arc<RouterTables>,
    /// Helper registry used to run End.BPF programs.
    pub helpers: &'a HelperRegistry,
    /// Current time in nanoseconds.
    pub now_ns: u64,
    /// Logical CPU (worker shard) executing the action; End.BPF programs
    /// see it as their processor id and per-CPU map slot.
    pub cpu: u32,
}

/// Applies a seg6local action to `skb`. `scratch` supplies the reusable VM
/// state and packet/context buffers; no per-packet allocation happens here
/// once the buffers are warm.
pub fn apply_action(
    action: &Seg6LocalAction,
    skb: &mut Skb,
    actx: &ActionCtx<'_>,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    match action {
        Seg6LocalAction::End => {
            with_advance(skb, |dst| ActionOutcome::Forward { dst, route_override: RouteOverride::default() })
        }
        Seg6LocalAction::EndX { nexthop } => with_advance(skb, |dst| ActionOutcome::Forward {
            dst,
            route_override: RouteOverride { nexthop: Some(*nexthop), ..Default::default() },
        }),
        Seg6LocalAction::EndT { table } => with_advance(skb, |dst| ActionOutcome::Forward {
            dst,
            route_override: RouteOverride { table: Some(*table), ..Default::default() },
        }),
        Seg6LocalAction::EndDX6 { nexthop } => match decap_in_place(skb) {
            Ok(inner_dst) => ActionOutcome::Forward {
                dst: inner_dst,
                route_override: RouteOverride { nexthop: Some(*nexthop), ..Default::default() },
            },
            Err(_) => ActionOutcome::Drop(DropReason::DecapFailed),
        },
        Seg6LocalAction::EndDT6 { table } => match decap_in_place(skb) {
            Ok(inner_dst) => ActionOutcome::Forward {
                dst: inner_dst,
                route_override: RouteOverride { table: Some(*table), ..Default::default() },
            },
            Err(_) => ActionOutcome::Drop(DropReason::DecapFailed),
        },
        Seg6LocalAction::EndB6 { srh } => {
            attach_srh(skb, srh, scratch, |packet, srh| srv6_ops::insert_srh_inline(packet, srh))
        }
        Seg6LocalAction::EndB6Encaps { srh } => {
            attach_srh(skb, srh, scratch, |packet, srh| srv6_ops::push_srh_encap(packet, srh, actx.local_sid))
        }
        Seg6LocalAction::EndBpf { prog } => run_end_bpf(skb, prog, actx, scratch),
    }
}

/// Shared "endpoint" precondition handling: the packet must carry an SRH
/// with `segments_left > 0`; the SRH is advanced **in place** (it never
/// changes size) and `then` builds the outcome from the new destination.
fn with_advance(skb: &mut Skb, then: impl FnOnce(Ipv6Addr) -> ActionOutcome) -> ActionOutcome {
    match srv6_ops::advance_srh(skb.packet.data_mut()) {
        Ok(dst) => then(dst),
        Err(err) => ActionOutcome::Drop(advance_drop_reason(err)),
    }
}

/// The drop reason an endpoint reports when the SRH advance fails.
fn advance_drop_reason(err: &str) -> DropReason {
    match err {
        "packet has no SRH" => DropReason::NoSrh,
        "segments_left is zero" => DropReason::SegmentsLeftZero,
        _ => DropReason::Malformed,
    }
}

/// Decapsulation as an `skb_pull`: validate, then move the packet's start
/// forward — the headroom absorbs the removed headers, nothing reallocates.
fn decap_in_place(skb: &mut Skb) -> Result<Ipv6Addr, &'static str> {
    let inner_off = srv6_ops::decap_offset(skb.packet.data())?;
    skb.packet.pull(inner_off).map_err(|_| "pull failed")?;
    srv6_ops::outer_dst(skb.packet.data())
}

/// The `End.BPF` action (§3 of the paper): advance the SRH, run the
/// program, validate the SRH if it was edited, and honour the program's
/// return code (`BPF_OK` / `BPF_DROP` / `BPF_REDIRECT`).
pub fn run_end_bpf(
    skb: &mut Skb,
    prog: &LoadedProgram,
    actx: &ActionCtx<'_>,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    invoke_bpf(prog, skb, actx, scratch, |packet| {
        srv6_ops::advance_srh(packet).map_err(advance_drop_reason)?;
        srv6_ops::find_srh(packet).map(|(off, _)| Some(off)).ok_or(DropReason::NoSrh)
    })
}

/// The program invocation both BPF hooks (End.BPF and the LWT hooks)
/// share. Helpers may resize the packet, so the program runs against the
/// reusable scratch copy and commits back into the skb on success.
/// `prepare` edits that copy before the run and returns the SRH offset the
/// seg6 helpers work on. Then: build the environment and context, run the
/// program on the reused VM state, re-validate an SRH the program edited
/// (only End.BPF programs may), write the packet and the context's
/// writable fields back, and map the return code.
pub(crate) fn invoke_bpf(
    prog: &LoadedProgram,
    skb: &mut Skb,
    actx: &ActionCtx<'_>,
    scratch: &mut RunScratch,
    prepare: impl FnOnce(&mut [u8]) -> Result<Option<usize>, DropReason>,
) -> ActionOutcome {
    let RunScratch { state, ctx: ctx_bytes, pkt: packet, .. } = scratch;
    packet.clear();
    packet.extend_from_slice(skb.packet.data());
    let srh_offset = match prepare(packet) {
        Ok(off) => off,
        Err(reason) => return ActionOutcome::Drop(reason),
    };
    let header = match Ipv6Header::parse(packet) {
        Ok(h) => h,
        Err(_) => return ActionOutcome::Drop(DropReason::Malformed),
    };
    let mut env = Seg6Env::new(actx.local_sid, Arc::clone(actx.tables), actx.now_ns)
        .with_flow_hash(flow_hash(header.src, header.dst, header.flow_label))
        .with_cpu(actx.cpu);
    env.srh_offset = srh_offset;
    ctx::build_context_into(skb, ctx_bytes);
    let result = {
        let mut rc = RunContext { ctx: ctx_bytes.as_mut_slice(), packet, env: &mut env };
        ebpf_vm::vm::run_program_with_state(prog, actx.helpers, &mut rc, prog.exec_tier(), state)
    };
    let code = match result {
        Ok(code) => code,
        Err(_) => return ActionOutcome::Drop(DropReason::BpfError),
    };
    if env.out.srh_modified && !env.out.decapped && srv6_ops::validate_after_bpf(packet).is_err() {
        return ActionOutcome::Drop(DropReason::SrhValidationFailed);
    }
    let dst = match srv6_ops::outer_dst(packet) {
        Ok(dst) => dst,
        Err(_) => return ActionOutcome::Drop(DropReason::Malformed),
    };
    skb.packet.set_data(packet);
    ctx::read_back(ctx_bytes, skb);
    match code {
        retcode::BPF_OK => ActionOutcome::Forward { dst, route_override: RouteOverride::default() },
        retcode::BPF_REDIRECT => ActionOutcome::Forward { dst, route_override: env.out.route_override },
        retcode::BPF_DROP => ActionOutcome::Drop(DropReason::BpfDrop),
        _ => ActionOutcome::Drop(DropReason::BpfError),
    }
}

/// Looks up `table` falling back to the main table when the id is zero.
pub fn effective_table(table: Option<TableId>) -> TableId {
    match table {
        Some(0) | None => MAIN_TABLE,
        Some(id) => id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::seg6_helper_registry;
    use ebpf_vm::asm::assemble;
    use ebpf_vm::program::{load, Program, ProgramType};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use std::collections::HashMap;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn srv6_skb(path: &[&str]) -> Skb {
        let segments: Vec<Ipv6Addr> = path.iter().map(|s| addr(s)).collect();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &segments);
        Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
    }

    fn encapsulated_skb() -> Skb {
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[0u8; 8], 64)
            .data()
            .to_vec();
        let mut packet = inner;
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::11")]);
        srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();
        Skb::new(netpkt::PacketBuf::from_slice(&packet))
    }

    fn actx<'a>(tables: &'a Arc<RouterTables>, helpers: &'a HelperRegistry) -> ActionCtx<'a> {
        ActionCtx { local_sid: addr("fc00::11"), tables, helpers, now_ns: 1_000, cpu: 0 }
    }

    fn load_seg6_prog(source: &str, helpers: &HelperRegistry) -> Arc<LoadedProgram> {
        let insns = assemble(source).unwrap();
        let prog = Program::new("test", ProgramType::LwtSeg6Local, insns);
        load(prog, &HashMap::new(), helpers).unwrap()
    }

    #[test]
    fn local_sid_table_longest_prefix_lookup() {
        let mut table = LocalSidTable::new();
        table.insert("fc00::/64".parse().unwrap(), Seg6LocalAction::End);
        table.insert("fc00::1".parse().unwrap(), Seg6LocalAction::EndT { table: 7 });
        assert_eq!(table.len(), 2);
        let (_, action) = table.lookup(addr("fc00::1")).unwrap();
        assert_eq!(action.name(), "End.T");
        let (_, action) = table.lookup(addr("fc00::2")).unwrap();
        assert_eq!(action.name(), "End");
        assert!(table.lookup(addr("2001::1")).is_none());
        assert!(table.remove(&"fc00::1".parse().unwrap()));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn end_advances_and_requests_default_lookup() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome =
            apply_action(&Seg6LocalAction::End, &mut skb, &actx(&tables, &helpers), &mut RunScratch::new());
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("fc00::22"));
                assert!(!route_override.is_set());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // The packet's destination was rewritten.
        assert_eq!(srv6_ops::outer_dst(skb.packet.data()).unwrap(), addr("fc00::22"));
    }

    #[test]
    fn end_requires_srh_and_remaining_segments() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut plain = Skb::new(build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64));
        assert_eq!(
            apply_action(&Seg6LocalAction::End, &mut plain, &actx(&tables, &helpers), &mut RunScratch::new()),
            ActionOutcome::Drop(DropReason::NoSrh)
        );
        let mut last = srv6_skb(&["fc00::11"]);
        assert_eq!(
            apply_action(&Seg6LocalAction::End, &mut last, &actx(&tables, &helpers), &mut RunScratch::new()),
            ActionOutcome::Drop(DropReason::SegmentsLeftZero)
        );
    }

    #[test]
    fn end_x_and_end_t_install_overrides() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndX { nexthop: addr("fe80::1") },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { route_override, .. } => {
                assert_eq!(route_override.nexthop, Some(addr("fe80::1")))
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndT { table: 9 },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { route_override, .. } => assert_eq!(route_override.table, Some(9)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn end_dt6_decapsulates() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = encapsulated_skb();
        let before = skb.len();
        let outcome = apply_action(
            &Seg6LocalAction::EndDT6 { table: MAIN_TABLE },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("2001:db8::2"));
                assert_eq!(route_override.table, Some(MAIN_TABLE));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(skb.len() < before);
        // Decapsulating a non-encapsulated packet fails.
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndDT6 { table: MAIN_TABLE },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new()
            ),
            ActionOutcome::Drop(DropReason::DecapFailed)
        );
    }

    #[test]
    fn end_b6_encaps_wraps_the_packet() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let before = skb.len();
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fd00::1"), addr("fd00::2")]);
        let outcome = apply_action(
            &Seg6LocalAction::EndB6Encaps { srh: srh.clone() },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fd00::1")),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(skb.len(), before + 40 + srh.wire_len());
    }

    #[test]
    fn end_bpf_ok_performs_default_forwarding() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        // The simplest possible program: return BPF_OK (the paper's "End"
        // written in BPF, 1 SLOC).
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndBpf { prog },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("fc00::22"));
                assert!(!route_override.is_set());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn end_bpf_drop_is_honoured() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 2\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::BpfDrop)
        );
    }

    #[test]
    fn end_bpf_requires_remaining_segments() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::SegmentsLeftZero)
        );
    }

    #[test]
    fn end_bpf_unknown_return_code_drops() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 99\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::BpfError)
        );
    }

    #[test]
    fn end_bpf_all_exec_tiers_agree() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        for tier in ebpf_vm::ExecTier::ALL {
            prog.set_exec_tier(tier);
            let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
            let outcome = apply_action(
                &Seg6LocalAction::EndBpf { prog: prog.clone() },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            );
            assert!(matches!(outcome, ActionOutcome::Forward { .. }), "tier {}", tier.name());
        }
    }

    #[test]
    fn action_names_and_effective_table() {
        assert_eq!(Seg6LocalAction::End.name(), "End");
        assert_eq!(Seg6LocalAction::EndDT6 { table: 1 }.name(), "End.DT6");
        assert_eq!(effective_table(None), MAIN_TABLE);
        assert_eq!(effective_table(Some(0)), MAIN_TABLE);
        assert_eq!(effective_table(Some(42)), 42);
    }
}
