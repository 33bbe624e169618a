//! The per-node SRv6 datapath: ties the FIB, the seg6local My-SID table,
//! the seg6 transit behaviours and the BPF LWT hooks together, mirroring
//! the order in which the Linux IPv6 layer consults them.
//!
//! One [`Seg6Datapath`] instance is what a router node in `simnet` runs for
//! every received packet, and what the Figure 2 / Figure 3 benchmarks drive
//! directly (the lab in §3.2 measures exactly this single-router, single
//! core forwarding path).

use crate::fib::{flow_hash, FibCache, LookupResult, Nexthop, RouterTables, TableId, MAIN_TABLE};
use crate::lwt_bpf::{run_lwt_bpf, LwtBpfAttachment, LwtBpfTable, LwtHook};
use crate::scratch::RunScratch;
use crate::seg6local::{apply_action, ActionCtx, LocalSidTable, Seg6LocalAction};
use crate::skb::{RouteOverride, Skb};
use crate::srv6_ops;
use crate::transit::{apply_transit, TransitBehaviour, TransitTable};
use crate::verdict::{ActionOutcome, DropReason, Verdict};
use ebpf_vm::helpers::HelperRegistry;
use netpkt::{Ipv6Header, Ipv6Prefix};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Counters maintained by the datapath.
#[derive(Debug, Default, Clone)]
pub struct DatapathStats {
    /// Packets handed to [`Seg6Datapath::process`].
    pub received: u64,
    /// Packets that left with a [`Verdict::Forward`].
    pub forwarded: u64,
    /// Packets delivered to the local host stack.
    pub local_delivered: u64,
    /// Packets dropped, by reason.
    pub dropped: HashMap<DropReason, u64>,
    /// seg6local actions executed.
    pub seg6local_invocations: u64,
    /// End.BPF / LWT-BPF programs executed.
    pub bpf_invocations: u64,
    /// Transit behaviours (SRH insertions/encapsulations) applied.
    pub transit_applied: u64,
}

impl DatapathStats {
    /// Total number of dropped packets.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Number of packets dropped for `reason`.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped.get(&reason).copied().unwrap_or(0)
    }

    /// Records one processed packet's outcome — the only place
    /// [`Seg6Datapath`] counts a packet, exposed for consumers that
    /// execute packets elsewhere (worker-pool shard forks) but keep an
    /// aggregate node-level view. Keeping this here means a new counter or
    /// work class is added in exactly one place.
    pub fn record(&mut self, verdict: &Verdict, work: &WorkSummary) {
        self.received += 1;
        if work.seg6local {
            self.seg6local_invocations += 1;
        }
        if work.bpf {
            self.bpf_invocations += 1;
        }
        if work.transit {
            self.transit_applied += 1;
        }
        match verdict {
            Verdict::Forward { .. } => self.forwarded += 1,
            Verdict::LocalDeliver => self.local_delivered += 1,
            Verdict::Drop(reason) => *self.dropped.entry(*reason).or_insert(0) += 1,
        }
    }
}

/// What the datapath did to one packet of a batch, summarised as the work
/// classes CPU cost models charge for (the simulator's `CpuProfile` prices
/// exactly these). Reported by the execution step itself and counted into
/// [`DatapathStats`] once per packet, so a batch consumer never has to
/// wrap a packet in its own stats snapshot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkSummary {
    /// A seg6local action ran.
    pub seg6local: bool,
    /// An eBPF program ran (End.BPF or an LWT hook).
    pub bpf: bool,
    /// A transit behaviour (SRH insertion/encapsulation) was applied.
    pub transit: bool,
}

/// The per-packet result of [`Seg6Datapath::process_batch_verdicts_into`]:
/// the forwarding verdict plus the work the packet cost. This is the batch
/// emit surface the worker-pool runtime and the simulator consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerdict {
    /// The forwarding verdict, identical to what [`Seg6Datapath::process`]
    /// returns for the same packet.
    pub verdict: Verdict,
    /// The work classes this packet exercised.
    pub work: WorkSummary,
}

/// How a destination address dispatches inside the datapath. Classification
/// depends only on the destination and the (batch-constant) tables, which
/// is what lets [`Seg6Datapath::process_batch_verdicts_into`] compute it
/// once per destination run instead of once per packet. Every variant
/// **borrows** from the configuration tables — classifying a packet clones
/// nothing, however large the attached behaviour (program `Arc`s, SRH
/// templates) is.
enum Dispatch<'a> {
    /// A local SID matched: run its seg6local behaviour.
    Seg6Local {
        /// The matched SID (source address of pushed encapsulations).
        local_sid: Option<Ipv6Addr>,
        /// The behaviour to execute.
        action: &'a Seg6LocalAction,
    },
    /// Local delivery, possibly through an lwt_in program.
    LocalIn(Option<&'a LwtBpfAttachment>),
    /// A BPF LWT xmit program is attached to the route.
    Xmit(&'a LwtBpfAttachment),
    /// A static seg6 transit behaviour applies.
    Transit(&'a TransitBehaviour),
    /// Plain FIB forwarding.
    Forward,
}

/// Decides how `dst` dispatches, in the order the IPv6 receive path
/// consults its tables: seg6local SIDs, local delivery, LWT xmit programs,
/// seg6 transit behaviours, then the plain FIB. A free function over the
/// individual tables (rather than a `&self` method) so the returned
/// borrows stay disjoint from the mutable state (`stats`, `scratch`) the
/// execution step needs.
fn classify_dst<'a>(
    local_sids: &'a LocalSidTable,
    lwt_bpf: &'a LwtBpfTable,
    transit: &'a TransitTable,
    local_addr: Ipv6Addr,
    host_addrs: &[Ipv6Addr],
    dst: Ipv6Addr,
) -> Dispatch<'a> {
    if let Some((sid_prefix, action)) = local_sids.lookup(dst) {
        let local_sid = (sid_prefix.len() == 128).then(|| sid_prefix.addr());
        return Dispatch::Seg6Local { local_sid, action };
    }
    if dst == local_addr || host_addrs.contains(&dst) {
        return Dispatch::LocalIn(lwt_bpf.lookup(dst, LwtHook::In));
    }
    if let Some(attachment) = lwt_bpf.lookup(dst, LwtHook::Xmit) {
        return Dispatch::Xmit(attachment);
    }
    if let Some(behaviour) = transit.lookup(dst) {
        return Dispatch::Transit(behaviour);
    }
    Dispatch::Forward
}

/// A one-entry cache of the last FIB lookup, scoped to one batch (the
/// tables cannot change while a batch holds `&mut self`). Only
/// flow-hash-invariant results — single-path routes and misses — are
/// cached; ECMP routes are re-selected per packet, keeping multipath
/// spreading intact. This is the batch-scoped analogue of the kernel's
/// dst cache.
#[derive(Default)]
struct RouteCache {
    entry: Option<(u32, Ipv6Addr, Option<LookupResult>)>,
}

/// The SRv6 datapath of one node.
pub struct Seg6Datapath {
    /// Address identifying this node (used as encapsulation source and as a
    /// local-delivery address).
    pub local_addr: Ipv6Addr,
    /// Additional addresses considered local.
    pub host_addrs: Vec<Ipv6Addr>,
    /// FIB tables (shared with helper environments).
    pub tables: Arc<RouterTables>,
    /// seg6local My-SID table.
    pub local_sids: LocalSidTable,
    /// seg6 transit behaviours.
    pub transit: TransitTable,
    /// BPF LWT attachments.
    pub lwt_bpf: LwtBpfTable,
    /// Helper registry used for every program this node runs.
    pub helpers: HelperRegistry,
    /// Counters.
    pub stats: DatapathStats,
    /// Logical CPU this datapath instance runs on. The multi-queue runtime
    /// gives every worker shard its own instance with its own id, which is
    /// what eBPF programs see in `bpf_get_smp_processor_id` and what
    /// per-CPU maps index.
    pub cpu_id: u32,
    /// Reusable per-packet buffers (VM state, context, packet working
    /// copy) — the reason the steady state allocates nothing.
    scratch: RunScratch,
    /// This instance's lock-free snapshot of the FIB tables, refreshed
    /// from `tables` only when routes change.
    fib: FibCache,
}

impl Seg6Datapath {
    /// Creates a datapath for a node addressed by `local_addr`, with the
    /// SRv6 helper registry installed.
    pub fn new(local_addr: Ipv6Addr) -> Self {
        Seg6Datapath {
            local_addr,
            host_addrs: Vec::new(),
            tables: Arc::new(RouterTables::new()),
            local_sids: LocalSidTable::new(),
            transit: TransitTable::new(),
            lwt_bpf: LwtBpfTable::new(),
            helpers: crate::helpers::seg6_helper_registry(),
            stats: DatapathStats::default(),
            cpu_id: 0,
            scratch: RunScratch::new(),
            fib: FibCache::new(),
        }
    }

    /// Pins this datapath instance to logical CPU `cpu` (builder form).
    pub fn on_cpu(mut self, cpu: u32) -> Self {
        self.cpu_id = cpu;
        self
    }

    /// Clones this datapath's configuration into a new instance pinned to
    /// logical CPU `cpu` — what the persistent worker pool does once per
    /// shard when a node's single configured datapath must run on N
    /// queues. The FIB tables stay shared (they are behind an `Arc`, and
    /// internally synchronised), so routes installed later reach every
    /// fork. SID, transit and LWT tables are snapshots whose loaded
    /// programs and maps remain shared handles — exactly how kernel CPUs
    /// share map memory while per-CPU maps give each its own slot.
    /// Statistics start at zero.
    pub fn fork_for_cpu(&self, cpu: u32) -> Seg6Datapath {
        Seg6Datapath {
            local_addr: self.local_addr,
            host_addrs: self.host_addrs.clone(),
            tables: Arc::clone(&self.tables),
            local_sids: self.local_sids.clone(),
            transit: self.transit.clone(),
            lwt_bpf: self.lwt_bpf.clone(),
            helpers: self.helpers.clone(),
            stats: DatapathStats::default(),
            cpu_id: cpu,
            scratch: RunScratch::new(),
            fib: FibCache::new(),
        }
    }

    /// Adds an address the node answers for (local delivery).
    pub fn add_host_addr(&mut self, addr: Ipv6Addr) {
        if !self.host_addrs.contains(&addr) {
            self.host_addrs.push(addr);
        }
    }

    /// Installs a route in the main table.
    pub fn add_route(&mut self, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        self.tables.insert_main(prefix, nexthops);
    }

    /// Installs a route in a specific table.
    pub fn add_route_in_table(&mut self, table: TableId, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        self.tables.insert(table, prefix, nexthops);
    }

    /// Registers (or looks up) the VRF `name` on this node's tables and
    /// returns its [`TableId`] — the id to bind `End.T` / `End.DT6`
    /// behaviours to. Forks made with [`Seg6Datapath::fork_for_cpu`] share
    /// the tables `Arc`, so a VRF registered on any handle is visible to
    /// every shard.
    pub fn register_vrf(&self, name: &str) -> TableId {
        self.tables.register_vrf(name)
    }

    /// Installs a route in the VRF `name` (registering it on first use)
    /// and returns the VRF's table id.
    pub fn add_route_in_vrf(&mut self, name: &str, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) -> TableId {
        self.tables.insert_vrf(name, prefix, nexthops)
    }

    /// Binds a seg6local action to a SID.
    pub fn add_local_sid(&mut self, sid: Ipv6Prefix, action: Seg6LocalAction) {
        self.local_sids.insert(sid, action);
    }

    /// Installs a seg6 transit behaviour for traffic towards `prefix`.
    pub fn add_transit(&mut self, prefix: Ipv6Prefix, behaviour: TransitBehaviour) {
        self.transit.insert(prefix, behaviour);
    }

    /// Attaches a BPF LWT program to traffic towards `prefix`.
    pub fn attach_lwt_bpf(&mut self, prefix: Ipv6Prefix, attachment: LwtBpfAttachment) {
        self.lwt_bpf.insert(prefix, attachment);
    }

    /// Whether `dst` is one of this node's local addresses.
    pub fn is_local_addr(&self, dst: Ipv6Addr) -> bool {
        dst == self.local_addr || self.host_addrs.contains(&dst)
    }

    /// Processes one packet, as the IPv6 receive path would, and returns the
    /// forwarding verdict. `now_ns` is the current time (it drives
    /// `bpf_ktime_get_ns` and the `End.DM` timestamps). A batch of one
    /// through the same loop as [`Seg6Datapath::process_batch_verdicts_into`],
    /// so the two entry points cannot diverge.
    pub fn process(&mut self, skb: &mut Skb, now_ns: u64) -> Verdict {
        let mut verdict = Verdict::Drop(DropReason::Malformed);
        self.process_each(std::slice::from_mut(skb), now_ns, |out| verdict = out.verdict);
        verdict
    }

    /// Processes a batch of packets, appending a [`BatchVerdict`] per packet
    /// — the verdict plus a [`WorkSummary`] of what the packet cost — to a
    /// caller-owned buffer, in input order. Each packet's processing is
    /// byte-identical to what [`Seg6Datapath::process`] produces.
    ///
    /// The classification step (SID table, LWT attachment and transit
    /// lookups — all linear or longest-prefix scans) depends only on the
    /// destination address, so consecutive packets of one flow — exactly
    /// what RSS steering delivers to a worker shard — reuse the previous
    /// packet's classification instead of re-scanning every table.
    /// Consumers that price CPU work per packet (the simulator, the worker
    /// pool's accounting) read the summary instead of diffing
    /// [`DatapathStats`] around every call. The worker pool clears and
    /// reuses one buffer per shard, so the steady state performs no heap
    /// allocation per packet **or per batch**; the `alloc-counter` test
    /// feature asserts exactly that.
    pub fn process_batch_verdicts_into(
        &mut self,
        skbs: &mut [Skb],
        now_ns: u64,
        out: &mut Vec<BatchVerdict>,
    ) {
        out.reserve(skbs.len());
        self.process_each(skbs, now_ns, |verdict| out.push(verdict));
    }

    /// The per-packet body of both entry points: parse, classify (reusing
    /// the previous packet's classification for a repeated destination),
    /// execute, count, and hand the verdict to `emit`.
    fn process_each(&mut self, skbs: &mut [Skb], now_ns: u64, mut emit: impl FnMut(BatchVerdict)) {
        self.fib.refresh(&self.tables);
        let mut cached: Option<(Ipv6Addr, Dispatch<'_>)> = None;
        let mut routes = RouteCache::default();
        for skb in skbs.iter_mut() {
            let (verdict, work) = match Ipv6Header::parse(skb.packet.data()) {
                Err(_) => (Verdict::Drop(DropReason::Malformed), WorkSummary::default()),
                Ok(header) => {
                    let hit = matches!(&cached, Some((dst, _)) if *dst == header.dst);
                    if !hit {
                        cached = Some((
                            header.dst,
                            classify_dst(
                                &self.local_sids,
                                &self.lwt_bpf,
                                &self.transit,
                                self.local_addr,
                                &self.host_addrs,
                                header.dst,
                            ),
                        ));
                    }
                    // The cached dispatch borrows the configuration tables
                    // only; the execution state (scratch) is a disjoint
                    // field, so no clone is needed.
                    let (_, dispatch) = cached.as_ref().expect("cache filled above");
                    Exec {
                        local_addr: self.local_addr,
                        host_addrs: &self.host_addrs,
                        tables: &self.tables,
                        helpers: &self.helpers,
                        fib: &self.fib,
                        scratch: &mut self.scratch,
                        cpu: self.cpu_id,
                    }
                    .execute(dispatch, skb, &header, now_ns, &mut routes)
                }
            };
            self.stats.record(&verdict, &work);
            emit(BatchVerdict { verdict, work });
        }
    }
}

/// The mutable execution state for one packet, split off the configuration
/// tables the cached [`Dispatch`] borrows. Built per packet from disjoint
/// `Seg6Datapath` fields — it is all references, constructing it is free.
struct Exec<'e> {
    local_addr: Ipv6Addr,
    host_addrs: &'e [Ipv6Addr],
    tables: &'e Arc<RouterTables>,
    helpers: &'e HelperRegistry,
    fib: &'e FibCache,
    scratch: &'e mut RunScratch,
    cpu: u32,
}

impl Exec<'_> {
    fn is_local_addr(&self, dst: Ipv6Addr) -> bool {
        dst == self.local_addr || self.host_addrs.contains(&dst)
    }

    /// Runs one classified packet and reports the verdict together with
    /// the work classes it exercised.
    fn execute(
        &mut self,
        dispatch: &Dispatch<'_>,
        skb: &mut Skb,
        header: &Ipv6Header,
        now_ns: u64,
        routes: &mut RouteCache,
    ) -> (Verdict, WorkSummary) {
        let fhash = flow_hash(header.src, header.dst, header.flow_label);
        let mut work = WorkSummary::default();
        let verdict = match dispatch {
            Dispatch::Seg6Local { local_sid, action } => {
                work.seg6local = true;
                work.bpf = matches!(action, Seg6LocalAction::EndBpf { .. });
                let actx = ActionCtx {
                    local_sid: local_sid.unwrap_or(header.dst),
                    tables: self.tables,
                    helpers: self.helpers,
                    now_ns,
                    cpu: self.cpu,
                };
                let outcome = apply_action(action, skb, &actx, self.scratch);
                self.resolve_outcome(outcome, skb, fhash, routes)
            }
            Dispatch::LocalIn(None) => Verdict::LocalDeliver,
            Dispatch::LocalIn(Some(attachment)) => {
                work.bpf = true;
                match self.run_lwt(attachment, skb, now_ns) {
                    ActionOutcome::Drop(reason) => Verdict::Drop(reason),
                    ActionOutcome::LocalDeliver | ActionOutcome::Forward { .. } => Verdict::LocalDeliver,
                }
            }
            Dispatch::Xmit(attachment) => {
                work.bpf = true;
                let outcome = self.run_lwt(attachment, skb, now_ns);
                work.transit = matches!(
                    &outcome,
                    ActionOutcome::Forward { route_override, .. } if !route_override.is_set()
                );
                self.resolve_outcome(outcome, skb, fhash, routes)
            }
            Dispatch::Transit(behaviour) => {
                work.transit = true;
                let outcome = apply_transit(behaviour, skb, self.local_addr, self.scratch);
                self.resolve_outcome(outcome, skb, fhash, routes)
            }
            Dispatch::Forward => self.resolve_outcome(
                ActionOutcome::Forward { dst: header.dst, route_override: RouteOverride::default() },
                skb,
                fhash,
                routes,
            ),
        };
        (verdict, work)
    }

    fn run_lwt(&mut self, attachment: &LwtBpfAttachment, skb: &mut Skb, now_ns: u64) -> ActionOutcome {
        run_lwt_bpf(
            attachment,
            skb,
            self.local_addr,
            self.tables,
            self.helpers,
            now_ns,
            self.cpu,
            self.scratch,
        )
    }

    /// A FIB lookup through the batch-scoped [`RouteCache`], against this
    /// shard's lock-free snapshot. Results that cannot depend on the flow
    /// hash (single next hop, or no route) are remembered; ECMP results
    /// always re-select.
    fn lookup_cached(
        &self,
        routes: &mut RouteCache,
        table: u32,
        dst: Ipv6Addr,
        fhash: u64,
    ) -> Option<LookupResult> {
        if let Some((cached_table, cached_dst, result)) = &routes.entry {
            if *cached_table == table && *cached_dst == dst {
                return *result;
            }
        }
        let result = self.fib.lookup(table, dst, fhash);
        if result.as_ref().is_none_or(|r| r.ecmp_width == 1) {
            routes.entry = Some((table, dst, result));
        }
        result
    }

    /// Resolves an [`ActionOutcome`] into a final verdict: decrements the
    /// hop limit and performs whatever FIB lookup the outcome still needs.
    fn resolve_outcome(
        &mut self,
        outcome: ActionOutcome,
        skb: &mut Skb,
        fhash: u64,
        routes: &mut RouteCache,
    ) -> Verdict {
        let (dst, over) = match outcome {
            ActionOutcome::Drop(reason) => return Verdict::Drop(reason),
            ActionOutcome::LocalDeliver => return Verdict::LocalDeliver,
            ActionOutcome::Forward { dst, route_override } => (dst, route_override),
        };
        // A seg6local action may have re-targeted the packet at this very
        // node (e.g. the next SID is also ours after decapsulation).
        if self.is_local_addr(dst) && !over.is_set() {
            return Verdict::LocalDeliver;
        }
        match srv6_ops::decrement_hop_limit(skb.packet.data_mut()) {
            Ok(0) | Err(_) => return Verdict::Drop(DropReason::HopLimitExceeded),
            Ok(_) => {}
        }
        // Fully resolved override: nothing left to look up.
        if let (Some(nexthop), Some(oif)) = (over.nexthop, over.oif) {
            return Verdict::Forward { oif, neighbour: nexthop };
        }
        // Next hop known but not the interface: find the interface by
        // looking the next hop itself up.
        if let Some(nexthop) = over.nexthop {
            return match self.lookup_cached(routes, MAIN_TABLE, nexthop, fhash) {
                Some(result) => Verdict::Forward { oif: result.nexthop.oif, neighbour: nexthop },
                None => Verdict::Drop(DropReason::NoRoute),
            };
        }
        // Otherwise: ordinary lookup of the destination in the requested
        // table (End.T / End.DT6) or the main one.
        let table = over.table.unwrap_or(MAIN_TABLE);
        match self.lookup_cached(routes, table, dst, fhash) {
            Some(result) => {
                Verdict::Forward { oif: result.nexthop.oif, neighbour: result.nexthop.neighbour(dst) }
            }
            None => Verdict::Drop(DropReason::NoRoute),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf_vm::asm::assemble;
    use ebpf_vm::program::{load, Program, ProgramType};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::SegmentRoutingHeader;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn router() -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::11"));
        dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
        dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
        dp
    }

    fn srv6_skb(path: &[&str]) -> Skb {
        let segments: Vec<Ipv6Addr> = path.iter().map(|s| addr(s)).collect();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &segments);
        Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
    }

    fn plain_skb(dst: &str) -> Skb {
        Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr(dst), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn plain_forwarding_uses_the_fib_and_decrements_hop_limit() {
        let mut dp = router();
        let mut skb = plain_skb("fc00::42");
        let verdict = dp.process(&mut skb, 0);
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.hop_limit, 63);
        assert_eq!(dp.stats.forwarded, 1);
    }

    #[test]
    fn unroutable_packets_are_dropped_and_counted() {
        let mut dp = router();
        let mut skb = plain_skb("3001::1");
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::NoRoute));
        assert_eq!(dp.stats.dropped_for(DropReason::NoRoute), 1);
        assert_eq!(dp.stats.total_dropped(), 1);
    }

    #[test]
    fn local_delivery_for_host_addresses() {
        let mut dp = router();
        dp.add_host_addr(addr("2001:db8::99"));
        let mut skb = plain_skb("2001:db8::99");
        assert_eq!(dp.process(&mut skb, 0), Verdict::LocalDeliver);
        let mut skb = plain_skb("fc00::11");
        assert_eq!(dp.process(&mut skb, 0), Verdict::LocalDeliver);
        assert_eq!(dp.stats.local_delivered, 2);
    }

    #[test]
    fn seg6local_end_is_invoked_for_matching_sids() {
        let mut dp = router();
        dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
        let mut skb = srv6_skb(&["fc00::e1", "fc00::22"]);
        let verdict = dp.process(&mut skb, 0);
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        assert_eq!(dp.stats.seg6local_invocations, 1);
        assert_eq!(dp.stats.bpf_invocations, 0);
        // The SRH was advanced: the packet's destination is now the next SID.
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.dst, addr("fc00::22"));
    }

    #[test]
    fn seg6local_end_bpf_counts_bpf_invocations() {
        let mut dp = router();
        let insns = assemble("mov64 r0, 0\nexit").unwrap();
        let prog = load(
            Program::new("end-bpf", ProgramType::LwtSeg6Local, insns),
            &std::collections::HashMap::new(),
            &dp.helpers,
        )
        .unwrap();
        dp.add_local_sid("fc00::e2".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::e2", "fc00::22"]);
        assert!(dp.process(&mut skb, 0).is_forward());
        assert_eq!(dp.stats.bpf_invocations, 1);
        assert_eq!(dp.stats.seg6local_invocations, 1);
    }

    #[test]
    fn end_x_resolves_interface_through_the_nexthop_route() {
        let mut dp = router();
        dp.add_route("fe80::/64".parse().unwrap(), vec![Nexthop::direct(7)]);
        dp.add_local_sid("fc00::e3".parse().unwrap(), Seg6LocalAction::EndX { nexthop: addr("fe80::42") });
        let mut skb = srv6_skb(&["fc00::e3", "fc00::22"]);
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 7, neighbour: addr("fe80::42") });
    }

    #[test]
    fn end_t_uses_the_requested_table() {
        let mut dp = router();
        dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::9"), 9)]);
        dp.add_local_sid("fc00::e4".parse().unwrap(), Seg6LocalAction::EndT { table: 100 });
        let mut skb = srv6_skb(&["fc00::e4", "fc00::22"]);
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("fe80::9") });
    }

    #[test]
    fn end_t_routes_via_a_named_vrf_table() {
        let mut dp = router();
        let vrf = dp.add_route_in_vrf(
            "tenant-a",
            "fc00::/16".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::a"), 10)],
        );
        assert_eq!(dp.register_vrf("tenant-a"), vrf, "registration is stable");
        dp.add_local_sid("fc00::e5".parse().unwrap(), Seg6LocalAction::end_t(vrf));
        let mut skb = srv6_skb(&["fc00::e5", "fc00::22"]);
        // The main table routes fc00::/16 via oif 2; the VRF wins because
        // End.T forwards through its table, not "the" FIB.
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 10, neighbour: addr("fe80::a") });
    }

    #[test]
    fn end_dt6_decaps_and_looks_up_in_the_vrf_table() {
        let mut dp = router();
        let vrf = dp.add_route_in_vrf(
            "tenant-b",
            "2001:db8::/32".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::b"), 11)],
        );
        dp.add_local_sid("fc00::d6".parse().unwrap(), Seg6LocalAction::end_dt6(vrf));
        // IPv6-in-IPv6 towards the End.DT6 SID; the inner destination is
        // routed in the VRF after decapsulation.
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::9"), 5, 6, &[0u8; 8], 64)
            .data()
            .to_vec();
        let mut packet = inner;
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::d6")]);
        crate::srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&packet));
        // Main would route 2001:db8::/32 via oif 3; the VRF must win.
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 11, neighbour: addr("fe80::b") });
        // The packet left decapsulated (inner header on the wire).
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.dst, addr("2001:db8::9"));
    }

    #[test]
    fn vrf_registered_on_a_fork_is_visible_to_every_shard() {
        let dp = router();
        let fork_a = dp.fork_for_cpu(1);
        let mut fork_b = dp.fork_for_cpu(2);
        // Register + populate through one fork; route through another.
        let vrf = fork_a.register_vrf("shared-vrf");
        fork_a.tables.insert(vrf, "fc00::/16".parse().unwrap(), vec![Nexthop::direct(9)]);
        fork_b.add_local_sid("fc00::e6".parse().unwrap(), Seg6LocalAction::end_t(vrf));
        let mut skb = srv6_skb(&["fc00::e6", "fc00::22"]);
        assert_eq!(fork_b.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("fc00::22") });
    }

    #[test]
    fn transit_encap_applies_to_matching_traffic() {
        let mut dp = router();
        dp.add_transit(
            "2001:db8:1::/48".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::a"), addr("2001:db8:1::99")]),
        );
        let mut skb = plain_skb("2001:db8:1::99");
        let before = skb.len();
        let verdict = dp.process(&mut skb, 0);
        // The new destination fc00::a is routed through interface 2.
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        assert!(skb.len() > before);
        assert_eq!(dp.stats.transit_applied, 1);
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        assert!(parsed.inner.is_some());
    }

    #[test]
    fn hop_limit_exhaustion_drops() {
        let mut dp = router();
        let mut skb =
            Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("fc00::42"), 1, 2, &[0u8; 8], 1));
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::HopLimitExceeded));
    }

    #[test]
    fn malformed_packets_are_dropped() {
        let mut dp = router();
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 10]));
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::Malformed));
    }

    /// A mixed batch covering every dispatch class, for the equivalence
    /// tests below.
    fn mixed_batch() -> Vec<Skb> {
        let mut batch = Vec::new();
        for _ in 0..3 {
            batch.push(srv6_skb(&["fc00::e1", "fc00::22"])); // seg6local End
            batch.push(srv6_skb(&["fc00::e2", "fc00::22"])); // seg6local End.BPF
            batch.push(plain_skb("fc00::42")); // plain forwarding
            batch.push(plain_skb("fc00::11")); // local delivery
            batch.push(plain_skb("3001::1")); // no route
            batch.push(plain_skb("2001:db8:1::9")); // transit encap
            batch.push(Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 6]))); // malformed
        }
        batch
    }

    fn batch(dp: &mut Seg6Datapath, skbs: &mut [Skb], now_ns: u64) -> Vec<BatchVerdict> {
        let mut out = Vec::new();
        dp.process_batch_verdicts_into(skbs, now_ns, &mut out);
        out
    }

    fn batch_router() -> Seg6Datapath {
        let mut dp = router();
        dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
        let insns = assemble("mov64 r0, 0\nexit").unwrap();
        let prog = load(
            Program::new("end-bpf", ProgramType::LwtSeg6Local, insns),
            &std::collections::HashMap::new(),
            &dp.helpers,
        )
        .unwrap();
        dp.add_local_sid("fc00::e2".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        dp.add_transit(
            "2001:db8:1::/48".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::a")]),
        );
        dp
    }

    #[test]
    fn process_batch_matches_per_packet_processing() {
        let mut dp_single = batch_router();
        let mut dp_batch = batch_router();

        let mut singles = mixed_batch();
        let single_verdicts: Vec<Verdict> = singles.iter_mut().map(|skb| dp_single.process(skb, 7)).collect();

        let mut batched = mixed_batch();
        let batch_verdicts: Vec<Verdict> =
            batch(&mut dp_batch, &mut batched, 7).into_iter().map(|b| b.verdict).collect();

        assert_eq!(single_verdicts, batch_verdicts);
        // The packets were rewritten identically too.
        for (single, batch) in singles.iter().zip(batched.iter()) {
            assert_eq!(single.packet.data(), batch.packet.data());
        }
        // And the statistics agree.
        assert_eq!(dp_single.stats.received, dp_batch.stats.received);
        assert_eq!(dp_single.stats.forwarded, dp_batch.stats.forwarded);
        assert_eq!(dp_single.stats.local_delivered, dp_batch.stats.local_delivered);
        assert_eq!(dp_single.stats.seg6local_invocations, dp_batch.stats.seg6local_invocations);
        assert_eq!(dp_single.stats.bpf_invocations, dp_batch.stats.bpf_invocations);
        assert_eq!(dp_single.stats.transit_applied, dp_batch.stats.transit_applied);
        assert_eq!(dp_single.stats.dropped, dp_batch.stats.dropped);
    }

    #[test]
    fn process_batch_of_one_flow_reuses_classification() {
        // Same-destination packets (what RSS steers to one worker) must
        // produce the same verdicts as individual processing.
        let mut dp = batch_router();
        let mut skbs: Vec<Skb> = (0..16).map(|_| srv6_skb(&["fc00::e1", "fc00::22"])).collect();
        let verdicts = batch(&mut dp, &mut skbs, 0);
        assert!(verdicts.iter().all(|v| v.verdict.is_forward()));
        assert_eq!(dp.stats.seg6local_invocations, 16);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut dp = batch_router();
        assert!(batch(&mut dp, &mut [], 0).is_empty());
        assert_eq!(dp.stats.received, 0);
    }

    #[test]
    fn on_cpu_sets_the_worker_id() {
        let dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(3);
        assert_eq!(dp.cpu_id, 3);
    }

    #[test]
    fn batch_verdicts_report_per_packet_work() {
        let mut dp = batch_router();
        let skbs = || {
            vec![
                srv6_skb(&["fc00::e1", "fc00::22"]),                // seg6local End
                srv6_skb(&["fc00::e2", "fc00::22"]),                // seg6local End.BPF
                plain_skb("fc00::42"),                              // plain forwarding
                plain_skb("2001:db8:1::9"),                         // transit encap
                Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 6])), // malformed
            ]
        };
        let verdicts = batch(&mut dp, &mut skbs(), 0);
        let works: Vec<WorkSummary> = verdicts.iter().map(|b| b.work).collect();
        assert_eq!(works[0], WorkSummary { seg6local: true, bpf: false, transit: false });
        assert_eq!(works[1], WorkSummary { seg6local: true, bpf: true, transit: false });
        assert_eq!(works[2], WorkSummary::default());
        assert_eq!(works[3], WorkSummary { seg6local: false, bpf: false, transit: true });
        assert_eq!(works[4], WorkSummary::default());
        assert_eq!(verdicts[4].verdict, Verdict::Drop(DropReason::Malformed));
        // The verdicts agree with per-packet processing on a fresh router.
        let mut fresh = batch_router();
        let plain: Vec<Verdict> = skbs().iter_mut().map(|skb| fresh.process(skb, 0)).collect();
        assert_eq!(plain, verdicts.iter().map(|b| b.verdict.clone()).collect::<Vec<_>>());
        // The buffer is appended to, not cleared: the caller owns its reuse.
        let mut out = verdicts.clone();
        dp.process_batch_verdicts_into(&mut skbs(), 0, &mut out);
        assert_eq!(out.len(), 2 * verdicts.len());
        assert_eq!(out[verdicts.len()..], verdicts[..]);
    }

    #[test]
    fn fork_for_cpu_shares_the_fib_and_snapshots_the_rest() {
        let mut dp = batch_router();
        let mut fork = dp.fork_for_cpu(5);
        assert_eq!(fork.cpu_id, 5);
        assert_eq!(fork.stats.received, 0);

        // A SID configured before the fork works on the fork.
        let mut skb = srv6_skb(&["fc00::e1", "fc00::22"]);
        assert!(fork.process(&mut skb, 0).is_forward());
        assert_eq!(fork.stats.seg6local_invocations, 1);
        assert_eq!(dp.stats.seg6local_invocations, 0, "fork stats are private");

        // Routes installed on the original *after* forking reach the fork —
        // the FIB is shared through the Arc.
        dp.add_route("3001::/16".parse().unwrap(), vec![Nexthop::direct(9)]);
        let mut skb = plain_skb("3001::1");
        assert_eq!(fork.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("3001::1") });
    }
}
