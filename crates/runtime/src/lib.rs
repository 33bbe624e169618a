//! # seg6-runtime — the multi-queue batched packet runtime
//!
//! The paper's End.BPF datapath scales the way every kernel datapath does:
//! the NIC spreads flows over hardware queues with RSS, each queue is
//! served by one CPU, programs run on every CPU concurrently, and per-CPU
//! maps plus per-CPU perf rings keep the hot path free of shared writable
//! state. This crate reproduces that architecture in user space:
//!
//! * packets are classified and hashed by [`netpkt::flow`] (Toeplitz RSS
//!   over the 5-tuple) and steered to one of N **worker shards**;
//! * every worker owns a full [`Seg6Datapath`](seg6_core::Seg6Datapath)
//!   instance — its own program instances, its own FIB handle, its own
//!   `cpu_id` — so per-CPU maps and `BPF_F_CURRENT_CPU` perf output
//!   resolve to genuinely private slots;
//! * workers drain their queues in **batches** through
//!   [`process_batch_verdicts_into`](seg6_core::Seg6Datapath::process_batch_verdicts_into),
//!   amortising classification;
//! * [`WorkerPool`] keeps the shard threads for its whole life: spawned
//!   once, fed over lock-free rings, with backpressure accounting,
//!   per-batch perf-drain daemons and graceful shutdown.
//!   [`WorkerPool::threads_spawned`] lets tests prove the pool never spawns
//!   after construction.
//!
//! ```
//! use seg6_runtime::{Ingress, PoolConfig, WorkerPool};
//! use seg6_core::{Nexthop, Seg6Datapath};
//! use netpkt::packet::build_ipv6_udp_packet;
//!
//! let mut pool = WorkerPool::new(PoolConfig { workers: 4, ..Default::default() }, |cpu| {
//!     let mut dp = Seg6Datapath::new("fc00::1".parse().unwrap()).on_cpu(cpu);
//!     dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
//!     dp
//! });
//! for flow in 0..64u16 {
//!     let pkt = build_ipv6_udp_packet(
//!         "2001:db8::1".parse().unwrap(),
//!         "2001:db8::2".parse().unwrap(),
//!         1000 + flow,
//!         5001,
//!         &[0u8; 64],
//!         64,
//!     );
//!     pool.enqueue(pkt);
//! }
//! let report = pool.flush().run;
//! assert_eq!(report.processed, 64);
//! assert_eq!(report.forwarded, 64);
//! assert_eq!(pool.threads_spawned(), 4);
//! ```

#![warn(missing_docs)]
// Unsafe is denied crate-wide and allowed in exactly two modules: the
// lock-free SPSC ring (`ring`), whose slot accesses cannot be expressed in
// safe Rust (its safety argument is documented there and hammered by the
// two-thread stress test, `tests/ring_stress.rs`), and the
// `sched_setaffinity(2)` FFI in `affinity`.
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod pool;
#[allow(unsafe_code)]
pub mod ring;
pub mod telemetry;

pub use affinity::PinPolicy;
pub use pool::{
    work_cost, BatchDrain, DrainReport, Ingress, PoolConfig, PoolReport, ShardFlush, ShardSetup, Tenant,
    TenantId, TenantQos, TenantSpec, WorkerPool, COST_BASE, COST_BPF, COST_SEG6LOCAL, COST_TRANSIT,
};
pub use telemetry::{PoolCounters, PoolSnapshot, ShardSnapshot, TenantCounters, TenantSnapshot};

/// Hard ceiling on the worker count, matching the CPU slots per-CPU maps
/// are provisioned for by default.
pub const MAX_WORKERS: u32 = ebpf_vm::DEFAULT_NUM_CPUS;

/// Aggregate verdict counters of one [`WorkerPool::flush`] window.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Packets processed across all workers.
    pub processed: u64,
    /// Forward verdicts across all workers.
    pub forwarded: u64,
    /// Local deliveries across all workers.
    pub local_delivered: u64,
    /// Drops across all workers.
    pub dropped: u64,
    /// Per-worker processed counts, indexed by worker id.
    pub per_worker: Vec<u64>,
}

impl RunReport {
    pub(crate) fn from_deltas(deltas: &[ShardSnapshot]) -> Self {
        RunReport {
            processed: deltas.iter().map(|d| d.processed).sum(),
            forwarded: deltas.iter().map(|d| d.forwarded).sum(),
            local_delivered: deltas.iter().map(|d| d.local_delivered).sum(),
            dropped: deltas.iter().map(|d| d.dropped).sum(),
            per_worker: deltas.iter().map(|d| d.processed).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf_vm::helpers::ids;
    use ebpf_vm::insn::{jmp, AccessSize};
    use ebpf_vm::maps::PerCpuArrayMap;
    use ebpf_vm::program::{load, retcode, ProgramType};
    use ebpf_vm::{MapHandle, ProgramBuilder};
    use netpkt::flow::{rss_hash_packet, rss_hash_packet_symmetric, steer};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::SegmentRoutingHeader;
    use netpkt::PacketBuf;
    use seg6_core::{Nexthop, Seg6Datapath, Seg6LocalAction, Skb, Verdict};
    use std::collections::HashMap;
    use std::net::Ipv6Addr;
    use std::sync::Arc;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    pub(crate) fn forwarding_datapath(cpu: u32) -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
        dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        dp
    }

    pub(crate) fn flow_packet(flow: u32) -> PacketBuf {
        build_ipv6_udp_packet(
            addr(&format!("2001:db8::{:x}", flow + 1)),
            addr("2001:db8:f::1"),
            (1024 + flow % 40_000) as u16,
            5001,
            &[0u8; 32],
            64,
        )
    }

    /// The sequential reference the pool is held to: steer every packet
    /// as the dispatcher does (`rss_hash_packet` + `steer`), then run each
    /// shard's packets in arrival order through that shard's own
    /// [`Seg6Datapath::process`], one shard after another. Returns the
    /// report a pool flush over the same packets must equal, and each
    /// shard's processed packets with their verdicts.
    pub(crate) fn reference_run(
        workers: u32,
        packets: impl IntoIterator<Item = PacketBuf>,
        mut builder: impl FnMut(u32) -> Seg6Datapath,
    ) -> (RunReport, Vec<Vec<(Skb, Verdict)>>) {
        let mut queues: Vec<Vec<Skb>> = (0..workers).map(|_| Vec::new()).collect();
        for packet in packets {
            queues[steer(rss_hash_packet(packet.data()), workers as usize)].push(Skb::new(packet));
        }
        let mut deltas = Vec::with_capacity(workers as usize);
        let mut shards = Vec::with_capacity(workers as usize);
        for (cpu, queue) in queues.into_iter().enumerate() {
            let mut datapath = builder(cpu as u32);
            let mut stats = ShardSnapshot::default();
            let mut processed = Vec::with_capacity(queue.len());
            for mut skb in queue {
                let verdict = datapath.process(&mut skb, 0);
                stats.processed += 1;
                match verdict {
                    Verdict::Forward { .. } => stats.forwarded += 1,
                    Verdict::LocalDeliver => stats.local_delivered += 1,
                    Verdict::Drop(_) => stats.dropped += 1,
                }
                processed.push((skb, verdict));
            }
            deltas.push(stats);
            shards.push(processed);
        }
        (RunReport::from_deltas(&deltas), shards)
    }

    #[test]
    fn worker_count_is_clamped() {
        for (asked, expected) in [(0, 1), (10_000, MAX_WORKERS)] {
            let mut built = Vec::new();
            let config = PoolConfig { workers: asked, queue_depth: 4, ..Default::default() };
            let pool = WorkerPool::new(config, |cpu| {
                built.push(cpu);
                forwarding_datapath(cpu)
            });
            assert_eq!(pool.workers(), expected);
            assert_eq!(pool.config().workers, expected);
            assert_eq!(pool.threads_spawned(), u64::from(expected));
            // The builder ran once per shard, with the shard's CPU id.
            assert_eq!(built, (0..expected).collect::<Vec<_>>());
        }
    }

    #[test]
    fn steering_is_consistent_and_spread() {
        let mut pool = WorkerPool::new(PoolConfig { workers: 4, ..Default::default() }, forwarding_datapath);
        for flow in 0..256 {
            let pkt = flow_packet(flow);
            assert_eq!(pool.steer_to(pkt.data()), pool.steer_to(pkt.data()));
            assert_eq!(pool.steer_to(pkt.data()) as usize, steer(rss_hash_packet(pkt.data()), 4));
            assert!(pool.enqueue(pkt));
        }
        // All four shards got a share of 256 distinct flows.
        let enqueued: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        for &share in &enqueued {
            assert!(share > 16, "imbalanced: {enqueued:?}");
        }
        let report = pool.flush().run;
        assert_eq!(report.processed, 256);
        assert_eq!(report.forwarded, 256);
        assert_eq!(report.per_worker, enqueued);
    }

    /// The pool's collected outputs equal the sequential reference packet
    /// for packet: same shard, same order within the shard, same verdict,
    /// same rewritten bytes.
    #[test]
    fn threaded_and_single_thread_runs_agree() {
        let packets: Vec<PacketBuf> = (0..512).map(flow_packet).collect();
        let (expected, reference) = reference_run(4, packets.iter().cloned(), forwarding_datapath);

        let config = PoolConfig { workers: 4, batch_size: 16, collect_outputs: true, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        assert_eq!(pool.enqueue_all(packets), 512);
        let report = pool.flush();
        assert_eq!(report.run, expected);
        assert_eq!(expected.processed, 512);
        assert_eq!(expected.dropped, 0);
        for (shard, (outputs, reference)) in report.outputs.iter().zip(&reference).enumerate() {
            assert_eq!(outputs.len(), reference.len(), "shard {shard}");
            for ((_, skb, batch), (ref_skb, ref_verdict)) in outputs.iter().zip(reference) {
                assert_eq!(&batch.verdict, ref_verdict, "shard {shard}");
                assert_eq!(skb.packet.data(), ref_skb.packet.data(), "shard {shard}");
            }
        }
    }

    #[test]
    fn symmetric_steering_joins_both_directions() {
        let config = PoolConfig { workers: 8, symmetric_steering: true, ..Default::default() };
        let symmetric = WorkerPool::new(config, forwarding_datapath);
        let asymmetric =
            WorkerPool::new(PoolConfig { workers: 8, ..Default::default() }, forwarding_datapath);
        let mut split_without = 0;
        for flow in 0..64u16 {
            let fwd = build_ipv6_udp_packet(
                addr("2001:db8::1"),
                addr("2001:db8::2"),
                1000 + flow,
                443,
                &[0; 8],
                64,
            );
            let rev = build_ipv6_udp_packet(
                addr("2001:db8::2"),
                addr("2001:db8::1"),
                443,
                1000 + flow,
                &[0; 8],
                64,
            );
            assert_eq!(symmetric.steer_to(fwd.data()), symmetric.steer_to(rev.data()));
            assert_eq!(
                symmetric.steer_to(fwd.data()) as usize,
                steer(rss_hash_packet_symmetric(fwd.data()), 8)
            );
            if asymmetric.steer_to(fwd.data()) != asymmetric.steer_to(rev.data()) {
                split_without += 1;
            }
        }
        // The option is what joins the directions: the plain hash splits some.
        assert!(split_without > 0);
    }

    /// An `End.BPF` program that counts invocations in entry 0 of a
    /// per-CPU array attached as fd 1, then forwards.
    fn counting_program() -> ebpf_vm::Program {
        let mut b = ProgramBuilder::new();
        b.store_imm(AccessSize::Word, 10, -4, 0);
        b.load_map_fd(1, 1);
        b.mov_reg(2, 10);
        b.add_imm(2, -4);
        b.call(ids::MAP_LOOKUP_ELEM);
        b.jmp_imm(jmp::JEQ, 0, 0, "out");
        b.load_mem(AccessSize::Double, 1, 0, 0);
        b.add_imm(1, 1);
        b.store_mem(AccessSize::Double, 0, 1, 0);
        b.label("out");
        b.ret(retcode::BPF_OK as i32);
        b.build_program("count", ProgramType::LwtSeg6Local).expect("static program")
    }

    /// N workers share one per-CPU map; after a pool run, every worker's
    /// slot holds exactly the packets that worker processed — the slots
    /// are disjoint, with no lost or double-counted updates. The builder
    /// leaves `cpu_id` at 0, so this also proves the pool pins each shard's
    /// datapath to its own CPU id.
    #[test]
    fn per_worker_map_state_is_disjoint() {
        const WORKERS: u32 = 4;
        let sid = addr("fc00::e1");
        let counter: Arc<PerCpuArrayMap> = PerCpuArrayMap::new(8, 1, WORKERS);
        let shared: MapHandle = counter.clone();

        let config = PoolConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, |_cpu| {
            let mut dp = Seg6Datapath::new(addr("fc00::1"));
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
            // Each worker loads its own program instance against the shared
            // per-CPU map, as each kernel CPU would.
            let mut maps: HashMap<u32, MapHandle> = HashMap::new();
            maps.insert(1, Arc::clone(&shared));
            let prog = load(counting_program(), &maps, &dp.helpers).expect("verified program");
            dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), Seg6LocalAction::EndBpf { prog });
            dp
        });

        // 400 packets over many flows; vary the source port so flows spread.
        for flow in 0..400u32 {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, addr("fc00::99")]);
            let pkt = build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                &srh,
                (1000 + flow) as u16,
                5001,
                &[0u8; 16],
                64,
            );
            assert!(pool.enqueue(pkt));
        }
        let steered: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        let report = pool.flush().run;
        assert_eq!(report.processed, 400);
        assert_eq!(report.forwarded, 400);

        // Each worker's per-CPU slot counted exactly its own packets.
        let key = 0u32.to_ne_bytes();
        let mut total = 0;
        for cpu in 0..WORKERS {
            let slot = counter.lookup_cpu(&key, cpu).unwrap();
            let count = u64::from_le_bytes(slot.try_into().unwrap());
            assert_eq!(count, steered[cpu as usize], "worker {cpu} slot mismatch");
            assert!(count > 0, "worker {cpu} processed nothing — steering collapsed");
            total += count;
        }
        assert_eq!(total, 400);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let (expected, _) = reference_run(2, (0..100).map(flow_packet), forwarding_datapath);
        for batch_size in [1, 7, 32, 1024] {
            let config = PoolConfig { workers: 2, batch_size, ..Default::default() };
            let mut pool = WorkerPool::new(config, forwarding_datapath);
            assert_eq!(pool.enqueue_all((0..100).map(flow_packet)), 100);
            let report = pool.flush().run;
            assert_eq!(report, expected, "batch_size {batch_size}");
            assert_eq!(report.forwarded, 100, "batch_size {batch_size}");
        }
    }

    #[test]
    fn run_threaded_reports_shards_in_index_order() {
        // Regression: whatever order shard threads finish in, the report
        // must list per-worker results by shard index, identical to the
        // sequential single-threaded reference.
        let packets: Vec<PacketBuf> = (0..512).map(flow_packet).collect();
        let (report_once, shards) = reference_run(8, packets.iter().cloned(), forwarding_datapath);
        let per_worker_expected: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
        assert_eq!(report_once.per_worker, per_worker_expected);

        for _ in 0..3 {
            let config = PoolConfig { workers: 8, batch_size: 8, ..Default::default() };
            let mut pool = WorkerPool::new(config, forwarding_datapath);
            assert_eq!(pool.enqueue_all(packets.iter().cloned()), 512);
            assert_eq!(pool.flush().run, report_once);
        }
    }
}
