//! Zero-allocation regression tests for the per-packet hot path.
//!
//! Run with `cargo test -p seg6-core --features alloc-counter`. The
//! counting global allocator tracks per-thread allocation counts; after one
//! warm-up batch fills every reusable buffer, a steady-state
//! `process_batch_verdicts_into` call must perform **zero** heap
//! allocations, whatever mix of forwarding, seg6local endpoint actions,
//! End.BPF programs and packet-growing behaviours (transit encap/inline,
//! `End.B6`, `End.B6.Encaps`, `bpf_lwt_push_encap`) the batch exercises.
#![cfg(feature = "alloc-counter")]

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{jmp, AccessSize};
use ebpf_vm::maps::PerCpuArrayMap;
use ebpf_vm::program::{load, retcode, ProgramType};
use ebpf_vm::{MapHandle, ProgramBuilder};
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::Ipv6Prefix;
use seg6_core::alloc_counter::{thread_allocations, CountingAllocator};
use seg6_core::{
    encap_modes, BatchVerdict, LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb,
    TransitBehaviour, Verdict,
};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// An `End.BPF` program exercising the rewritten helper paths: a per-CPU
/// map lookup (stack-buffer key read), a counter bump through the returned
/// value region, and an `skb_load_bytes` copy (direct packet→stack copy).
fn counting_program() -> ebpf_vm::Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(9, 1); // save ctx
    b.store_imm(AccessSize::Word, 10, -4, 0);
    b.load_map_fd(1, 1);
    b.mov_reg(2, 10);
    b.add_imm(2, -4);
    b.call(ids::MAP_LOOKUP_ELEM);
    b.jmp_imm(jmp::JEQ, 0, 0, "out");
    b.load_mem(AccessSize::Double, 1, 0, 0);
    b.add_imm(1, 1);
    b.store_mem(AccessSize::Double, 0, 1, 0);
    // skb_load_bytes(ctx, 0, fp-16, 8)
    b.mov_reg(1, 9);
    b.mov_imm(2, 0);
    b.mov_reg(3, 10);
    b.add_imm(3, -16);
    b.mov_imm(4, 8);
    b.call(ids::SKB_LOAD_BYTES);
    b.label("out");
    b.ret(retcode::BPF_OK as i32);
    b.build_program("count-and-peek", ProgramType::LwtSeg6Local).expect("static program")
}

/// An LWT xmit program that encapsulates every packet with a two-segment
/// SRH built on its stack (`fc00::d2` then `fc00::d1`) through
/// `bpf_lwt_push_encap`.
fn push_encap_program() -> ebpf_vm::Program {
    const SRH_LEN: i32 = 40;
    let mut b = ProgramBuilder::new();
    // next_header = 41 (IPv6), hdr_ext_len = 4, routing type 4,
    // segments_left = 1, last_entry = 1, flags = 0, tag = 0.
    b.load_imm64(2, u64::from_le_bytes([41, 4, 4, 1, 1, 0, 0, 0]));
    b.store_mem(AccessSize::Double, 10, 2, -SRH_LEN as i16);
    for (i, segment) in ["fc00::d1", "fc00::d2"].into_iter().enumerate() {
        let octets = addr(segment).octets();
        for half in 0..2 {
            let word = u64::from_le_bytes(octets[half * 8..half * 8 + 8].try_into().unwrap());
            b.load_imm64(2, word);
            b.store_mem(AccessSize::Double, 10, 2, (-SRH_LEN + 8 + 16 * i as i32 + 8 * half as i32) as i16);
        }
    }
    // push_encap(ctx, BPF_LWT_ENCAP_SEG6, fp - 40, 40)
    b.mov_imm(2, encap_modes::SEG6 as i32);
    b.mov_reg(3, 10);
    b.add_imm(3, -SRH_LEN);
    b.mov_imm(4, SRH_LEN);
    b.call(ids::LWT_PUSH_ENCAP);
    b.ret(retcode::BPF_OK as i32);
    b.build_program("push-encap", ProgramType::LwtXmit).expect("static program")
}

fn router(tier: ebpf_vm::ExecTier) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
    // An ECMP route, so the weighted selection runs too.
    dp.add_route(
        "fd00::/16".parse().unwrap(),
        vec![Nexthop::via(addr("fe80::a"), 4), Nexthop::via(addr("fe80::b"), 5).with_weight(2)],
    );
    dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
    let counter: MapHandle = PerCpuArrayMap::new(8, 1, 1);
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(1, Arc::clone(&counter));
    let prog = load(counting_program(), &maps, &dp.helpers).expect("verified program");
    prog.set_exec_tier(tier);
    dp.add_local_sid(Ipv6Prefix::host(addr("fc00::e2")), Seg6LocalAction::EndBpf { prog });
    // The packet-growing behaviours: End.B6.Encaps, End.B6, transit
    // encap and inline, and an LWT program calling bpf_lwt_push_encap.
    dp.add_local_sid(
        Ipv6Prefix::host(addr("fc00::e3")),
        Seg6LocalAction::EndB6Encaps {
            srh: SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::c1"), addr("fc00::c2")]),
        },
    );
    dp.add_local_sid(
        Ipv6Prefix::host(addr("fc00::e4")),
        Seg6LocalAction::EndB6 { srh: SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::c3")]) },
    );
    dp.add_transit(
        "2001:db8:e::/48".parse().unwrap(),
        TransitBehaviour::encap_through(&[addr("fc00::a1"), addr("fc00::a2")]),
    );
    dp.add_transit("2001:db8:f::/48".parse().unwrap(), TransitBehaviour::inline_through(&[addr("fc00::b1")]));
    let prog = load(push_encap_program(), &HashMap::new(), &dp.helpers).expect("verified program");
    prog.set_exec_tier(tier);
    dp.attach_lwt_bpf("2001:db8:d::/48".parse().unwrap(), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
    dp
}

/// One batch of the steady-state workload: plain forwarding, ECMP
/// forwarding, local delivery, `End`, `End.BPF`, and the packet-growing
/// paths.
fn mixed_batch() -> Vec<Skb> {
    let mut batch = Vec::new();
    for i in 0..8u16 {
        for sid in ["fc00::e3", "fc00::e4"] {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr(sid), addr("fc00::99")]);
            batch.push(Skb::new(build_srv6_udp_packet(
                addr("2001:db8::3"),
                &srh,
                1000 + i,
                2000,
                &[0u8; 32],
                64,
            )));
        }
        for dst in ["2001:db8:e::7", "2001:db8:f::7", "2001:db8:d::7"] {
            batch.push(Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr(dst), i, 2, &[0u8; 16], 64)));
        }
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::e1"), addr("fc00::99")]);
        batch.push(Skb::new(build_srv6_udp_packet(
            addr("2001:db8::1"),
            &srh,
            1000 + i,
            2000,
            &[0u8; 32],
            64,
        )));
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::e2"), addr("fc00::99")]);
        batch.push(Skb::new(build_srv6_udp_packet(
            addr("2001:db8::2"),
            &srh,
            1000 + i,
            2000,
            &[0u8; 32],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fc00::42"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fd00::7"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fc00::1"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
    }
    batch
}

fn assert_zero_alloc_steady_state(tier: ebpf_vm::ExecTier) {
    let mut dp = router(tier);
    let mut verdicts: Vec<BatchVerdict> = Vec::new();

    // Warm-up: fills the scratch buffers, compiles the program image,
    // loads the FIB snapshot, grows the verdict buffer.
    let mut warmup = mixed_batch();
    dp.process_batch_verdicts_into(&mut warmup, 0, &mut verdicts);
    assert!(verdicts.iter().all(|bv| !matches!(bv.verdict, Verdict::Drop(_))), "warm-up workload dropped");

    // Steady state: pre-build the batches, then measure the processing
    // alone. Zero allocations per packet means zero allocations, full stop.
    let mut batches: Vec<Vec<Skb>> = (0..4).map(|_| mixed_batch()).collect();
    verdicts.clear();
    verdicts.reserve(batches.iter().map(Vec::len).sum());

    let before = thread_allocations();
    for batch in &mut batches {
        dp.process_batch_verdicts_into(batch, 7, &mut verdicts);
    }
    let allocations = thread_allocations() - before;

    let packets: usize = batches.iter().map(Vec::len).sum();
    assert!(verdicts.len() == packets);
    assert!(verdicts.iter().all(|bv| !matches!(bv.verdict, Verdict::Drop(_))), "steady workload dropped");
    assert_eq!(
        allocations, 0,
        "steady-state process_batch_verdicts_into allocated {allocations} times for {packets} packets"
    );
}

#[test]
fn steady_state_is_allocation_free_with_interpreter() {
    assert_zero_alloc_steady_state(ebpf_vm::ExecTier::Interp);
}

#[test]
fn steady_state_is_allocation_free_with_microop() {
    assert_zero_alloc_steady_state(ebpf_vm::ExecTier::MicroOp);
}

#[test]
fn steady_state_is_allocation_free_with_native() {
    // Falls back to the micro-op tier on hosts without a backend, which must
    // be allocation-free either way.
    assert_zero_alloc_steady_state(ebpf_vm::ExecTier::Native);
}

/// The single-packet entry point shares the same scratch state, so it must
/// be allocation-free in the steady state as well.
#[test]
fn steady_state_process_is_allocation_free() {
    let mut dp = router(ebpf_vm::ExecTier::best_supported());
    let mut warmup = mixed_batch();
    for skb in &mut warmup {
        dp.process(skb, 0);
    }
    let mut batch = mixed_batch();
    let before = thread_allocations();
    for skb in &mut batch {
        dp.process(skb, 7);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(allocations, 0, "steady-state process() allocated {allocations} times");
}
