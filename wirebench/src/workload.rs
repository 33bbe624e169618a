//! The three workloads: their seeded inputs (frame templates and arrival
//! order), the datapaths they run on, and why each one exists.
//!
//! Every input is a pure function of the seed. A frame is a template with
//! its sequence number stamped into the last eight payload bytes, so the
//! benchmark can regenerate any offered frame from its sequence number
//! alone — the output oracle relies on that to replay the whole run after
//! the timed phases without keeping the frames in memory.

use ebpf_vm::program::{load, ExecTier, LoadedProgram, Program};
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::{proto, Ipv6Header, Ipv6Prefix};
use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction};
use srv6_nf::progs;
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: a small seeded generator, enough for input synthesis.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0f5e_ed5e_ed00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FwdFib100k,
    BpfInplace,
    BpfResize,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FwdFib100k, Kind::BpfInplace, Kind::BpfResize];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::FwdFib100k => "fwd_fib100k",
            Kind::BpfInplace => "bpf_inplace",
            Kind::BpfResize => "bpf_resize",
        }
    }

    /// Why the workload exists: which layers it stresses and which it
    /// bypasses. Every workload time-shares one core between the
    /// generator/dispatcher and the worker (see [`CORE`]).
    pub fn why(self) -> &'static str {
        match self {
            Kind::FwdFib100k => {
                "paper's IPv6 forwarding reference (Fig. 2, 64 B): srv6d + pool + 100k-route FIB; \
                 ebpf_vm bypassed"
            }
            Kind::BpfInplace => {
                "shipped End/End.T/End.X/Tag++ End.BPF programs through the pool; wrapper + VM dominate; \
                 FIB and srv6d bypassed"
            }
            Kind::BpfResize => {
                "packet-growing programs (add_tlv, owd_encap, wrr_encap) over a 64/512/1280 B mix: \
                 the copy/resize path of the wrappers"
            }
        }
    }

    /// Closed-loop in-flight window, in frames. The daemon reads one
    /// 64-frame burst per queue per pass; the pool takes a larger window
    /// so one flush barrier covers several 32-packet batches.
    pub fn window(self) -> usize {
        if self == Kind::FwdFib100k {
            64
        } else {
            256
        }
    }
}

/// Frames and their arrival order, plus what the workload's report prints
/// about them.
pub struct Input {
    /// Distinct frames, sequence stamp zeroed.
    pub templates: Vec<Vec<u8>>,
    /// Egress byte range each template's output must not be compared on
    /// (clock-filled bytes), if any.
    pub masks: Vec<Option<(usize, usize)>>,
    /// Template index of each arrival slot; sequence `s` uses
    /// `order[s % order.len()]`.
    pub order: Vec<u32>,
    /// Routes the datapath is configured with (daemon workloads render
    /// them as `route =` lines).
    pub routes: Vec<Ipv6Prefix>,
    pub payload_mix: &'static str,
    pub programs: Vec<&'static str>,
}

/// Length of the sequence stamp at the end of every frame: the sequence
/// number and its complement, which also leaves the UDP checksum valid
/// (a word and its complement add to one's-complement zero).
pub const STAMP_LEN: usize = 8;

impl Input {
    pub fn template_of(&self, seq: u64) -> usize {
        self.order[(seq % self.order.len() as u64) as usize] as usize
    }

    /// Writes frame `seq` into the front of `out`; returns its length.
    pub fn frame_into(&self, seq: u64, out: &mut [u8]) -> usize {
        let template = &self.templates[self.template_of(seq)];
        let len = template.len();
        out[..len].copy_from_slice(template);
        stamp(&mut out[..len], seq as u32);
        len
    }

    pub fn frame(&self, seq: u64) -> Vec<u8> {
        let mut out = self.templates[self.template_of(seq)].clone();
        stamp(&mut out, seq as u32);
        out
    }

    /// Distinct 5-tuples among the templates.
    pub fn flow_count(&self) -> usize {
        let flows: HashSet<_> = self.templates.iter().filter_map(|t| netpkt::flow_key(t)).collect();
        flows.len()
    }

    /// Share of arrivals whose destination equals the previous arrival's
    /// (one shard, so every arrival is on the same shard): the ceiling for
    /// the batch classify/route caches.
    pub fn dst_repeat_ratio(&self) -> f64 {
        let dst =
            |slot: usize| Ipv6Header::parse(&self.templates[self.order[slot] as usize]).map(|h| h.dst).ok();
        let n = self.order.len();
        let repeats = (0..n).filter(|&i| dst(i) == dst((i + n - 1) % n)).count();
        repeats as f64 / n as f64
    }
}

fn stamp(frame: &mut [u8], seq: u32) {
    let n = frame.len();
    frame[n - 8..n - 4].copy_from_slice(&seq.to_le_bytes());
    frame[n - 4..].copy_from_slice(&(!seq).to_le_bytes());
}

/// The sequence number stamped into an egress frame, if the stamp is
/// intact.
pub fn read_stamp(frame: &[u8]) -> Option<u32> {
    let n = frame.len();
    if n < STAMP_LEN {
        return None;
    }
    let seq = u32::from_le_bytes(frame[n - 8..n - 4].try_into().expect("4 bytes"));
    let check = u32::from_le_bytes(frame[n - 4..].try_into().expect("4 bytes"));
    (check == !seq).then_some(seq)
}

fn addr(s: &str) -> Ipv6Addr {
    s.parse().expect("static address")
}

fn host_in(prefix_hi: u64, iid: u64) -> Ipv6Addr {
    Ipv6Addr::from((u128::from(prefix_hi) << 64) | u128::from(iid))
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| if i + STAMP_LEN >= len { 0 } else { (i * 7) as u8 }).collect()
}

/// The router's own address and the SIDs/prefixes the pool workloads bind.
pub const LOCAL: &str = "fc00::1";
const SID_END: &str = "fc00::e0";
const SID_END_T: &str = "fc00::e1";
const SID_END_X: &str = "fc00::e2";
const SID_TAG: &str = "fc00::e3";
const SID_ADD_TLV: &str = "fc00::e4";
const END_T_TABLE: u32 = 100;
const END_X_NEXTHOP: &str = "fe80::2";
const OWD_PREFIX: &str = "2001:db8:a::/48";
const WRR_PREFIX: &str = "2001:db8:b::/48";
const OWD_DM_SID: &str = "fc00::d1";

/// Builds the workload's input from `seed`.
pub fn input(kind: Kind, seed: u64) -> Input {
    let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ kind as u64);
    match kind {
        Kind::FwdFib100k => plain_input(&mut rng, 100_000, 1 << 16),
        Kind::BpfInplace => inplace_input(&mut rng),
        Kind::BpfResize => resize_input(&mut rng),
    }
}

/// Plain IPv6/UDP, 64 B payload, destinations uniform over `routes`
/// random /64s under 2001:db8::/32.
fn plain_input(rng: &mut Rng, routes: usize, templates: usize) -> Input {
    let mut seen = HashSet::with_capacity(routes);
    let mut prefixes = Vec::with_capacity(routes);
    while prefixes.len() < routes {
        let hi = (0x2001_0db8u64 << 32) | (rng.next_u64() & 0xffff_ffff);
        if seen.insert(hi) {
            prefixes.push(hi);
        }
    }
    let body = payload(64);
    let mut frames = Vec::with_capacity(templates);
    for _ in 0..templates {
        let dst = host_in(prefixes[rng.below(routes as u64) as usize], rng.next_u64() | 1);
        let src = host_in(0x2001_0db8_ffff_0000, 1 + rng.below(1024));
        let sport = 1024 + rng.below(60_000) as u16;
        frames.push(build_ipv6_udp_packet(src, dst, sport, 5001, &body, 64).data().to_vec());
    }
    Input {
        masks: vec![None; frames.len()],
        order: (0..frames.len() as u32).collect(),
        templates: frames,
        routes: prefixes.iter().map(|&hi| Ipv6Prefix::new(host_in(hi, 0), 64).expect("/64")).collect(),
        payload_mix: "64 B",
        programs: Vec::new(),
    }
}

/// A plain IPv6/UDP frame towards 2001:db9::/32, which no workload
/// routes: every datapath drops it with `NoRoute`.
pub fn unrouted_frame() -> Vec<u8> {
    let (src, dst) = (addr("2001:db8:ffff::1"), addr("2001:db9::1"));
    build_ipv6_udp_packet(src, dst, 4000, 5001, &payload(64), 64).data().to_vec()
}

fn srv6_frame(sid: Ipv6Addr, dst: Ipv6Addr, src: Ipv6Addr, sport: u16, body: &[u8]) -> Vec<u8> {
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, dst]);
    build_srv6_udp_packet(src, &srh, sport, 5001, body, 64).data().to_vec()
}

/// SRv6 frames towards the four End.BPF SIDs, 256 flows arriving in trains
/// of 1..=16 back-to-back packets (what RSS steering hands one queue).
fn inplace_input(rng: &mut Rng) -> Input {
    let sids = [SID_END, SID_END_T, SID_END_X, SID_TAG].map(addr);
    let body = payload(64);
    // Every program gets the same share of templates, whatever the seed.
    let templates: Vec<Vec<u8>> = (0..256)
        .map(|i| {
            let sid = sids[i % sids.len()];
            let dst = host_in(0x2001_0db8_0000_0000 | rng.below(1 << 16), rng.next_u64() | 1);
            let src = host_in(0x2001_0db8_ffff_0000, 1 + rng.below(1024));
            srv6_frame(sid, dst, src, 1024 + rng.below(60_000) as u16, &body)
        })
        .collect();
    let mut order = Vec::with_capacity(1 << 16);
    while order.len() < 1 << 16 {
        let template = rng.below(templates.len() as u64) as u32;
        for _ in 0..1 + rng.below(16) {
            order.push(template);
        }
    }
    Input {
        masks: vec![None; templates.len()],
        templates,
        order,
        routes: vec!["2001:db8::/32".parse().expect("prefix"), "fe80::/64".parse().expect("prefix")],
        payload_mix: "64 B",
        programs: vec!["End", "End.T", "End.X", "Tag++"],
    }
}

/// A third each of add_tlv (End.BPF), owd_encap and wrr_encap (LWT xmit)
/// frames, payloads 64/512/1280 B, in seeded random order.
fn resize_input(rng: &mut Rng) -> Input {
    let sizes = [64usize, 512, 1280];
    let owd_base = 0x2001_0db8_000a_0000u64;
    let wrr_base = 0x2001_0db8_000b_0000u64;
    let mut templates = Vec::new();
    let mut masks = Vec::new();
    // Every (program, size) pair gets the same share of templates,
    // whatever the seed.
    for i in 0..768 {
        let body = payload(sizes[i % 3]);
        let src = host_in(0x2001_0db8_ffff_0000, 1 + rng.below(1024));
        let sport = 1024 + rng.below(60_000) as u16;
        let (frame, mask) = match (i / 3) % 3 {
            0 => {
                let dst = host_in(0x2001_0db8_0000_0000 | rng.below(1 << 16), rng.next_u64() | 1);
                (srv6_frame(addr(SID_ADD_TLV), dst, src, sport, &body), None)
            }
            1 => {
                let dst = host_in(owd_base | rng.below(1 << 16), rng.next_u64() | 1);
                // The DM TLV's TX timestamp is clock-filled: outer header,
                // then the pushed SRH with the timestamp after the TLV's
                // type/length bytes.
                let at = 40 + progs::OWD_DM_TLV_OFFSET + 2;
                (build_ipv6_udp_packet(src, dst, sport, 5001, &body, 64).data().to_vec(), Some((at, at + 8)))
            }
            _ => {
                let dst = host_in(wrr_base | rng.below(1 << 16), rng.next_u64() | 1);
                (build_ipv6_udp_packet(src, dst, sport, 5001, &body, 64).data().to_vec(), None)
            }
        };
        templates.push(frame);
        masks.push(mask);
    }
    let order = (0..1 << 16).map(|_| rng.below(templates.len() as u64) as u32).collect();
    Input {
        templates,
        masks,
        order,
        routes: vec!["2001:db8::/32".parse().expect("prefix"), "fc00::/16".parse().expect("prefix")],
        payload_mix: "64/512/1280 B, a third each",
        programs: vec!["add_tlv", "owd_encap(ratio 1)", "wrr_encap(3:1)"],
    }
}

/// A pool workload's datapath, with handles the per-layer replay needs.
pub struct Built {
    pub dp: Seg6Datapath,
    /// Every loaded program, by name.
    pub progs: Vec<Arc<LoadedProgram>>,
    /// End.BPF SIDs and their programs.
    pub end_bpf: HashMap<Ipv6Addr, Arc<LoadedProgram>>,
    /// Time spent in `ebpf_vm::program::load` (verify + compile).
    pub load_ns: u64,
}

fn load_timed(
    program: Program,
    maps: &HashMap<u32, ebpf_vm::maps::MapHandle>,
    dp: &Seg6Datapath,
    load_ns: &mut u64,
) -> Arc<LoadedProgram> {
    let t = Instant::now();
    let prog = load(program, maps, &dp.helpers).expect("shipped program verifies");
    *load_ns += t.elapsed().as_nanos() as u64;
    prog
}

/// Builds a pool workload's datapath from scratch: fresh programs and
/// fresh maps. `tier` forces every program onto one execution tier (the
/// oracle's interpreter); `None` keeps the loader's default.
pub fn build_pool_datapath(kind: Kind, input: &Input, tier: Option<ExecTier>) -> Built {
    let mut dp = Seg6Datapath::new(addr(LOCAL));
    for prefix in &input.routes {
        dp.add_route(*prefix, vec![Nexthop::direct(1)]);
    }
    let mut load_ns = 0;
    let mut progs = Vec::new();
    let mut end_bpf = HashMap::new();
    let no_maps = HashMap::new();
    let mut bind = |dp: &mut Seg6Datapath, sid: &str, prog: Arc<LoadedProgram>| {
        dp.add_local_sid(Ipv6Prefix::host(addr(sid)), Seg6LocalAction::EndBpf { prog: Arc::clone(&prog) });
        end_bpf.insert(addr(sid), prog);
    };
    match kind {
        Kind::BpfInplace => {
            dp.add_route_in_table(
                END_T_TABLE,
                "2001:db8::/32".parse().expect("prefix"),
                vec![Nexthop::direct(1)],
            );
            for (sid, program) in [
                (SID_END, progs::end_program()),
                (SID_END_T, progs::end_t_program(END_T_TABLE)),
                (SID_END_X, progs::end_x_program(addr(END_X_NEXTHOP))),
                (SID_TAG, progs::tag_increment_program()),
            ] {
                let prog = load_timed(program, &no_maps, &dp, &mut load_ns);
                progs.push(Arc::clone(&prog));
                bind(&mut dp, sid, prog);
            }
        }
        Kind::BpfResize => {
            let prog = load_timed(progs::add_tlv_program(), &no_maps, &dp, &mut load_ns);
            progs.push(Arc::clone(&prog));
            bind(&mut dp, SID_ADD_TLV, prog);
            let owd = progs::owd_encap_program(progs::OwdEncapConfig {
                dm_sid: addr(OWD_DM_SID),
                controller: addr("fc00::c1"),
                controller_port: 9999,
                ratio: 1,
            });
            let owd = load_timed(owd, &no_maps, &dp, &mut load_ns);
            let (state, config) = progs::wrr_maps(3, 1, addr("fc00::a0"), addr("fc00::a1"));
            let maps = HashMap::from([(1, state), (2, config)]);
            let wrr = load_timed(progs::wrr_encap_program(1, 2), &maps, &dp, &mut load_ns);
            for (prefix, prog) in [(OWD_PREFIX, owd), (WRR_PREFIX, wrr)] {
                progs.push(Arc::clone(&prog));
                dp.attach_lwt_bpf(
                    prefix.parse().expect("prefix"),
                    LwtBpfAttachment { hook: LwtHook::Xmit, prog },
                );
            }
        }
        Kind::FwdFib100k => {}
    }
    if let Some(tier) = tier {
        for prog in &progs {
            prog.set_exec_tier(tier);
        }
    }
    Built { dp, progs, end_bpf, load_ns }
}

/// The core both threads run on: the generator/dispatcher and the worker
/// shard. On a 2-vCPU VM a flush that wakes a worker parked on the other
/// vCPU pays an inter-processor wake-up of a halted vCPU (20-30 us here),
/// and left to the scheduler the two threads share a core in some runs and
/// not in others, which moves latency and throughput several-fold between
/// runs. One shared core makes every flush hand-off a same-core switch
/// and leaves the other core to the rest of the host. On a one-core host
/// the pins fail and both threads float.
pub const CORE: u32 = 1;

/// The daemon config for a daemon workload: one tenant, one RX queue, one
/// egress interface, every route on it.
pub fn config_text(input: &Input) -> String {
    let mut text = format!(
        "[daemon]\nworkers = 1\nbatch-size = 32\nqueue-depth = 1024\nrx-burst = 64\npin = {CORE}\n\
         pin-dispatcher = {CORE}\n\
         [tenant edge]\nlocal = {LOCAL}\nlisten = [::1]:47000\npeer = 1 [::1]:47100\n"
    );
    text.reserve(input.routes.len() * 40);
    for prefix in &input.routes {
        text.push_str(&format!("route = {prefix} dev 1\n"));
    }
    text
}

/// The oracle's datapath for a daemon workload, built from the parsed
/// config the daemon itself was started with.
pub fn datapath_from_config(cfg: &srv6d::Config) -> Seg6Datapath {
    let tenant = &cfg.tenants[0];
    let mut dp = Seg6Datapath::new(tenant.local);
    for route in &tenant.routes {
        let nexthop = match route.gateway {
            Some(gw) => Nexthop::via(gw, route.oif),
            None => Nexthop::direct(route.oif),
        };
        dp.add_route(route.prefix, vec![nexthop]);
    }
    dp
}
