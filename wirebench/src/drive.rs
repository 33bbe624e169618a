//! The system under test behind one interface, and the load generator
//! that drives it: a closed loop with a fixed in-flight window, and an
//! open loop at a fixed rate. The generator and the daemon's poll loop
//! share the calling thread; the pool adds its one worker thread.

use crate::trace::{Tracer, ROOT};
use crate::workload::{self, Input, Kind};
use netpkt::sockio::FrameBatch;
use seg6_core::Verdict;
use seg6_runtime::{Ingress, PinPolicy, PoolConfig, WorkerPool};
use srv6d::{Config, MemBackend, Srv6Daemon};
use std::time::{Duration, Instant};

/// Frames the generator hands over per call, and the most it sends in one
/// loop pass however late it runs.
pub const BURST: usize = 64;
/// Largest frame any workload produces, encapsulations included.
const FRAME_CAP: usize = 2048;
/// A closed loop that sees no progress for this long declares its
/// in-flight frames lost (they then count as missing).
const STALL: Duration = Duration::from_millis(200);

/// The two ways the benchmark reaches the serving stack.
pub enum Sut {
    /// `srv6d` on the in-memory backend: frames injected at the tenant's RX
    /// queue, drained from its egress interface.
    Mem { daemon: Box<Srv6Daemon>, mem: MemBackend, drain: FrameBatch },
    /// The worker pool alone, fed through `Ingress::enqueue_bytes_all`.
    Pool { pool: Box<WorkerPool>, pending: usize, epoch: Instant },
}

/// What one `pump` moved.
#[derive(Default, Clone, Copy)]
pub struct Pumped {
    /// Frames the system took in (read off its RX queue, or flushed).
    pub consumed: usize,
    /// Forwarded packets the daemon could not emit.
    pub tx_drops: usize,
    /// Packets the datapath did not forward (pool only; the daemon
    /// recycles them silently and the oracle finds them missing).
    pub not_forwarded: usize,
}

impl Sut {
    pub fn daemon(&self) -> Option<&Srv6Daemon> {
        match self {
            Sut::Mem { daemon, .. } => Some(daemon.as_ref()),
            Sut::Pool { .. } => None,
        }
    }

    pub fn pool(&self) -> &WorkerPool {
        match self {
            Sut::Mem { daemon, .. } => daemon.pool(),
            Sut::Pool { pool, .. } => pool,
        }
    }

    /// Hands a burst to the system; returns how many frames it accepted
    /// (the rest were refused at the door and count as failed).
    pub fn offer(&mut self, batch: &FrameBatch, tr: &mut Option<&mut Tracer>, parent: u32, id: u64) -> usize {
        match self {
            Sut::Mem { mem, .. } => {
                let span = tr.as_mut().map(|t| t.begin("harness.inject", parent, id));
                let accepted = batch.frames().filter(|f| mem.inject("edge", 0, f)).count();
                if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                    t.end(s, batch.len() as u64);
                }
                accepted
            }
            Sut::Pool { pool, pending, epoch } => {
                let now = epoch.elapsed().as_nanos() as u64;
                let span = tr.as_mut().map(|t| t.begin("seg6_runtime.enqueue_bytes_all", parent, id));
                let admitted = pool.enqueue_bytes_all(now, batch.frames());
                if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                    t.end(s, batch.len() as u64);
                }
                *pending += admitted;
                admitted
            }
        }
    }

    /// One service step: the daemon's poll pass (or a pool flush), then
    /// every egress frame handed to `sink` with its interface.
    pub fn pump(
        &mut self,
        sink: &mut dyn FnMut(&[u8], u32),
        tr: &mut Option<&mut Tracer>,
        parent: u32,
        id: u64,
    ) -> Pumped {
        let mut out = Pumped::default();
        match self {
            Sut::Mem { daemon, mem, drain } => {
                let span = tr.as_mut().map(|t| t.begin("srv6d.service", parent, id));
                let pass = daemon.service();
                if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                    t.end(s, pass.rx_frames as u64);
                }
                out.consumed = pass.rx_frames;
                out.tx_drops = pass.tx_drops;
                loop {
                    let span = tr.as_mut().map(|t| t.begin("harness.drain_egress", parent, id));
                    drain.clear();
                    let got = mem.drain_egress("edge", 1, drain);
                    if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                        t.end(s, got as u64);
                    }
                    sink_all(drain, sink, tr, parent, id);
                    if got < drain.capacity() {
                        break;
                    }
                }
            }
            Sut::Pool { pool, pending, .. } => {
                if *pending == 0 {
                    return out;
                }
                let span = tr.as_mut().map(|t| t.begin("seg6_runtime.flush", parent, id));
                let report = pool.flush();
                if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                    t.end(s, *pending as u64);
                }
                out.consumed = std::mem::take(pending);
                let span = tr.as_mut().map(|t| t.begin("harness.check", parent, id));
                for window in report.outputs {
                    for (_, skb, verdict) in window {
                        match verdict.verdict {
                            Verdict::Forward { oif, .. } => sink(skb.packet.data(), oif),
                            _ => out.not_forwarded += 1,
                        }
                        pool.recycle(skb.into_packet());
                    }
                }
                if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                    t.end(s, out.consumed as u64);
                }
            }
        }
        out
    }
}

/// Hands every frame of an egress batch to the checker, in a
/// `harness.check` span.
fn sink_all(
    batch: &FrameBatch,
    sink: &mut dyn FnMut(&[u8], u32),
    tr: &mut Option<&mut Tracer>,
    parent: u32,
    id: u64,
) {
    if batch.is_empty() {
        return;
    }
    let span = tr.as_mut().map(|t| t.begin("harness.check", parent, id));
    for frame in batch.frames() {
        sink(frame, 1);
    }
    if let (Some(t), Some(s)) = (tr.as_mut(), span) {
        t.end(s, batch.len() as u64);
    }
}

/// How a daemon or pool was brought up, timed.
pub struct Setup {
    pub sut: Sut,
    /// When set-up began: after the config text was rendered, before it
    /// is parsed (daemon), or before the datapath is built (pool).
    pub began: Instant,
    /// `Config::parse` (daemon workloads).
    pub parse_ns: u64,
    /// `Srv6Daemon::start` (daemon) or `WorkerPool` spawn (pool).
    pub start_ns: u64,
    /// `ebpf_vm::program::load` calls (pool workloads).
    pub load_ns: u64,
    /// The pool workload's datapath handles (programs, SIDs).
    pub built: Option<workload::Built>,
}

/// The pool shape of every pool the benchmark builds: one worker, outputs
/// collected, pinned next to the generator on [`workload::CORE`].
pub fn pool_config(queue_depth: usize) -> PoolConfig {
    PoolConfig {
        workers: 1,
        queue_depth,
        collect_outputs: true,
        pinning: PinPolicy::Explicit(vec![workload::CORE]),
        pin_dispatcher: Some(workload::CORE),
        ..Default::default()
    }
}

/// Brings the workload's system up from in-memory config or programs.
/// `queue_depth` sizes the pool's rings (the self-test shrinks it).
pub fn bring_up(kind: Kind, input: &Input, queue_depth: usize) -> Setup {
    match kind {
        Kind::FwdFib100k => {
            let text = workload::config_text(input);
            let t0 = Instant::now();
            let cfg = Config::parse(&text).expect("generated config parses");
            let t1 = Instant::now();
            let mem = MemBackend::new(4096);
            let daemon = Box::new(Srv6Daemon::start(cfg, Box::new(mem.clone())).expect("daemon starts"));
            let sut = Sut::Mem { daemon, mem, drain: FrameBatch::new(BURST, FRAME_CAP) };
            let t2 = Instant::now();
            Setup {
                sut,
                began: t0,
                parse_ns: (t1 - t0).as_nanos() as u64,
                start_ns: (t2 - t1).as_nanos() as u64,
                load_ns: 0,
                built: None,
            }
        }
        Kind::BpfInplace | Kind::BpfResize => {
            let began = Instant::now();
            let built = workload::build_pool_datapath(kind, input, None);
            let t = Instant::now();
            let pool = WorkerPool::from_datapath(pool_config(queue_depth), &built.dp);
            let start_ns = t.elapsed().as_nanos() as u64;
            Setup {
                sut: Sut::Pool { pool: Box::new(pool), pending: 0, epoch: Instant::now() },
                began,
                parse_ns: 0,
                start_ns,
                load_ns: built.load_ns,
                built: Some(built),
            }
        }
    }
}

/// A deliberate fault the self-test injects between the system and the
/// checker.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one byte of one egress frame.
    CorruptByte,
    /// Lose one egress frame.
    DropFrame,
}

/// Which egress frame a fault hits.
const FAULT_AT: u64 = 1000;

/// Egress bookkeeping: one digest per offered sequence number, compared
/// with the oracle's after the run.
pub struct Checker {
    /// Digest of the egress frame carrying each sequence number; 0 = none
    /// seen yet.
    pub digests: Vec<u64>,
    /// Egress frames with a broken stamp, an unknown sequence number, or a
    /// sequence number seen twice.
    pub extra: u64,
    pub delivered: u64,
    /// Sequence numbers that egressed during the current pump.
    pub just_out: Vec<u32>,
    pub fault: Fault,
}

impl Checker {
    pub fn new(fault: Fault) -> Self {
        Checker {
            digests: Vec::new(),
            extra: 0,
            delivered: 0,
            just_out: Vec::with_capacity(4 * BURST),
            fault,
        }
    }

    pub fn sink(&mut self, input: &Input, frame: &[u8], oif: u32) {
        self.delivered += 1;
        let mut corrupted;
        let mut frame = frame;
        if self.fault != Fault::None && self.delivered == FAULT_AT {
            if self.fault == Fault::DropFrame {
                return;
            }
            corrupted = frame.to_vec();
            corrupted[20] ^= 0x40;
            frame = &corrupted;
        }
        let Some(seq) = workload::read_stamp(frame) else {
            self.extra += 1;
            return;
        };
        match self.digests.get_mut(seq as usize) {
            Some(slot) if *slot == 0 => {
                *slot = digest(frame, input.masks[input.template_of(u64::from(seq))], oif);
                self.just_out.push(seq);
            }
            _ => self.extra += 1,
        }
    }
}

/// A 64-bit digest of an egress frame and its interface, with the masked
/// byte range read as zeros. Each 8-byte word goes through a bijective
/// step, so frames differing in one word always digest differently.
pub fn digest(frame: &[u8], mask: Option<(usize, usize)>, oif: u32) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ (u64::from(oif) << 32) ^ frame.len() as u64;
    let mut word = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut chunks = frame.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let mut w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        if let Some((lo, hi)) = mask {
            for b in 0..8 {
                if (lo..hi).contains(&(at + b)) {
                    w &= !(0xffu64 << (8 * b));
                }
            }
        }
        word(w);
        at += 8;
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    word(u64::from_le_bytes(tail));
    h
}

/// Closed-loop result.
pub struct Closed {
    /// Delivered frames per second.
    pub pps: f64,
    pub delivered: u64,
    pub elapsed: Duration,
    /// Non-empty pumps (daemon poll passes that moved frames, or flushes).
    pub busy_pumps: u64,
    pub tx_drops: u64,
}

/// Open-loop results, accumulated over every open-loop round at one rate.
#[derive(Default)]
pub struct Open {
    /// Per round: p50 and p90 latency in microseconds.
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    /// Every latency sample, nanoseconds.
    pub all: Vec<u32>,
    /// How late the generator handed each frame over, nanoseconds.
    pub late: Vec<u32>,
}

impl Open {
    /// Sorts the pooled samples; call once, after the last round.
    pub fn finish(&mut self) {
        self.all.sort_unstable();
        self.late.sort_unstable();
    }
}

/// The load generator and everything it tracks across phases.
pub struct LoadGen<'a> {
    pub input: &'a Input,
    pub sut: Sut,
    pub checker: Checker,
    /// Next sequence number to offer (= frames offered so far).
    pub next_seq: u64,
    accepted: u64,
    consumed: u64,
    /// Sequence numbers refused at the door.
    pub refused: Vec<u64>,
    burst: FrameBatch,
    window: usize,
    /// Frames declared lost by a stalled loop.
    pub lost: u64,
    pub not_forwarded: u64,
}

impl<'a> LoadGen<'a> {
    /// `capacity` is the most frames the run is expected to offer; the
    /// digest table is reserved for it up front (untouched pages cost
    /// nothing), so the table does not stall the generator with a
    /// reallocation while it grows.
    pub fn new(input: &'a Input, sut: Sut, window: usize, fault: Fault, capacity: usize) -> Self {
        let mut checker = Checker::new(fault);
        checker.digests.reserve_exact(capacity);
        LoadGen {
            input,
            sut,
            checker,
            next_seq: 0,
            accepted: 0,
            consumed: 0,
            refused: Vec::new(),
            burst: FrameBatch::new(BURST, FRAME_CAP),
            window,
            lost: 0,
            not_forwarded: 0,
        }
    }

    /// Offers the next `n` frames as one burst.
    fn offer(&mut self, n: usize, tr: &mut Option<&mut Tracer>, parent: u32) -> usize {
        let span = tr.as_mut().map(|t| t.begin("harness.gen", parent, self.next_seq));
        self.burst.clear();
        for i in 0..n as u64 {
            let slot = self.burst.begin_frame().expect("burst has room");
            let len = self.input.frame_into(self.next_seq + i, slot);
            self.burst.commit_frame(len);
        }
        if let (Some(t), Some(s)) = (tr.as_mut(), span) {
            t.end(s, n as u64);
        }
        let first = self.next_seq;
        let accepted = self.sut.offer(&self.burst, tr, parent, first);
        self.checker.digests.resize(self.checker.digests.len() + n, 0);
        // Transports refuse a burst's tail: the mem link fills up, the
        // ring runs out of slots.
        self.refused.extend(first + accepted as u64..first + n as u64);
        self.next_seq += n as u64;
        self.accepted += accepted as u64;
        accepted
    }

    fn pump(&mut self, tr: &mut Option<&mut Tracer>, parent: u32) -> Pumped {
        let input = self.input;
        let checker = &mut self.checker;
        checker.just_out.clear();
        let mut sink = |frame: &[u8], oif: u32| checker.sink(input, frame, oif);
        let pumped = self.sut.pump(&mut sink, tr, parent, self.next_seq);
        self.consumed += pumped.consumed as u64;
        self.not_forwarded += pumped.not_forwarded as u64;
        pumped
    }

    /// Offers frame 0 and pumps until it comes back out: the end of
    /// set-up.
    pub fn first_packet(&mut self) {
        self.offer(1, &mut None, ROOT);
        let start = Instant::now();
        while self.checker.delivered == 0 && start.elapsed() < Duration::from_secs(5) {
            self.pump(&mut None, ROOT);
        }
    }

    /// Pumps until everything accepted has been taken in and a few passes
    /// in a row move nothing.
    pub fn settle(&mut self) {
        let start = Instant::now();
        let mut quiet = 0;
        while quiet < 3 && start.elapsed() < STALL {
            let delivered = self.checker.delivered;
            self.pump(&mut None, ROOT);
            if self.consumed >= self.accepted && self.checker.delivered == delivered {
                quiet += 1;
            } else {
                quiet = 0;
            }
        }
        if self.consumed < self.accepted {
            self.lost += self.accepted - self.consumed;
            self.consumed = self.accepted;
        }
    }

    /// Closed loop: keep `window` frames in flight for `duration`. With a
    /// tracer, every loop pass is an `iteration` span around the layer
    /// calls.
    pub fn closed_loop(&mut self, duration: Duration, mut tr: Option<&mut Tracer>) -> Closed {
        let start = Instant::now();
        let delivered0 = self.checker.delivered;
        let mut busy_pumps = 0;
        let mut tx_drops = 0;
        let mut last_progress = start;
        let mut iteration = 0u64;
        loop {
            let span = tr.as_mut().map(|t| t.begin("harness.iteration", ROOT, iteration));
            let parent = span.as_ref().map_or(ROOT, |s| s.index);
            while (self.accepted - self.consumed) < self.window as u64 {
                let n = BURST.min(self.window - (self.accepted - self.consumed) as usize);
                if self.offer(n, &mut tr, parent) == 0 {
                    break;
                }
            }
            let pumped = self.pump(&mut tr, parent);
            if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                t.end(s, pumped.consumed as u64);
            }
            iteration += 1;
            let now = Instant::now();
            if pumped.consumed > 0 {
                busy_pumps += 1;
                tx_drops += pumped.tx_drops as u64;
                last_progress = now;
            } else if now - last_progress > STALL {
                self.lost += self.accepted - self.consumed;
                self.consumed = self.accepted;
                last_progress = now;
            }
            if now - start >= duration {
                break;
            }
        }
        let elapsed = start.elapsed();
        let delivered = self.checker.delivered - delivered0;
        self.settle();
        Closed { pps: delivered as f64 / elapsed.as_secs_f64(), delivered, elapsed, busy_pumps, tx_drops }
    }

    /// Open loop at `rate` frames per second for `duration`: frame `k` of
    /// the phase is due at `k / rate`, and its latency runs from that due
    /// time to the pump that brought it out. At most one in-flight window
    /// is handed over per pass, so a late generator catches up gradually
    /// and its lateness lands in the latency of the frames it delayed.
    pub fn open_loop(&mut self, rate: f64, duration: Duration, acc: &mut Open) {
        let base = self.next_seq;
        let total = (rate * duration.as_secs_f64()) as u64;
        let due_ns = |k: u64| (k as f64 * 1e9 / rate) as u64;
        let mut lat: Vec<u32> = Vec::with_capacity(total as usize);
        acc.late.reserve(total as usize);
        let start = Instant::now();
        let mut sent = 0u64;
        let record = |checker: &Checker, lat: &mut Vec<u32>, now_ns: u64| {
            for &seq in &checker.just_out {
                let k = u64::from(seq).wrapping_sub(base);
                if k < total {
                    lat.push(now_ns.saturating_sub(due_ns(k)).min(u64::from(u32::MAX)) as u32);
                }
            }
        };
        while sent < total {
            let now_ns = start.elapsed().as_nanos() as u64;
            let due = ((now_ns as f64 * rate / 1e9) as u64 + 1).min(total);
            // Catch up by at most one in-flight window per pass.
            let mut room = self.window as u64;
            while due > sent && room > 0 {
                let n = (due - sent).min(BURST as u64).min(room);
                for k in sent..sent + n {
                    acc.late.push(now_ns.saturating_sub(due_ns(k)).min(u64::from(u32::MAX)) as u32);
                }
                self.offer(n as usize, &mut None, ROOT);
                sent += n;
                room -= n;
            }
            self.pump(&mut None, ROOT);
            record(&self.checker, &mut lat, start.elapsed().as_nanos() as u64);
        }
        // Drain the tail, still timing it.
        let tail = Instant::now();
        while self.consumed < self.accepted && tail.elapsed() < STALL {
            self.pump(&mut None, ROOT);
            record(&self.checker, &mut lat, start.elapsed().as_nanos() as u64);
        }
        self.settle();
        acc.all.extend_from_slice(&lat);
        lat.sort_unstable();
        if !lat.is_empty() {
            acc.p50_us.push(pct(&lat, 0.50) / 1e3);
            acc.p90_us.push(pct(&lat, 0.90) / 1e3);
        }
    }
}

/// The `q` quantile of sorted nanosecond samples (nearest rank).
pub fn pct(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}
