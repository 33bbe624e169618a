//! Per-layer replays for the traced run.
//!
//! The single-thread replay runs the same seeded frames through each
//! layer's public function in batches of 32, one span per layer call per
//! batch, one layer at a time over all batches. A child layer the replay cannot reach from inside its parent
//! (the FIB inside `process_batch_verdicts_into`, the VM inside
//! `run_end_bpf`) is called as a sibling span on the same input, under
//! the same batch id, and the parent's self time is the difference.
//!
//! The pool-only replay feeds the daemon's datapath to a bare
//! `WorkerPool` in the daemon's burst size, so the daemon's own share of
//! `service` can be told from the pool's.

use crate::drive::digest;
use crate::trace::{Tracer, ROOT};
use crate::workload::Input;
use ebpf_vm::program::LoadedProgram;
use ebpf_vm::vm::{run_program_with_state, RunContext, RunState};
use netpkt::{rss_hash_packet, Ipv6Header, PacketBuf};
use seg6_core::fib::flow_hash;
use seg6_core::seg6local::{apply_action, run_end_bpf, ActionCtx};
use seg6_core::{
    ctx, lwt_bpf::run_lwt_bpf, srv6_ops, BatchVerdict, FibCache, LwtBpfAttachment, LwtHook, RunScratch,
    Seg6Datapath, Seg6Env, Seg6LocalAction, Skb, Verdict, MAIN_TABLE,
};
use seg6_runtime::{Ingress, WorkerPool};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::sync::Arc;

const BATCH: usize = 32;

/// The layer calls the single-thread replay times, in order.
#[derive(Clone, Copy)]
enum Layer {
    Parse,
    RssHash,
    Fib,
    Process,
    EndBpf,
    StaticEnd,
    ExecEndBpf,
    Lwt,
    ExecLwt,
    Digest,
}

const LAYERS: [Layer; 10] = [
    Layer::Parse,
    Layer::RssHash,
    Layer::Fib,
    Layer::Process,
    Layer::EndBpf,
    Layer::StaticEnd,
    Layer::ExecEndBpf,
    Layer::Lwt,
    Layer::ExecLwt,
    Layer::Digest,
];
const HEADROOM: usize = 256;

fn skb_of(frame: &[u8]) -> Skb {
    let mut packet = PacketBuf::with_headroom(HEADROOM);
    packet.append(frame);
    Skb::new(packet)
}

/// Which program a frame meets, found by classifying its destination the
/// way the datapath does.
enum Meets {
    None,
    EndBpf(Ipv6Addr, Arc<LoadedProgram>),
    Lwt(LwtBpfAttachment),
}

/// The context a wrapper hands the VM: the working packet copy, the
/// environment and the context bytes, built as `run_end_bpf` /
/// `run_lwt_bpf` build them.
struct Prepared {
    packet: Vec<u8>,
    env: Seg6Env,
    ctx: Vec<u8>,
}

fn prepare_end_bpf(frame: &[u8], sid: Ipv6Addr, dp: &Seg6Datapath) -> Option<Prepared> {
    let mut packet = frame.to_vec();
    srv6_ops::advance_srh(&mut packet).ok()?;
    let (srh_off, _) = srv6_ops::find_srh(&packet)?;
    let header = Ipv6Header::parse(&packet).ok()?;
    let env = Seg6Env::new(sid, Arc::clone(&dp.tables), 0)
        .with_srh_offset(srh_off)
        .with_flow_hash(flow_hash(header.src, header.dst, header.flow_label))
        .with_cpu(0);
    let mut ctx_bytes = Vec::new();
    ctx::build_context_into(&skb_of(frame), &mut ctx_bytes);
    ctx::refresh_packet_len(&mut ctx_bytes, packet.len());
    Some(Prepared { packet, env, ctx: ctx_bytes })
}

fn prepare_lwt(frame: &[u8], dp: &Seg6Datapath) -> Option<Prepared> {
    let packet = frame.to_vec();
    let header = Ipv6Header::parse(&packet).ok()?;
    let mut env = Seg6Env::new(dp.local_addr, Arc::clone(&dp.tables), 0)
        .with_flow_hash(flow_hash(header.src, header.dst, header.flow_label))
        .with_cpu(0);
    env.srh_offset = srv6_ops::find_srh(&packet).map(|(off, _)| off);
    let mut ctx_bytes = Vec::new();
    ctx::build_context_into(&skb_of(frame), &mut ctx_bytes);
    Some(Prepared { packet, env, ctx: ctx_bytes })
}

/// Per-packet figures from the single-thread replay, in nanoseconds.
#[derive(Default, Debug)]
pub struct Replay {
    pub parse_ns: f64,
    pub rss_hash_ns: f64,
    pub fib_lookup_ns: f64,
    pub process_ns: f64,
    /// `process_ns` minus the sibling layers it contains (parse, FIB,
    /// End.BPF and LWT wrappers), per packet.
    pub process_self_ns: f64,
    pub end_bpf_ns: f64,
    pub static_end_ns: f64,
    pub lwt_bpf_ns: f64,
    /// VM time per run on the End.BPF wrapper's context.
    pub exec_end_ns: f64,
    /// VM time per run on the LWT wrapper's context.
    pub exec_lwt_ns: f64,
    /// VM time per run over both.
    pub exec_ns: f64,
    pub check_ns: f64,
    pub end_bpf_share: f64,
    pub lwt_share: f64,
}

/// Runs the first `frames` frames of the input through each layer
/// `passes` times, recording spans into `tr`.
pub fn replay(
    input: &Input,
    dp: &mut Seg6Datapath,
    end_bpf: &HashMap<Ipv6Addr, Arc<LoadedProgram>>,
    frames: u64,
    passes: usize,
    tr: &mut Tracer,
) -> Replay {
    let all: Vec<Vec<u8>> = (0..frames).map(|seq| input.frame(seq)).collect();
    let meets: Vec<Meets> = all
        .iter()
        .map(|f| {
            let dst = Ipv6Header::parse(f).expect("generated frame parses").dst;
            if let Some(prog) = end_bpf.get(&dst) {
                Meets::EndBpf(dst, Arc::clone(prog))
            } else if let Some(att) = dp.lwt_bpf.lookup(dst, LwtHook::Xmit) {
                Meets::Lwt(att.clone())
            } else {
                Meets::None
            }
        })
        .collect();
    // The FIB key of each frame: the destination it is routed on after
    // its action ran, and the flow hash the datapath uses.
    let mut probe = dp.fork_for_cpu(0);
    let keys: Vec<(Ipv6Addr, u64)> = all
        .iter()
        .map(|f| {
            let header = Ipv6Header::parse(f).expect("generated frame parses");
            let mut skb = skb_of(f);
            probe.process(&mut skb, 0);
            let dst = srv6_ops::outer_dst(skb.packet.data()).unwrap_or(header.dst);
            (dst, flow_hash(header.src, header.dst, header.flow_label))
        })
        .collect();
    let masks: Vec<_> = (0..frames).map(|seq| input.masks[input.template_of(seq)]).collect();

    let helpers = dp.helpers.clone();
    let tables = Arc::clone(&dp.tables);
    // The datapath's own lookup path: the lock-free snapshot of the
    // tables (`RouterTables::lookup_main` would add a lock and a table-map
    // probe the datapath never pays).
    let mut fib = FibCache::new();
    fib.refresh(&tables);
    let mut scratch = RunScratch::new();
    let mut state = RunState::new(0);
    let mut verdicts: Vec<BatchVerdict> = Vec::with_capacity(BATCH);
    let mut counts = [0u64; 2];
    let batches: Vec<std::ops::Range<usize>> =
        (0..all.len()).step_by(BATCH).map(|start| start..(start + BATCH).min(all.len())).collect();
    let bpf_in = |range: &std::ops::Range<usize>| -> Vec<usize> {
        range.clone().filter(|&i| matches!(meets[i], Meets::EndBpf(..))).collect()
    };
    let lwt_in = |range: &std::ops::Range<usize>| -> Vec<usize> {
        range.clone().filter(|&i| matches!(meets[i], Meets::Lwt(_))).collect()
    };
    let actx =
        |sid: Ipv6Addr| ActionCtx { local_sid: sid, tables: &tables, helpers: &helpers, now_ns: 0, cpu: 0 };
    // Layer-major: each layer runs over every batch before the next layer
    // starts, so every layer meets the caches the same way (a layer that
    // ran right after another on the same batch would find that batch's
    // FIB paths already cached).
    for pass in 0..passes {
        for layer in LAYERS {
            let span = tr.begin("replay.layer", ROOT, pass as u64);
            for (id, range) in batches.iter().enumerate() {
                let id = id as u64;
                let n = range.len() as u64;
                let parent = span.index;
                let timed = |tr: &mut Tracer, name: &'static str, items: u64, f: &mut dyn FnMut()| {
                    let t0 = tr.now();
                    f();
                    let t1 = tr.now();
                    tr.record(name, t0, t1, parent, id, items);
                };
                match layer {
                    Layer::Parse => timed(tr, "netpkt.parse", n, &mut || {
                        for f in &all[range.clone()] {
                            black_box(Ipv6Header::parse(black_box(f)).ok());
                        }
                    }),
                    Layer::RssHash => timed(tr, "netpkt.rss_hash", n, &mut || {
                        for f in &all[range.clone()] {
                            black_box(rss_hash_packet(black_box(f)));
                        }
                    }),
                    Layer::Fib => timed(tr, "seg6_core.fib_lookup", n, &mut || {
                        for &(dst, hash) in &keys[range.clone()] {
                            black_box(fib.lookup(MAIN_TABLE, black_box(dst), hash));
                        }
                    }),
                    Layer::Process => {
                        let mut skbs: Vec<Skb> = all[range.clone()].iter().map(|f| skb_of(f)).collect();
                        verdicts.clear();
                        timed(tr, "seg6_core.process_batch_verdicts_into", n, &mut || {
                            dp.process_batch_verdicts_into(&mut skbs, 0, &mut verdicts);
                        });
                        assert!(
                            verdicts.iter().all(|v| matches!(v.verdict, Verdict::Forward { .. })),
                            "the replay's frames all forward"
                        );
                    }
                    Layer::EndBpf => {
                        let bpf = bpf_in(range);
                        if bpf.is_empty() {
                            continue;
                        }
                        let mut skbs: Vec<Skb> = bpf.iter().map(|&i| skb_of(&all[i])).collect();
                        timed(tr, "seg6_core.run_end_bpf", bpf.len() as u64, &mut || {
                            for (skb, &i) in skbs.iter_mut().zip(&bpf) {
                                let Meets::EndBpf(sid, prog) = &meets[i] else { unreachable!() };
                                black_box(run_end_bpf(skb, prog, &actx(*sid), &mut scratch));
                            }
                        });
                        counts[0] += bpf.len() as u64;
                    }
                    Layer::StaticEnd => {
                        let bpf = bpf_in(range);
                        if bpf.is_empty() {
                            continue;
                        }
                        let mut skbs: Vec<Skb> = bpf.iter().map(|&i| skb_of(&all[i])).collect();
                        timed(tr, "seg6_core.static_end", bpf.len() as u64, &mut || {
                            for (skb, &i) in skbs.iter_mut().zip(&bpf) {
                                let Meets::EndBpf(sid, _) = &meets[i] else { unreachable!() };
                                black_box(apply_action(
                                    &Seg6LocalAction::End,
                                    skb,
                                    &actx(*sid),
                                    &mut scratch,
                                ));
                            }
                        });
                    }
                    Layer::ExecEndBpf => {
                        let bpf = bpf_in(range);
                        if bpf.is_empty() {
                            continue;
                        }
                        let mut prepared: Vec<Prepared> = bpf
                            .iter()
                            .map(|&i| {
                                let Meets::EndBpf(sid, _) = &meets[i] else { unreachable!() };
                                prepare_end_bpf(&all[i], *sid, dp).expect("End.BPF frame carries an SRH")
                            })
                            .collect();
                        timed(tr, "ebpf_vm.exec.end_bpf", bpf.len() as u64, &mut || {
                            for (p, &i) in prepared.iter_mut().zip(&bpf) {
                                let Meets::EndBpf(_, prog) = &meets[i] else { unreachable!() };
                                let mut rc =
                                    RunContext { ctx: &mut p.ctx, packet: &mut p.packet, env: &mut p.env };
                                black_box(
                                    run_program_with_state(
                                        prog,
                                        &helpers,
                                        &mut rc,
                                        prog.exec_tier(),
                                        &mut state,
                                    )
                                    .ok(),
                                );
                            }
                        });
                    }
                    Layer::Lwt => {
                        let lwt = lwt_in(range);
                        if lwt.is_empty() {
                            continue;
                        }
                        let local = dp.local_addr;
                        let mut skbs: Vec<Skb> = lwt.iter().map(|&i| skb_of(&all[i])).collect();
                        timed(tr, "seg6_core.run_lwt_bpf", lwt.len() as u64, &mut || {
                            for (skb, &i) in skbs.iter_mut().zip(&lwt) {
                                let Meets::Lwt(att) = &meets[i] else { unreachable!() };
                                black_box(run_lwt_bpf(
                                    att,
                                    skb,
                                    local,
                                    &tables,
                                    &helpers,
                                    0,
                                    0,
                                    &mut scratch,
                                ));
                            }
                        });
                        counts[1] += lwt.len() as u64;
                    }
                    Layer::ExecLwt => {
                        let lwt = lwt_in(range);
                        if lwt.is_empty() {
                            continue;
                        }
                        let mut prepared: Vec<Prepared> = lwt
                            .iter()
                            .map(|&i| prepare_lwt(&all[i], dp).expect("LWT frame parses"))
                            .collect();
                        timed(tr, "ebpf_vm.exec.lwt", lwt.len() as u64, &mut || {
                            for (p, &i) in prepared.iter_mut().zip(&lwt) {
                                let Meets::Lwt(att) = &meets[i] else { unreachable!() };
                                let prog = &att.prog;
                                let mut rc =
                                    RunContext { ctx: &mut p.ctx, packet: &mut p.packet, env: &mut p.env };
                                black_box(
                                    run_program_with_state(
                                        prog,
                                        &helpers,
                                        &mut rc,
                                        prog.exec_tier(),
                                        &mut state,
                                    )
                                    .ok(),
                                );
                            }
                        });
                    }
                    Layer::Digest => timed(tr, "harness.digest", n, &mut || {
                        for i in range.clone() {
                            black_box(digest(&all[i], masks[i], 1));
                        }
                    }),
                }
            }
            tr.end(span, all.len() as u64);
        }
    }

    let per = |name: &str| tr.per_item(name);
    let total = (all.len() * passes) as f64;
    let mut r = Replay {
        parse_ns: per("netpkt.parse"),
        rss_hash_ns: per("netpkt.rss_hash"),
        fib_lookup_ns: per("seg6_core.fib_lookup"),
        process_ns: per("seg6_core.process_batch_verdicts_into"),
        end_bpf_ns: per("seg6_core.run_end_bpf"),
        static_end_ns: per("seg6_core.static_end"),
        lwt_bpf_ns: per("seg6_core.run_lwt_bpf"),
        exec_end_ns: per("ebpf_vm.exec.end_bpf"),
        exec_lwt_ns: per("ebpf_vm.exec.lwt"),
        check_ns: per("harness.digest"),
        end_bpf_share: counts[0] as f64 / total,
        lwt_share: counts[1] as f64 / total,
        ..Default::default()
    };
    let runs = counts[0] + counts[1];
    if runs > 0 {
        r.exec_ns =
            (tr.total("ebpf_vm.exec.end_bpf").0 + tr.total("ebpf_vm.exec.lwt").0) as f64 / runs as f64;
    }
    r.process_self_ns = r.process_ns
        - r.parse_ns
        - r.fib_lookup_ns
        - r.end_bpf_ns * r.end_bpf_share
        - r.lwt_bpf_ns * r.lwt_share;
    r
}

/// Per-packet figures of the pool-only replay, in nanoseconds.
pub struct PoolReplay {
    pub ingest_ns: f64,
    pub flush_ns: f64,
    /// `WorkerPool` spawn for the daemon's datapath, milliseconds.
    pub spawn_ms: f64,
}

/// Feeds the first `frames` frames to a bare pool built from `dp` (the
/// daemon's pool shape), `burst` frames per enqueue and flush.
pub fn pool_replay(
    input: &Input,
    dp: &Seg6Datapath,
    frames: u64,
    burst: usize,
    passes: usize,
    tr: &mut Tracer,
) -> PoolReplay {
    let all: Vec<Vec<u8>> = (0..frames).map(|seq| input.frame(seq)).collect();
    let spawn = std::time::Instant::now();
    let mut pool = WorkerPool::from_datapath(crate::drive::pool_config(1024), dp);
    let spawn_ms = spawn.elapsed().as_secs_f64() * 1e3;
    let mut id = 0;
    for pass in 0..=passes {
        for chunk in all.chunks(burst) {
            // Pass 0 warms the arena and the worker up, untraced.
            if pass == 0 {
                pool.enqueue_bytes_all(0, chunk.iter().map(|f| f.as_slice()));
                for window in pool.flush().outputs {
                    for (_, skb, _) in window {
                        pool.recycle(skb.into_packet());
                    }
                }
                continue;
            }
            let span = tr.begin("replay.pool", ROOT, id);
            let s = tr.begin("replay.pool.enqueue_bytes_all", span.index, id);
            let admitted = pool.enqueue_bytes_all(0, chunk.iter().map(|f| f.as_slice()));
            tr.end(s, chunk.len() as u64);
            assert_eq!(admitted, chunk.len(), "the replay pool admits every frame");
            let s = tr.begin("replay.pool.flush", span.index, id);
            let report = pool.flush();
            tr.end(s, chunk.len() as u64);
            for window in report.outputs {
                for (_, skb, _) in window {
                    pool.recycle(skb.into_packet());
                }
            }
            tr.end(span, chunk.len() as u64);
            id += 1;
        }
    }
    drop(pool);
    PoolReplay {
        ingest_ns: tr.per_item("replay.pool.enqueue_bytes_all"),
        flush_ns: tr.per_item("replay.pool.flush"),
        spawn_ms,
    }
}
