//! Differential fuzzing across the three execution tiers and both native
//! register plans.
//!
//! A deterministic xorshift generator builds randomized, verifier-accepted
//! LWT seg6local programs and runs each through the interpreter, the
//! micro-op tier and the native x86-64 tier (where the host has one;
//! elsewhere `Native` transparently falls back to `MicroOp`, which still
//! must agree). On hosts with a native backend, two more legs compile the
//! program explicitly with [`NativeMode::RegAlloc`] and
//! [`NativeMode::FrameOnly`] — the `SEG6_NATIVE_REGALLOC=off` kill-switch
//! path, where every register is frame-resident and every use goes through
//! the spill path — so both plans are compared in the same process
//! regardless of the environment. Every leg
//! must produce an identical exit value, register file, stack image,
//! context bytes, packet bytes and helper-call sequence — including on the
//! fault paths the out-of-bounds accesses deliberately provoke.
//!
//! Three generators feed the harness:
//!
//! * [`generate`] — the general mix of ALU, stack, context, packet, helper
//!   and branch snippets.
//! * [`generate_pressure`] — register-pressure-heavy programs: all ten
//!   allocatable BPF registers carry long live chains, so one register
//!   always outlives the allocator's nine homes and stays frame-resident;
//!   the spill load/store paths run on nearly every instruction. A no-call
//!   variant exercises the caller-saved home pool, a call-heavy variant
//!   the callee-saved pool and the flush/reload protocol around
//!   trampolines.
//! * [`generate_map_dense`] — helper- and map-dense programs with real
//!   array maps attached, driving the verifier's `MapValue`/`MapLookup`
//!   facts, the direct map-value access path and the per-state array-map
//!   lookup cache. These run twice against one `RunState` so the second
//!   run takes the cache-hit path, and run under both a plain recording
//!   environment and one that opts into the inline `ktime`/`cpu` fast
//!   paths via [`EnvSnapshot`].
//!
//! The generators keep the invariants the verifier cares about at every
//! snippet boundary: `r0`–`r7` hold scalars, `r8` holds the packet pointer,
//! `r9` holds the context pointer, and `r1`–`r5` are re-initialised after
//! each helper call. Branches only jump forward, and every join point sees
//! the same register typing.

use ebpf_vm::codegen::{self, NativeMode, NativeProgram};
use ebpf_vm::insn::Insn;
use ebpf_vm::maps::{ArrayMap, MapHandle, PerCpuArrayMap};
use ebpf_vm::program::{load, LoadedProgram, Program, ProgramType, PSEUDO_MAP_FD};
use ebpf_vm::vm::{
    map_ptr_value, run_program_with_state, EnvSnapshot, RunContext, RunState, VmEnv, PKT_BASE,
};
use ebpf_vm::{Error, ExecTier, HelperRegistry};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of verifier-accepted programs the general generator pushes
/// through all legs.
const PROGRAMS: usize = 1000;
/// Programs per specialised generator (pressure, map-dense).
const SPECIAL_PROGRAMS: usize = 120;
/// Generation attempts before giving up (the generators are tuned so nearly
/// every program verifies; this is a backstop, not a budget).
const MAX_ATTEMPTS_FACTOR: usize = 3;

const PACKET_LEN: usize = 150;
const CTX_LEN: usize = 64;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

// ---------------------------------------------------------------------------
// Observable environments
// ---------------------------------------------------------------------------

/// An environment whose service calls the harness can compare across legs.
trait FuzzEnv: VmEnv + Default {
    fn log(&self) -> &[(u8, u64)];
}

/// Records every env service call. Does not implement
/// [`VmEnv::snapshot`], so the native tier keeps calling through the
/// trampoline and the full call sequence stays observable.
#[derive(Default)]
struct RecordingEnv {
    /// `(which, value)` per env service call, in order.
    log: Vec<(u8, u64)>,
    tick: u64,
}

impl VmEnv for RecordingEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ktime_ns(&mut self) -> u64 {
        self.tick += 1;
        let v = 0x4000 + self.tick * 7;
        self.log.push((0, v));
        v
    }

    fn cpu_id(&mut self) -> u32 {
        self.log.push((1, 3));
        3
    }

    fn prandom_u32(&mut self) -> u32 {
        self.tick += 1;
        let v = (self.tick as u32).wrapping_mul(0x9e37_79b9);
        self.log.push((2, u64::from(v)));
        v
    }
}

impl FuzzEnv for RecordingEnv {
    fn log(&self) -> &[(u8, u64)] {
        &self.log
    }
}

/// Opts into the native tier's inline fast paths: `ktime`/`cpu` are
/// invocation constants published through [`VmEnv::snapshot`] and are *not*
/// logged (the inlined code never calls the env, so logging them would make
/// the comparison diverge by design), while `prandom` mutates state and
/// stays an observable real call on every leg. A `Some` snapshot also arms
/// the per-state array-map lookup cache.
#[derive(Default)]
struct InlineEnv {
    log: Vec<(u8, u64)>,
    tick: u64,
}

const INLINE_KTIME: u64 = 0x7000_1234;
const INLINE_CPU: u32 = 5;

impl VmEnv for InlineEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ktime_ns(&mut self) -> u64 {
        INLINE_KTIME
    }

    fn cpu_id(&mut self) -> u32 {
        INLINE_CPU
    }

    fn prandom_u32(&mut self) -> u32 {
        self.tick += 1;
        let v = (self.tick as u32).wrapping_mul(0x8541_7717);
        self.log.push((2, u64::from(v)));
        v
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        Some(EnvSnapshot { ktime_ns: INLINE_KTIME, cpu_id: INLINE_CPU })
    }
}

impl FuzzEnv for InlineEnv {
    fn log(&self) -> &[(u8, u64)] {
        &self.log
    }
}

// ---------------------------------------------------------------------------
// Program generators
// ---------------------------------------------------------------------------

/// Stack slots the prologue initialises; loads are restricted to these so
/// every verifier path sees them written.
const WARM_SLOTS: [i32; 4] = [-8, -16, -24, -32];

fn emit_scalar_alu(out: &mut String, rng: &mut Rng) {
    let dst = rng.below(8);
    let wide = if rng.chance(70) { "64" } else { "32" };
    let ops = ["add", "sub", "mul", "div", "mod", "or", "and", "xor", "lsh", "rsh", "arsh", "mov"];
    let op = ops[rng.below(ops.len() as u64) as usize];
    if rng.chance(50) {
        let imm: i64 = match op {
            "lsh" | "rsh" | "arsh" => {
                if wide == "64" {
                    rng.below(64) as i64
                } else {
                    rng.below(32) as i64
                }
            }
            "div" | "mod" => 1 + rng.below(254) as i64,
            _ => (rng.next() as u32 as i64) - (i64::from(u32::MAX) / 2),
        };
        out.push_str(&format!("{op}{wide} r{dst}, {imm}\n"));
    } else {
        let src = rng.below(8);
        out.push_str(&format!("{op}{wide} r{dst}, r{src}\n"));
    }
}

fn emit_unary(out: &mut String, rng: &mut Rng) {
    let dst = rng.below(8);
    match rng.below(4) {
        0 => out.push_str(&format!("neg64 r{dst}\n")),
        1 => out.push_str(&format!("neg32 r{dst}\n")),
        2 => {
            let bits = [16, 32, 64][rng.below(3) as usize];
            out.push_str(&format!("be{bits} r{dst}\n"));
        }
        _ => {
            let bits = [16, 32, 64][rng.below(3) as usize];
            out.push_str(&format!("le{bits} r{dst}\n"));
        }
    }
}

fn emit_stack_op(out: &mut String, rng: &mut Rng) {
    let (sz, bytes) = [("b", 1), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
    if rng.chance(50) {
        // Store anywhere in the first 64 bytes of the frame.
        let slot = -8 * (1 + rng.below(8) as i32);
        let off = slot + (rng.below((8 / bytes) as u64) as i32) * bytes;
        if rng.chance(70) {
            let src = rng.below(8);
            out.push_str(&format!("stx{sz} [r10{off}], r{src}\n"));
        } else {
            let imm = rng.next() as u32 as i64 % 1000;
            out.push_str(&format!("st{sz} [r10{off}], {imm}\n"));
        }
    } else {
        // Load only from the prologue-warmed slots.
        let slot = WARM_SLOTS[rng.below(WARM_SLOTS.len() as u64) as usize];
        let off = slot + (rng.below((8 / bytes) as u64) as i32) * bytes;
        let dst = rng.below(8);
        out.push_str(&format!("ldx{sz} r{dst}, [r10{off}]\n"));
    }
}

fn emit_ctx_op(out: &mut String, rng: &mut Rng, oob: bool) {
    if rng.chance(60) {
        // Scalar read of a metadata field (past the two pointer fields).
        let (sz, step) = if rng.chance(50) { ("w", 4u64) } else { ("dw", 8u64) };
        let off = if oob {
            // Past the 64-byte runtime context but inside the verifier's
            // static MAX_CTX_SIZE — faults at run time on every tier.
            CTX_LEN as u64 + rng.below(16) * step
        } else {
            16 + rng.below((CTX_LEN as u64 - 16) / step) * step
        };
        let dst = rng.below(8);
        out.push_str(&format!("ldx{sz} r{dst}, [r9+{off}]\n"));
    } else {
        // Write to mark / the cb scratch area.
        let offs = [24u64, 40, 44, 48, 52, 56];
        let off = offs[rng.below(offs.len() as u64) as usize];
        if rng.chance(60) {
            let src = rng.below(8);
            out.push_str(&format!("stxw [r9+{off}], r{src}\n"));
        } else {
            out.push_str(&format!("stw [r9+{off}], {}\n", rng.below(0xffff)));
        }
    }
}

fn emit_packet_load(out: &mut String, rng: &mut Rng, oob: bool) {
    let (sz, bytes) = [("b", 1u64), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
    let dst = rng.below(8);
    if rng.chance(70) {
        let off = if oob { PACKET_LEN as u64 + rng.below(60) } else { rng.below(PACKET_LEN as u64 - bytes) };
        out.push_str(&format!("ldx{sz} r{dst}, [r8+{off}]\n"));
    } else {
        // Variable offset: mask a scalar, add it to a packet-pointer copy,
        // load through it, then re-scalarise the temporary.
        let idx = rng.below(8);
        out.push_str(&format!("and64 r{idx}, 63\n"));
        out.push_str("mov64 r3, r8\n");
        out.push_str(&format!("add64 r3, r{idx}\n"));
        out.push_str(&format!("ldx{sz} r{dst}, [r3+0]\n"));
        out.push_str(&format!("mov64 r3, {}\n", rng.below(256)));
    }
}

fn emit_helper_call(out: &mut String, rng: &mut Rng) {
    match rng.below(4) {
        0 => out.push_str("call 5\n"), // bpf_ktime_get_ns
        1 => out.push_str("call 7\n"), // bpf_get_prandom_u32
        2 => out.push_str("call 8\n"), // bpf_get_smp_processor_id
        _ => {
            // bpf_skb_load_bytes(ctx, off, fp-16, 8): copies packet bytes
            // into the stack through the helper path.
            out.push_str("mov64 r1, r9\n");
            out.push_str(&format!("mov64 r2, {}\n", rng.below(PACKET_LEN as u64 + 16)));
            out.push_str("mov64 r3, r10\n");
            out.push_str("add64 r3, -16\n");
            out.push_str("mov64 r4, 8\n");
            out.push_str("call 26\n");
        }
    }
    // Calls clobber r1-r5; restore the all-scalars invariant.
    for r in 1..=5 {
        out.push_str(&format!("mov64 r{r}, {}\n", rng.below(512)));
    }
}

fn emit_branch(out: &mut String, rng: &mut Rng, target: u64) {
    let ops = ["jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jsge", "jslt", "jsle", "jset"];
    let op = ops[rng.below(ops.len() as u64) as usize];
    let wide = if rng.chance(75) { "" } else { "32" };
    let dst = rng.below(8);
    if rng.chance(50) {
        let imm = rng.below(1024) as i64 - 512;
        out.push_str(&format!("{op}{wide} r{dst}, {imm}, s{target}\n"));
    } else {
        let src = rng.below(8);
        out.push_str(&format!("{op}{wide} r{dst}, r{src}, s{target}\n"));
    }
}

/// Shared prologue: pin the pointer registers, scalarise everything else,
/// warm the stack slots loads are allowed to touch.
fn emit_prologue(s: &mut String, rng: &mut Rng) {
    s.push_str("mov64 r9, r1\n");
    s.push_str("ldxdw r8, [r9+0]\n");
    for r in 0..8 {
        s.push_str(&format!("mov64 r{r}, {}\n", rng.below(0xffff)));
    }
    for slot in WARM_SLOTS {
        s.push_str(&format!("stxdw [r10{slot}], r{}\n", rng.below(8)));
    }
}

/// Generates one program as assembler text. `oob` sprinkles out-of-bounds
/// context/packet accesses so the fault paths get differential coverage.
fn generate(rng: &mut Rng) -> String {
    let oob = rng.chance(4);
    let mut s = String::new();
    emit_prologue(&mut s, rng);
    let snippets = 6 + rng.below(6);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        for _ in 0..(2 + rng.below(5)) {
            let kind = rng.below(100);
            let oob_here = oob && rng.chance(30);
            match kind {
                0..=34 => emit_scalar_alu(&mut s, rng),
                35..=44 => emit_unary(&mut s, rng),
                45..=59 => emit_stack_op(&mut s, rng),
                60..=71 => emit_ctx_op(&mut s, rng, oob_here),
                72..=84 => emit_packet_load(&mut s, rng, oob_here),
                85..=92 => emit_helper_call(&mut s, rng),
                _ => s.push_str(&format!("lddw r{}, 0x{:x}\n", rng.below(8), rng.next())),
            }
        }
        if i + 1 < snippets && rng.chance(60) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    // Fold a couple of registers into the exit value so divergence in any
    // of them shows up even without the register-file comparison.
    s.push_str("mov64 r0, r6\n");
    s.push_str("xor64 r0, r7\n");
    s.push_str("exit\n");
    s
}

/// Register-pressure-heavy generator. Every snippet chains all eight
/// scalar registers through each other, so — together with the two pinned
/// pointer registers — ten values stay live from the prologue to the exit
/// fold and the allocator must leave one of them frame-resident.
/// `with_calls` selects the call-heavy variant (callee-saved home pool,
/// flush/reload around trampolines, fault sites with register-resident
/// state) versus the pure ALU/stack/ctx variant (caller-saved pool, no
/// trampolines at all).
fn generate_pressure(rng: &mut Rng, with_calls: bool) -> String {
    let oob = with_calls && rng.chance(15);
    let mut s = String::new();
    emit_prologue(&mut s, rng);
    let snippets = 4 + rng.below(4);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        // The live chains: touch every scalar register, reading another.
        for r in 0..8u64 {
            let other = (r + 1 + rng.below(7)) % 8;
            let ops = ["add", "xor", "sub", "or"];
            let op = ops[rng.below(ops.len() as u64) as usize];
            let wide = if rng.chance(70) { "64" } else { "32" };
            s.push_str(&format!("{op}{wide} r{r}, r{other}\n"));
        }
        for _ in 0..(1 + rng.below(3)) {
            let kind = rng.below(100);
            let oob_here = oob && rng.chance(30);
            if with_calls {
                match kind {
                    0..=29 => emit_scalar_alu(&mut s, rng),
                    30..=49 => emit_stack_op(&mut s, rng),
                    50..=64 => emit_ctx_op(&mut s, rng, oob_here),
                    65..=79 => emit_packet_load(&mut s, rng, oob_here),
                    _ => emit_helper_call(&mut s, rng),
                }
            } else {
                match kind {
                    0..=39 => emit_scalar_alu(&mut s, rng),
                    40..=69 => emit_stack_op(&mut s, rng),
                    70..=84 => emit_ctx_op(&mut s, rng, false),
                    _ => emit_unary(&mut s, rng),
                }
            }
        }
        if i + 1 < snippets && rng.chance(50) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    // Fold every chained register into the exit value: a wrong spill slot
    // or a stale home shows up in r0 even before the register comparison.
    s.push_str("mov64 r0, r1\n");
    for r in 2..8 {
        s.push_str(&format!("xor64 r0, r{r}\n"));
    }
    s.push_str("exit\n");
    s
}

/// Map fds the dense generator references; attached by the test.
const MAP_FDS: [u32; 3] = [1, 2, 3];
const MAP_ENTRIES: u64 = 4;
const MAP_VALUE_SIZE: i64 = 64;

/// `lddw` immediates with this pattern in the upper half are rewritten into
/// pseudo-map-fd loads after assembly (the assembler has no map syntax).
const MAP_SENTINEL: u64 = 0x6d70_c0de_0000_0000;

fn patch_map_loads(insns: &mut [Insn]) {
    let mut i = 0;
    while i < insns.len() {
        if insns[i].is_lddw() {
            if i + 1 < insns.len() {
                let value = (insns[i].imm as u32 as u64) | ((insns[i + 1].imm as u32 as u64) << 32);
                if value & 0xffff_ffff_0000_0000 == MAP_SENTINEL {
                    let fd = (value & 0xffff) as u32;
                    insns[i].src = PSEUDO_MAP_FD;
                    insns[i].imm = fd as i32;
                    insns[i + 1].imm = (map_ptr_value(fd) >> 32) as i32;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
}

/// One `bpf_map_lookup_elem` sequence: store a key on the stack, load the
/// map pointer, call, null-check, and hammer the value with loads and
/// stores on the hit path. Keys sometimes exceed `max_entries` so the null
/// path runs too. `label` disambiguates the inner join labels.
fn emit_map_lookup(out: &mut String, rng: &mut Rng, label: usize) {
    let fd = MAP_FDS[rng.below(MAP_FDS.len() as u64) as usize];
    let slot = -8 * (1 + rng.below(4) as i32);
    let key = rng.below(MAP_ENTRIES + 2);
    out.push_str(&format!("stw [r10{slot}], {key}\n"));
    out.push_str(&format!("lddw r1, 0x{:x}\n", MAP_SENTINEL | u64::from(fd)));
    out.push_str("mov64 r2, r10\n");
    out.push_str(&format!("add64 r2, {slot}\n"));
    out.push_str("call 1\n");
    out.push_str(&format!("jeq r0, 0, m{label}\n"));
    for _ in 0..(1 + rng.below(3)) {
        let (sz, bytes) = [("b", 1i64), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
        let off = rng.below((MAP_VALUE_SIZE / bytes) as u64) as i64 * bytes;
        if rng.chance(60) {
            // Not into r0 (it is the value pointer) or r1-r5 reads later —
            // loads may target r1-r7, they only write.
            let dst = 1 + rng.below(7);
            out.push_str(&format!("ldx{sz} r{dst}, [r0+{off}]\n"));
        } else {
            // Store sources must have survived the call: only r6/r7 are
            // still initialised here (the call clobbered r1-r5).
            let src = 6 + rng.below(2);
            out.push_str(&format!("stx{sz} [r0+{off}], r{src}\n"));
        }
    }
    out.push_str(&format!("m{label}:\n"));
    // Both paths reach here with different r0 types (value pointer vs the
    // null scalar); re-scalarise it, and restore the r1-r5 invariant the
    // call clobbered.
    out.push_str(&format!("mov64 r0, {}\n", rng.below(512)));
    for r in 1..=5 {
        out.push_str(&format!("mov64 r{r}, {}\n", rng.below(512)));
    }
}

/// Helper- and map-dense generator: roughly a third of the instruction
/// budget goes to `bpf_map_lookup_elem` sequences against attached array /
/// per-CPU array maps, and another chunk to the plain helpers, so the
/// trampoline, inline-helper, direct map-value and lookup-cache paths all
/// run hot.
fn generate_map_dense(rng: &mut Rng) -> String {
    let mut s = String::new();
    let mut label = 0usize;
    emit_prologue(&mut s, rng);
    let snippets = 4 + rng.below(4);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        for _ in 0..(2 + rng.below(3)) {
            match rng.below(100) {
                0..=34 => {
                    emit_map_lookup(&mut s, rng, label);
                    label += 1;
                }
                35..=54 => emit_helper_call(&mut s, rng),
                55..=69 => emit_scalar_alu(&mut s, rng),
                70..=79 => emit_stack_op(&mut s, rng),
                80..=89 => emit_ctx_op(&mut s, rng, false),
                _ => emit_packet_load(&mut s, rng, false),
            }
        }
        if i + 1 < snippets && rng.chance(40) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    s.push_str("mov64 r0, r6\n");
    s.push_str("xor64 r0, r7\n");
    s.push_str("exit\n");
    s
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

fn fresh_ctx() -> Vec<u8> {
    let mut ctx = vec![0u8; CTX_LEN];
    ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
    ctx[8..16].copy_from_slice(&(PKT_BASE + PACKET_LEN as u64).to_le_bytes());
    ctx[16..20].copy_from_slice(&(PACKET_LEN as u32).to_le_bytes());
    ctx[20..24].copy_from_slice(&0x86ddu32.to_le_bytes());
    ctx
}

fn fresh_packet() -> Vec<u8> {
    (0..PACKET_LEN).map(|i| (i as u8).wrapping_mul(7).wrapping_add(13)).collect()
}

/// Everything one run produced, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    /// `Ok(exit)` or the faulting instruction index. Fast-path native
    /// faults synthesise their own message, so errors compare by location
    /// and variant, not text.
    result: Result<u64, (u8, usize)>,
    regs: [u64; 11],
    stack: Vec<u8>,
    ctx: Vec<u8>,
    packet: Vec<u8>,
    helper_log: Vec<(u8, u64)>,
    /// Concatenated contents of every attached map (fd order, key order,
    /// every CPU slot) — map stores must land identically on every leg.
    maps: Vec<u8>,
}

/// Re-seeds every map value to a deterministic per-entry pattern, so each
/// leg starts from identical map state no matter what the previous leg
/// stored. Values persist *within* one leg's repeated runs, like
/// consecutive packets sharing a datapath map.
fn reset_maps(maps: &HashMap<u32, MapHandle>) {
    for (fd, map) in maps {
        for key in map.keys() {
            for cpu in 0..map.num_cpus() {
                if let Some(value) = map.lookup_ref_cpu(&key, cpu) {
                    let mut guard = value.write();
                    for (i, byte) in guard.iter_mut().enumerate() {
                        *byte = (*fd as u8)
                            .wrapping_mul(37)
                            .wrapping_add(key[0].wrapping_mul(11))
                            .wrapping_add(cpu as u8)
                            .wrapping_add(i as u8);
                    }
                }
            }
        }
    }
}

/// Snapshot of every attached map's contents, in a stable order.
fn map_image(maps: &HashMap<u32, MapHandle>) -> Vec<u8> {
    let mut fds: Vec<u32> = maps.keys().copied().collect();
    fds.sort_unstable();
    let mut out = Vec::new();
    for fd in fds {
        let map = &maps[&fd];
        let mut keys = map.keys();
        keys.sort();
        for key in keys {
            if let Some(value) = map.lookup(&key) {
                out.extend_from_slice(&value);
            }
        }
    }
    out
}

fn error_key(e: &Error) -> (u8, usize) {
    match e {
        Error::Runtime { insn, .. } => (0, *insn),
        Error::Helper(_) => (1, 0),
        Error::Map(_) => (2, 0),
        other => panic!("unexpected error class from a verified program: {other:?}"),
    }
}

fn snapshot_run<E: FuzzEnv>(
    state: &RunState,
    env: &E,
    result: Result<u64, Error>,
    ctx: Vec<u8>,
    packet: Vec<u8>,
    maps: &HashMap<u32, MapHandle>,
) -> Observation {
    Observation {
        result: result.map_err(|e| error_key(&e)),
        regs: state.regs,
        stack: state.stack.clone(),
        ctx,
        packet,
        helper_log: env.log().to_vec(),
        maps: map_image(maps),
    }
}

/// Runs a program `runs` times through one tier against a single
/// [`RunState`] (fresh ctx/packet/env per run). Reusing the state lets
/// repeated runs hit the per-state array-map lookup cache, exactly like
/// consecutive packets on the datapath.
fn observe_tier<E: FuzzEnv>(
    prog: &Arc<LoadedProgram>,
    helpers: &HelperRegistry,
    maps: &HashMap<u32, MapHandle>,
    tier: ExecTier,
    runs: usize,
) -> Vec<Observation> {
    reset_maps(maps);
    let mut state = RunState::new(CTX_LEN);
    (0..runs)
        .map(|_| {
            let mut ctx = fresh_ctx();
            let mut packet = fresh_packet();
            let mut env = E::default();
            let result = {
                let mut rc = RunContext { ctx: &mut ctx, packet: &mut packet, env: &mut env };
                run_program_with_state(prog, helpers, &mut rc, tier, &mut state)
            };
            snapshot_run(&state, &env, result, ctx, packet, maps)
        })
        .collect()
}

/// Like [`observe_tier`], but executes an explicitly-compiled native
/// program — the harness compiles both [`NativeMode`]s itself, so the
/// frame-only kill-switch path is tested even when the environment selects
/// register allocation (and vice versa).
fn observe_native<E: FuzzEnv>(
    prog: &Arc<LoadedProgram>,
    native: &NativeProgram,
    maps: &HashMap<u32, MapHandle>,
    runs: usize,
) -> Vec<Observation> {
    reset_maps(maps);
    let mut state = RunState::new(CTX_LEN);
    (0..runs)
        .map(|_| {
            let mut ctx = fresh_ctx();
            let mut packet = fresh_packet();
            let mut env = E::default();
            let result = {
                let mut rc = RunContext { ctx: &mut ctx, packet: &mut packet, env: &mut env };
                state.reset();
                codegen::run(native, prog, &mut rc, &mut state)
            };
            snapshot_run(&state, &env, result, ctx, packet, maps)
        })
        .collect()
}

/// Both native register plans' output for one program (`None` off x86-64
/// Linux).
struct ModeLegs {
    regalloc: Option<NativeProgram>,
    frame_only: Option<NativeProgram>,
}

fn compile_modes(loaded: &LoadedProgram) -> ModeLegs {
    let jit = loaded.jit().expect("micro-op stream");
    let facts = loaded.access_facts();
    let legs = ModeLegs {
        regalloc: codegen::compile_with(jit, facts, loaded, NativeMode::RegAlloc).expect("regalloc compile"),
        frame_only: codegen::compile_with(jit, facts, loaded, NativeMode::FrameOnly)
            .expect("frame-only compile"),
    };
    if let Some(native) = &legs.frame_only {
        // The spill-all leg: no register homes, so every use of every
        // register takes the frame (spill) path.
        let debug = native.debug_info();
        assert!(!debug.regalloc);
        assert!(debug.assignments.is_empty(), "frame-only plan homed {:?}", debug.assignments);
    }
    legs
}

/// Runs one program through every leg under environment `E` and asserts
/// they all match the interpreter. Returns whether the reference run
/// faulted.
fn check_parity<E: FuzzEnv>(
    prog: &Arc<LoadedProgram>,
    helpers: &HelperRegistry,
    maps: &HashMap<u32, MapHandle>,
    modes: &ModeLegs,
    source: &str,
    runs: usize,
) -> bool {
    let reference = observe_tier::<E>(prog, helpers, maps, ExecTier::Interp, runs);
    for tier in [ExecTier::MicroOp, ExecTier::Native] {
        let got = observe_tier::<E>(prog, helpers, maps, tier, runs);
        assert_eq!(got, reference, "tier {tier:?} diverged from the interpreter on:\n{source}");
    }
    for (name, native) in [("regalloc", &modes.regalloc), ("frame-only", &modes.frame_only)] {
        if let Some(native) = native {
            let got = observe_native::<E>(prog, native, maps, runs);
            assert_eq!(got, reference, "native plan '{name}' diverged from the interpreter on:\n{source}");
        }
    }
    reference[0].result.is_err()
}

fn load_generated(
    source: &str,
    maps: &HashMap<u32, MapHandle>,
    helpers: &HelperRegistry,
) -> Option<Arc<LoadedProgram>> {
    let mut insns = match ebpf_vm::asm::assemble(source) {
        Ok(insns) => insns,
        Err(e) => panic!("generator produced unassemblable source: {e}\n{source}"),
    };
    patch_map_loads(&mut insns);
    let prog = Program::new("fuzz", ProgramType::LwtSeg6Local, insns);
    // A rare reject (e.g. a shift chain the tracker widens into a
    // pointer-looking value) just costs one attempt.
    match load(prog, maps, helpers) {
        Ok(l) => Some(l),
        Err(e) => {
            if std::env::var("FUZZ_DEBUG_REJECTS").is_ok() {
                eprintln!("REJECT: {e}");
            }
            None
        }
    }
}

#[test]
fn all_tiers_agree_on_randomized_programs() {
    let helpers = HelperRegistry::with_base_helpers();
    let maps = HashMap::new();
    let mut accepted = 0usize;
    let mut faulted = 0usize;
    let mut attempts = 0usize;
    let mut rng = Rng::new(0x5eed_cafe);
    while accepted < PROGRAMS {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * PROGRAMS,
            "generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let source = generate(&mut rng);
        let Some(loaded) = load_generated(&source, &maps, &helpers) else { continue };
        accepted += 1;
        let modes = compile_modes(&loaded);
        if check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &modes, &source, 1) {
            faulted += 1;
        }
    }
    // The OOB sprinkling must actually exercise the fault paths.
    assert!(faulted > 0, "no generated program faulted; fault-path parity went untested");
    eprintln!(
        "tier differential: {accepted} programs ({attempts} attempts, {faulted} faulting) \
         agreed across {:?} + both native register plans",
        ExecTier::ALL
    );
}

#[test]
fn register_pressure_programs_agree_and_spill() {
    let helpers = HelperRegistry::with_base_helpers();
    let maps = HashMap::new();
    let mut accepted = 0usize;
    let mut faulted = 0usize;
    let mut attempts = 0usize;
    let mut rng = Rng::new(0x1337_5b11);
    while accepted < SPECIAL_PROGRAMS {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * SPECIAL_PROGRAMS,
            "pressure generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let with_calls = accepted.is_multiple_of(2);
        let source = generate_pressure(&mut rng, with_calls);
        let Some(loaded) = load_generated(&source, &maps, &helpers) else { continue };
        accepted += 1;
        let modes = compile_modes(&loaded);
        if let Some(native) = &modes.regalloc {
            // Ten live registers against nine homes: exactly one register
            // must have stayed frame-resident, so the parity runs below
            // exercise the spill paths on every program.
            let debug = native.debug_info();
            assert!(debug.regalloc);
            assert_eq!(
                debug.spills, 1,
                "pressure program did not spill (homes {:?}):\n{source}",
                debug.assignments
            );
        }
        if check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &modes, &source, 1) {
            faulted += 1;
        }
    }
    assert!(faulted > 0, "no pressure program faulted; spilled fault paths went untested");
    eprintln!(
        "pressure differential: {accepted} programs ({attempts} attempts, {faulted} faulting) \
         agreed, all with one spilled register"
    );
}

#[test]
fn helper_and_map_dense_programs_agree() {
    let helpers = HelperRegistry::with_base_helpers();
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(MAP_FDS[0], ArrayMap::new(MAP_VALUE_SIZE as usize, MAP_ENTRIES as usize));
    maps.insert(MAP_FDS[1], ArrayMap::new(MAP_VALUE_SIZE as usize, MAP_ENTRIES as usize));
    maps.insert(MAP_FDS[2], PerCpuArrayMap::new(MAP_VALUE_SIZE as usize, MAP_ENTRIES as usize, 8));
    let mut accepted = 0usize;
    let mut attempts = 0usize;
    let mut with_lookups = 0usize;
    let mut rng = Rng::new(0xdeed_beef);
    while accepted < SPECIAL_PROGRAMS {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * SPECIAL_PROGRAMS,
            "map-dense generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let source = generate_map_dense(&mut rng);
        let Some(loaded) = load_generated(&source, &maps, &helpers) else { continue };
        accepted += 1;
        let modes = compile_modes(&loaded);
        if let Some(native) = &modes.regalloc {
            let debug = native.debug_info();
            if debug.lookup_sites > 0 {
                with_lookups += 1;
            }
        }
        // Two runs per leg against one state: the second native run takes
        // the lookup-cache hit path where the first one filled it. The
        // inline environment arms the cache and the ktime/cpu fast paths;
        // the recording environment keeps every helper an observable
        // trampoline call.
        check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &modes, &source, 2);
        check_parity::<InlineEnv>(&loaded, &helpers, &maps, &modes, &source, 2);
    }
    if codegen::supported() {
        assert!(
            with_lookups > SPECIAL_PROGRAMS / 2,
            "only {with_lookups}/{accepted} programs compiled cacheable lookup sites"
        );
    }
    eprintln!(
        "map-dense differential: {accepted} programs ({attempts} attempts, {with_lookups} with \
         cached lookup sites) agreed across all legs and both environments"
    );
}
