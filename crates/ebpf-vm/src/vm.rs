//! The virtual-machine execution core.
//!
//! This module defines the synthetic address space programs see, the
//! per-invocation run state (registers, stack, map-value regions), the
//! [`RunContext`] an embedder supplies (context struct, packet bytes and a
//! [`VmEnv`] for kernel-side services), and [`execute_insn`], the single
//! instruction-execution routine shared by the interpreter and the
//! pre-decoded "JIT".
//!
//! ## Address space
//!
//! eBPF programs manipulate 64-bit values that may be pointers. Instead of
//! exposing host addresses, the VM places every accessible object at a
//! fixed synthetic base:
//!
//! | region      | base              | access |
//! |-------------|-------------------|--------|
//! | context     | [`CTX_BASE`]      | read/write |
//! | packet      | [`PKT_BASE`]      | read-only (writes must go through helpers, as the paper mandates) |
//! | stack       | [`STACK_BASE`]    | read/write |
//! | map values  | [`MAP_VALUE_BASE`]| read/write |
//! | map handles | [`MAP_PTR_BASE`]  | opaque (only passed to helpers) |

use crate::error::{Error, Result};
use crate::helpers::HelperRegistry;
use crate::insn::{alu, class, jmp, src, AccessSize, Insn, NUM_REGS, STACK_SIZE};
use crate::maps::{MapHandle, ValueRef};
use crate::program::LoadedProgram;
use std::any::Any;
use std::collections::HashMap;

/// Base address of the context structure.
pub const CTX_BASE: u64 = 0x1000_0000_0000;
/// Base address of the packet bytes.
pub const PKT_BASE: u64 = 0x2000_0000_0000;
/// Base address of the stack; `r10` points at `STACK_BASE + STACK_SIZE`.
pub const STACK_BASE: u64 = 0x3000_0000_0000;
/// Base address of map-value regions returned by `bpf_map_lookup_elem`.
pub const MAP_VALUE_BASE: u64 = 0x4000_0000_0000;
/// Base of the opaque map-handle pointers loaded by pseudo-map-fd `lddw`.
pub const MAP_PTR_BASE: u64 = 0x5000_0000_0000;
/// Address stride between two map-value regions.
pub const MAP_VALUE_STRIDE: u64 = 0x1_0000_0000;

/// Default instruction budget per invocation, matching the kernel's
/// complexity limit order of magnitude.
pub const DEFAULT_INSN_BUDGET: u64 = 1_000_000;

/// Byte offset, inside every LWT-style context structure, of the 64-bit
/// `data` pointer to the first packet byte. The verifier gives loads from
/// this offset the packet-pointer type and embedders must place
/// [`PKT_BASE`] there when building the context.
pub const CTX_OFF_DATA: i64 = 0;
/// Byte offset of the 64-bit `data_end` pointer (one past the last packet
/// byte) inside every LWT-style context structure.
pub const CTX_OFF_DATA_END: i64 = 8;

/// The opaque pointer value representing the map with file descriptor `fd`.
pub fn map_ptr_value(fd: u32) -> u64 {
    MAP_PTR_BASE | u64::from(fd)
}

/// Recovers the map file descriptor from an opaque map pointer.
pub fn fd_from_map_ptr(value: u64) -> Option<u32> {
    if value & !0xffff_ffff == MAP_PTR_BASE {
        Some(value as u32)
    } else {
        None
    }
}

/// A per-invocation snapshot of the trivially-pure helper results, used by
/// the native tier to inline `bpf_ktime_get_ns` / `bpf_get_smp_processor_id`
/// (and to tag the array-map lookup cache) as direct loads instead of
/// trampoline calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvSnapshot {
    /// The value `ktime_ns()` returns for the whole invocation.
    pub ktime_ns: u64,
    /// The value `cpu_id()` returns for the whole invocation.
    pub cpu_id: u32,
}

/// Kernel-side services available to helpers.
///
/// The base implementation is enough for pure computation; embedders such as
/// `seg6-core` supply an environment that also carries the datapath state
/// (FIB, timestamps, the SRv6 action machinery) and is recovered by the
/// SRv6-specific helpers through [`VmEnv::as_any_mut`].
pub trait VmEnv {
    /// Downcasting hook so embedder-specific helpers can reach their state.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Monotonic clock in nanoseconds (`bpf_ktime_get_ns`).
    fn ktime_ns(&mut self) -> u64 {
        0
    }
    /// Logical CPU the program runs on (`bpf_get_smp_processor_id`). The
    /// multi-queue runtime sets this to the worker shard id, which is also
    /// the slot per-CPU maps index.
    fn cpu_id(&mut self) -> u32 {
        0
    }
    /// Pseudo-random number (`bpf_get_prandom_u32`).
    fn prandom_u32(&mut self) -> u32 {
        0x9e37_79b9
    }
    /// Sink for `bpf_trace_printk`.
    fn trace(&mut self, _message: &str) {}

    /// Environments whose `ktime_ns`/`cpu_id` are stable for the duration of
    /// one program run may return a snapshot of them, which lets the native
    /// tier inline those helpers as direct loads. Environments that log,
    /// count or otherwise observe each helper call (e.g. the differential
    /// fuzz recorder) must keep the default `None` so every call still goes
    /// through the trampoline.
    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        None
    }
}

/// A [`VmEnv`] with no services, for tests and pure programs.
#[derive(Debug, Default)]
pub struct NullEnv;

impl VmEnv for NullEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        Some(EnvSnapshot { ktime_ns: 0, cpu_id: 0 })
    }
}

/// Everything the embedder passes for one program invocation.
pub struct RunContext<'a> {
    /// The context structure (e.g. the `__sk_buff`-like layout built by the
    /// seg6local hook). `r1` points at its first byte.
    pub ctx: &'a mut [u8],
    /// The packet bytes, readable by the program and mutable by helpers.
    pub packet: &'a mut Vec<u8>,
    /// Kernel-side services.
    pub env: &'a mut dyn VmEnv,
}

/// Per-invocation machine state.
#[derive(Debug)]
pub struct RunState {
    /// General-purpose registers r0–r10.
    pub regs: [u64; NUM_REGS],
    /// The 512-byte stack.
    pub stack: Vec<u8>,
    /// Map-value regions made visible to the program by lookups.
    value_regions: Vec<ValueRef>,
    /// Per-region bias (`host data pointer - synthetic region base`), kept
    /// parallel to `value_regions` so the native tier can turn a synthetic
    /// map-value address into a host address with one table load.
    region_bias: Vec<u64>,
    /// Dedup index from the `ValueRef` allocation to its region, so repeated
    /// lookups of the same value return the same synthetic address.
    region_dedup: HashMap<usize, u64>,
    /// Native-tier array-lookup site caches, keyed by program uid. Entries
    /// are `[tag, addr]` pairs per call site (see `codegen`).
    site_caches: Vec<(u64, Box<[u64]>)>,
    /// Number of instructions executed so far.
    pub insn_executed: u64,
    /// Maximum number of instructions before aborting.
    pub insn_budget: u64,
}

impl RunState {
    /// Creates a fresh state with `r1` pointing at the context and `r10` at
    /// the top of the stack.
    pub fn new(ctx_len: usize) -> Self {
        let mut regs = [0u64; NUM_REGS];
        regs[1] = CTX_BASE;
        regs[10] = STACK_BASE + STACK_SIZE as u64;
        let _ = ctx_len;
        RunState {
            regs,
            stack: vec![0u8; STACK_SIZE],
            value_regions: Vec::new(),
            region_bias: Vec::new(),
            region_dedup: HashMap::new(),
            site_caches: Vec::new(),
            insn_executed: 0,
            insn_budget: DEFAULT_INSN_BUDGET,
        }
    }

    /// Returns the state to its freshly-created condition without releasing
    /// any of its buffers, so one `RunState` can be reused across program
    /// invocations (the per-packet hot path keeps one per datapath instead
    /// of allocating a 512-byte stack per packet).
    pub fn reset(&mut self) {
        self.regs = [0u64; NUM_REGS];
        self.regs[1] = CTX_BASE;
        self.regs[10] = STACK_BASE + STACK_SIZE as u64;
        self.stack.fill(0);
        // Map-value regions deliberately persist across runs: like kernel
        // map-value pointers, the addresses handed out stay valid, repeated
        // lookups of the same value return the same address (the dedup
        // below), and the native tier's per-site lookup cache relies on
        // both. The set is bounded by the distinct values ever looked up.
        self.insn_executed = 0;
        self.insn_budget = DEFAULT_INSN_BUDGET;
    }

    /// Registers a map value region and returns the synthetic address the
    /// program can use to access it. Registering the same value twice
    /// returns the same address.
    pub fn register_value_region(&mut self, value: ValueRef) -> u64 {
        let key = std::sync::Arc::as_ptr(&value) as *const u8 as usize;
        if let Some(&idx) = self.region_dedup.get(&key) {
            return MAP_VALUE_BASE + idx * MAP_VALUE_STRIDE;
        }
        let idx = self.value_regions.len() as u64;
        let base = MAP_VALUE_BASE + idx * MAP_VALUE_STRIDE;
        // The buffer pointer is stable: map values are fixed-size and
        // updated in place, so the Vec behind the lock never reallocates.
        self.region_bias.push((value.read().as_ptr() as u64).wrapping_sub(base));
        self.region_dedup.insert(key, idx);
        self.value_regions.push(value);
        base
    }

    /// Base pointer of the per-region bias table (see `region_bias`). The
    /// table may move when a new region is registered, so the native tier
    /// re-reads this after every helper call.
    pub(crate) fn region_bias_ptr(&self) -> *const u64 {
        self.region_bias.as_ptr()
    }

    /// Returns (creating it on first use) the array-lookup site cache for
    /// the program identified by `uid`, with room for `sites` entries of
    /// two words each. The cache persists with the state, like the regions
    /// its cached addresses point into.
    pub(crate) fn lookup_cache(&mut self, uid: u64, sites: usize) -> *mut u64 {
        if let Some(pos) = self.site_caches.iter().position(|(u, _)| *u == uid) {
            return self.site_caches[pos].1.as_mut_ptr();
        }
        self.site_caches.push((uid, vec![0u64; sites * 2].into_boxed_slice()));
        self.site_caches.last_mut().expect("just pushed").1.as_mut_ptr()
    }
}

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// The instruction consumed two slots (`lddw`).
    SkipOne,
    /// Branch by `delta` instructions relative to the *next* instruction.
    Branch(i64),
    /// The program returned; `r0` holds the result.
    Exit,
}

// ---------------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------------

enum Target {
    Stack(usize),
    Ctx(usize),
    Packet(usize),
    MapValue { region: usize, offset: usize },
}

fn resolve(state: &RunState, rc: &RunContext<'_>, addr: u64, len: usize) -> Result<Target> {
    let end_ok = |start: usize, region_len: usize| start.checked_add(len).is_some_and(|e| e <= region_len);
    if (STACK_BASE..STACK_BASE + STACK_SIZE as u64).contains(&addr) {
        let off = (addr - STACK_BASE) as usize;
        if end_ok(off, STACK_SIZE) {
            return Ok(Target::Stack(off));
        }
    } else if addr >= CTX_BASE && addr < CTX_BASE + rc.ctx.len() as u64 {
        let off = (addr - CTX_BASE) as usize;
        if end_ok(off, rc.ctx.len()) {
            return Ok(Target::Ctx(off));
        }
    } else if addr >= PKT_BASE && addr < PKT_BASE + rc.packet.len() as u64 {
        let off = (addr - PKT_BASE) as usize;
        if end_ok(off, rc.packet.len()) {
            return Ok(Target::Packet(off));
        }
    } else if (MAP_VALUE_BASE..MAP_PTR_BASE).contains(&addr) {
        let region = ((addr - MAP_VALUE_BASE) / MAP_VALUE_STRIDE) as usize;
        let offset = ((addr - MAP_VALUE_BASE) % MAP_VALUE_STRIDE) as usize;
        if let Some(value) = state.value_regions.get(region) {
            if end_ok(offset, value.read().len()) {
                return Ok(Target::MapValue { region, offset });
            }
        }
    }
    Err(Error::Runtime { insn: 0, message: format!("invalid memory access at 0x{addr:x} len {len}") })
}

/// Runs `f` over the `len` bytes at `addr` without copying them: the slice
/// borrows straight from the resolved region (stack, context, packet or a
/// map value, the latter under its read guard). This is the borrow surface
/// the allocation-free hot path is built on; [`read_into`] and
/// [`read_bytes`] are conveniences layered on top of it.
pub fn with_bytes<R>(
    state: &RunState,
    rc: &RunContext<'_>,
    addr: u64,
    len: usize,
    f: impl FnOnce(&[u8]) -> R,
) -> Result<R> {
    match resolve(state, rc, addr, len)? {
        Target::Stack(off) => Ok(f(&state.stack[off..off + len])),
        Target::Ctx(off) => Ok(f(&rc.ctx[off..off + len])),
        Target::Packet(off) => Ok(f(&rc.packet[off..off + len])),
        Target::MapValue { region, offset } => {
            let guard = state.value_regions[region].read();
            Ok(f(&guard[offset..offset + len]))
        }
    }
}

/// Copies the bytes at `addr` into `buf` — the allocation-free read used for
/// fixed-size helper parameters (IPv6 addresses, table ids, map keys), which
/// land in stack arrays instead of fresh `Vec`s.
pub fn read_into(state: &RunState, rc: &RunContext<'_>, addr: u64, buf: &mut [u8]) -> Result<()> {
    with_bytes(state, rc, addr, buf.len(), |bytes| buf.copy_from_slice(bytes))
}

/// Reads `len` bytes at `addr` into a freshly allocated buffer. Prefer
/// [`with_bytes`] / [`read_into`] anywhere the read happens per packet.
pub fn read_bytes(state: &RunState, rc: &RunContext<'_>, addr: u64, len: usize) -> Result<Vec<u8>> {
    with_bytes(state, rc, addr, len, |bytes| bytes.to_vec())
}

/// Copies `len` packet bytes starting at `pkt_off` directly into program
/// memory at `dst` — what `bpf_skb_load_bytes` does, without the
/// intermediate buffer the old `read_bytes`/`write_bytes` pairing required.
pub fn copy_from_packet(
    state: &mut RunState,
    rc: &mut RunContext<'_>,
    pkt_off: usize,
    len: usize,
    dst: u64,
) -> Result<()> {
    if pkt_off.checked_add(len).is_none_or(|end| end > rc.packet.len()) {
        return Err(Error::Runtime { insn: 0, message: "packet read out of bounds".into() });
    }
    match resolve(state, rc, dst, len)? {
        Target::Stack(off) => state.stack[off..off + len].copy_from_slice(&rc.packet[pkt_off..pkt_off + len]),
        Target::Ctx(off) => {
            let RunContext { ctx, packet, .. } = rc;
            ctx[off..off + len].copy_from_slice(&packet[pkt_off..pkt_off + len]);
        }
        Target::Packet(_) => {
            return Err(Error::Runtime {
                insn: 0,
                message: "direct packet writes are not allowed; use a seg6 helper".into(),
            })
        }
        Target::MapValue { region, offset } => state.value_regions[region].write()[offset..offset + len]
            .copy_from_slice(&rc.packet[pkt_off..pkt_off + len]),
    }
    Ok(())
}

/// Writes `bytes` at `addr`. The packet region is rejected: the paper's
/// design forbids direct packet writes from seg6local programs.
pub fn write_bytes(state: &mut RunState, rc: &mut RunContext<'_>, addr: u64, bytes: &[u8]) -> Result<()> {
    match resolve(state, rc, addr, bytes.len())? {
        Target::Stack(off) => state.stack[off..off + bytes.len()].copy_from_slice(bytes),
        Target::Ctx(off) => rc.ctx[off..off + bytes.len()].copy_from_slice(bytes),
        Target::Packet(_) => {
            return Err(Error::Runtime {
                insn: 0,
                message: "direct packet writes are not allowed; use a seg6 helper".into(),
            })
        }
        Target::MapValue { region, offset } => {
            state.value_regions[region].write()[offset..offset + bytes.len()].copy_from_slice(bytes)
        }
    }
    Ok(())
}

/// Loads an unsigned little-endian value of the given width. Reads borrow
/// straight from the resolved region — this is the `LDX` hot path and it
/// performs no heap allocation.
pub fn load_scalar(state: &RunState, rc: &RunContext<'_>, addr: u64, size: AccessSize) -> Result<u64> {
    let len = size.bytes();
    let mut buf = [0u8; 8];
    with_bytes(state, rc, addr, len, |bytes| buf[..len].copy_from_slice(bytes))?;
    Ok(u64::from_le_bytes(buf))
}

/// Stores the low bytes of `value` little-endian at `addr`.
pub fn store_scalar(
    state: &mut RunState,
    rc: &mut RunContext<'_>,
    addr: u64,
    size: AccessSize,
    value: u64,
) -> Result<()> {
    let bytes = value.to_le_bytes();
    write_bytes(state, rc, addr, &bytes[..size.bytes()])
}

// ---------------------------------------------------------------------------
// Helper API
// ---------------------------------------------------------------------------

/// The view of the machine a helper function receives.
pub struct HelperApi<'r, 'a> {
    /// The run state (registers, stack, value regions).
    pub state: &'r mut RunState,
    /// The embedder-provided context, packet and environment.
    pub rc: &'r mut RunContext<'a>,
    /// Maps attached to the program, keyed by fd.
    pub maps: &'r HashMap<u32, MapHandle>,
}

impl<'r, 'a> HelperApi<'r, 'a> {
    /// Reads program-visible memory (stack, ctx, packet or map values) into
    /// a fresh allocation. Prefer [`HelperApi::read_into`] /
    /// [`HelperApi::with_bytes`] for per-packet reads.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        read_bytes(self.state, self.rc, addr, len)
    }

    /// Copies program-visible memory into `buf` — the allocation-free read
    /// for fixed-size parameters (addresses, table ids, map keys).
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        read_into(self.state, self.rc, addr, buf)
    }

    /// Runs `f` over program-visible memory without copying it.
    pub fn with_bytes<R>(&self, addr: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        with_bytes(self.state, self.rc, addr, len, f)
    }

    /// Copies packet bytes straight into program memory (the
    /// `bpf_skb_load_bytes` primitive), with no intermediate buffer.
    pub fn copy_from_packet(&mut self, pkt_off: usize, len: usize, dst: u64) -> Result<()> {
        copy_from_packet(self.state, self.rc, pkt_off, len, dst)
    }

    /// Writes program-visible memory (everything but the packet).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        write_bytes(self.state, self.rc, addr, bytes)
    }

    /// The packet bytes.
    pub fn packet(&self) -> &[u8] {
        self.rc.packet
    }

    /// Mutable access to the packet bytes — only helpers may modify packets.
    pub fn packet_mut(&mut self) -> &mut Vec<u8> {
        self.rc.packet
    }

    /// The context structure bytes.
    pub fn ctx(&self) -> &[u8] {
        self.rc.ctx
    }

    /// Mutable access to the context structure.
    pub fn ctx_mut(&mut self) -> &mut [u8] {
        self.rc.ctx
    }

    /// The embedder environment.
    pub fn env(&mut self) -> &mut dyn VmEnv {
        self.rc.env
    }

    /// The embedder environment as `Any`, for downcasting to a concrete
    /// type (e.g. the seg6 datapath environment).
    pub fn env_any(&mut self) -> &mut dyn Any {
        self.rc.env.as_any_mut()
    }

    /// Resolves an opaque map pointer (produced by a pseudo-map-fd `lddw`)
    /// to the attached map.
    pub fn map_by_ptr(&self, ptr: u64) -> Result<MapHandle> {
        let fd = fd_from_map_ptr(ptr).ok_or_else(|| Error::Helper("argument is not a map pointer".into()))?;
        self.maps
            .get(&fd)
            .cloned()
            .ok_or_else(|| Error::Helper(format!("map fd {fd} not attached to this program")))
    }

    /// Makes a map value accessible to the program and returns its address.
    pub fn register_value_region(&mut self, value: ValueRef) -> u64 {
        self.state.register_value_region(value)
    }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

fn alu_compute(op: u8, is64: bool, dst: u64, srcv: u64, pc: usize) -> Result<u64> {
    let value = match op {
        alu::ADD => dst.wrapping_add(srcv),
        alu::SUB => dst.wrapping_sub(srcv),
        alu::MUL => dst.wrapping_mul(srcv),
        alu::DIV => {
            if (is64 && srcv == 0) || (!is64 && srcv as u32 == 0) {
                0
            } else if is64 {
                dst / srcv
            } else {
                u64::from((dst as u32) / (srcv as u32))
            }
        }
        alu::MOD => {
            if (is64 && srcv == 0) || (!is64 && srcv as u32 == 0) {
                dst
            } else if is64 {
                dst % srcv
            } else {
                u64::from((dst as u32) % (srcv as u32))
            }
        }
        alu::OR => dst | srcv,
        alu::AND => dst & srcv,
        alu::XOR => dst ^ srcv,
        alu::LSH => {
            if is64 {
                dst.wrapping_shl(srcv as u32)
            } else {
                u64::from((dst as u32).wrapping_shl(srcv as u32))
            }
        }
        alu::RSH => {
            if is64 {
                dst.wrapping_shr(srcv as u32)
            } else {
                u64::from((dst as u32).wrapping_shr(srcv as u32))
            }
        }
        alu::ARSH => {
            if is64 {
                (dst as i64).wrapping_shr(srcv as u32) as u64
            } else {
                u64::from(((dst as i32).wrapping_shr(srcv as u32)) as u32)
            }
        }
        alu::MOV => srcv,
        _ => return Err(Error::runtime(pc, format!("unsupported ALU op 0x{op:x}"))),
    };
    Ok(if is64 { value } else { u64::from(value as u32) })
}

fn byte_swap(value: u64, bits: i32, to_be: bool, pc: usize) -> Result<u64> {
    // On a little-endian VM, "to big endian" swaps bytes and "to little
    // endian" truncates.
    let swapped = match bits {
        16 => {
            if to_be {
                u64::from((value as u16).swap_bytes())
            } else {
                u64::from(value as u16)
            }
        }
        32 => {
            if to_be {
                u64::from((value as u32).swap_bytes())
            } else {
                u64::from(value as u32)
            }
        }
        64 => {
            if to_be {
                value.swap_bytes()
            } else {
                value
            }
        }
        _ => return Err(Error::runtime(pc, format!("unsupported byte swap width {bits}"))),
    };
    Ok(swapped)
}

/// Evaluates a jump condition.
pub fn jump_taken(op: u8, is64: bool, dst: u64, srcv: u64) -> bool {
    let (d, s, ds, ss) = if is64 {
        (dst, srcv, dst as i64, srcv as i64)
    } else {
        (u64::from(dst as u32), u64::from(srcv as u32), i64::from(dst as i32), i64::from(srcv as i32))
    };
    match op {
        jmp::JA => true,
        jmp::JEQ => d == s,
        jmp::JNE => d != s,
        jmp::JGT => d > s,
        jmp::JGE => d >= s,
        jmp::JLT => d < s,
        jmp::JLE => d <= s,
        jmp::JSET => d & s != 0,
        jmp::JSGT => ds > ss,
        jmp::JSGE => ds >= ss,
        jmp::JSLT => ds < ss,
        jmp::JSLE => ds <= ss,
        _ => false,
    }
}

/// Executes one instruction. `next` is the instruction that would follow in
/// program order (needed only by `lddw` to fetch its second slot).
pub fn execute_insn(
    state: &mut RunState,
    rc: &mut RunContext<'_>,
    maps: &HashMap<u32, MapHandle>,
    helpers: &HelperRegistry,
    insn: &Insn,
    next: Option<&Insn>,
    pc: usize,
) -> Result<Flow> {
    state.insn_executed += 1;
    if state.insn_executed > state.insn_budget {
        return Err(Error::runtime(pc, "instruction budget exceeded"));
    }
    let dst = usize::from(insn.dst);
    let srcr = usize::from(insn.src);
    if dst >= NUM_REGS || srcr >= NUM_REGS {
        return Err(Error::runtime(pc, "register index out of range"));
    }
    match insn.class() {
        class::ALU | class::ALU64 => {
            let is64 = insn.class() == class::ALU64;
            let op = insn.opcode & 0xf0;
            if op == alu::NEG {
                let value = if is64 {
                    (state.regs[dst] as i64).wrapping_neg() as u64
                } else {
                    u64::from((state.regs[dst] as i32).wrapping_neg() as u32)
                };
                state.regs[dst] = value;
            } else if op == alu::END {
                state.regs[dst] = byte_swap(state.regs[dst], insn.imm, insn.opcode & src::X != 0, pc)?;
            } else {
                let operand =
                    if insn.opcode & src::X != 0 { state.regs[srcr] } else { insn.imm as i64 as u64 };
                state.regs[dst] = alu_compute(op, is64, state.regs[dst], operand, pc)?;
            }
            Ok(Flow::Next)
        }
        class::LD => {
            if !insn.is_lddw() {
                return Err(Error::runtime(pc, "unsupported LD mode (only lddw is implemented)"));
            }
            let hi = next.ok_or_else(|| Error::runtime(pc, "lddw missing second slot"))?;
            let value = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
            state.regs[dst] = value;
            Ok(Flow::SkipOne)
        }
        class::LDX => {
            let size = AccessSize::from_opcode(insn.opcode);
            let addr = state.regs[srcr].wrapping_add(insn.off as i64 as u64);
            state.regs[dst] = load_scalar(state, rc, addr, size).map_err(|e| relocate(e, pc))?;
            Ok(Flow::Next)
        }
        class::ST | class::STX => {
            let size = AccessSize::from_opcode(insn.opcode);
            let addr = state.regs[dst].wrapping_add(insn.off as i64 as u64);
            let value = if insn.class() == class::STX { state.regs[srcr] } else { insn.imm as i64 as u64 };
            store_scalar(state, rc, addr, size, value).map_err(|e| relocate(e, pc))?;
            Ok(Flow::Next)
        }
        class::JMP | class::JMP32 => {
            let is64 = insn.class() == class::JMP;
            let op = insn.opcode & 0xf0;
            match op {
                jmp::CALL => {
                    let id = insn.imm as u32;
                    let args = [state.regs[1], state.regs[2], state.regs[3], state.regs[4], state.regs[5]];
                    let func =
                        helpers.get(id).ok_or_else(|| Error::runtime(pc, format!("unknown helper {id}")))?;
                    let mut api = HelperApi { state, rc, maps };
                    let ret = (func.func)(&mut api, args);
                    state.regs[0] = ret as u64;
                    Ok(Flow::Next)
                }
                jmp::EXIT => Ok(Flow::Exit),
                jmp::JA => Ok(Flow::Branch(i64::from(insn.off))),
                _ => {
                    let operand =
                        if insn.opcode & src::X != 0 { state.regs[srcr] } else { insn.imm as i64 as u64 };
                    if jump_taken(op, is64, state.regs[dst], operand) {
                        Ok(Flow::Branch(i64::from(insn.off)))
                    } else {
                        Ok(Flow::Next)
                    }
                }
            }
        }
        other => Err(Error::runtime(pc, format!("unknown instruction class {other}"))),
    }
}

fn relocate(err: Error, pc: usize) -> Error {
    match err {
        Error::Runtime { message, .. } => Error::Runtime { insn: pc, message },
        other => other,
    }
}

/// Executes a loaded program on its selected execution tier
/// ([`LoadedProgram::exec_tier`]). This is the highest-level convenience
/// entry point; the dedicated [`crate::interp`], [`crate::jit`] and
/// [`crate::codegen`] modules expose the engines separately for
/// benchmarking.
pub fn run_program(loaded: &LoadedProgram, helpers: &HelperRegistry, rc: &mut RunContext<'_>) -> Result<u64> {
    let mut state = RunState::new(rc.ctx.len());
    run_program_with_state(loaded, helpers, rc, loaded.exec_tier(), &mut state)
}

/// Like [`run_program`], but reuses a caller-owned [`RunState`] (resetting
/// it first) instead of allocating a fresh one, and takes the tier
/// explicitly — the per-packet entry point of the zero-allocation datapath.
/// Every tier's artifact was built at load time, so no branch of this
/// dispatch allocates. [`crate::program::ExecTier::Native`] falls back to
/// the micro-op tier on hosts without a native backend.
pub fn run_program_with_state(
    loaded: &LoadedProgram,
    helpers: &HelperRegistry,
    rc: &mut RunContext<'_>,
    tier: crate::program::ExecTier,
    state: &mut RunState,
) -> Result<u64> {
    use crate::program::ExecTier;
    state.reset();
    match tier {
        ExecTier::Interp => crate::interp::run_with_state(loaded.interp_image(), loaded, helpers, rc, state),
        ExecTier::MicroOp => crate::jit::run_with_state(loaded.jit()?, loaded, helpers, rc, state),
        ExecTier::Native => match loaded.native()? {
            Some(native) => crate::codegen::run(native, loaded, rc, state),
            None => crate::jit::run_with_state(loaded.jit()?, loaded, helpers, rc, state),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use crate::maps::Map;

    fn state_and_ctx() -> (RunState, Vec<u8>, Vec<u8>) {
        (RunState::new(16), vec![0u8; 16], vec![0xaa; 32])
    }

    #[test]
    fn map_ptr_roundtrip() {
        assert_eq!(fd_from_map_ptr(map_ptr_value(7)), Some(7));
        assert_eq!(fd_from_map_ptr(0x1234), None);
        assert_eq!(fd_from_map_ptr(PKT_BASE), None);
    }

    #[test]
    fn stack_read_write_roundtrip() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        let addr = STACK_BASE + 100;
        store_scalar(&mut state, &mut rc, addr, AccessSize::Double, 0xdead_beef_1234_5678).unwrap();
        assert_eq!(load_scalar(&state, &rc, addr, AccessSize::Double).unwrap(), 0xdead_beef_1234_5678);
        assert_eq!(load_scalar(&state, &rc, addr, AccessSize::Byte).unwrap(), 0x78);
    }

    #[test]
    fn packet_is_read_only() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        assert_eq!(load_scalar(&state, &rc, PKT_BASE, AccessSize::Byte).unwrap(), 0xaa);
        assert!(store_scalar(&mut state, &mut rc, PKT_BASE, AccessSize::Byte, 1).is_err());
    }

    #[test]
    fn out_of_bounds_accesses_fault() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        assert!(load_scalar(&state, &rc, PKT_BASE + 31, AccessSize::Word).is_err());
        assert!(load_scalar(&state, &rc, STACK_BASE + STACK_SIZE as u64, AccessSize::Byte).is_err());
        assert!(load_scalar(&state, &rc, 0x42, AccessSize::Byte).is_err());
        assert!(store_scalar(&mut state, &mut rc, CTX_BASE + 15, AccessSize::Word, 0).is_err());
    }

    #[test]
    fn map_value_regions_are_shared_with_the_map() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        let map = crate::maps::ArrayMap::new(8, 1);
        let slot = map.lookup_ref(&0u32.to_ne_bytes()).unwrap();
        let addr = state.register_value_region(slot);
        store_scalar(&mut state, &mut rc, addr, AccessSize::Word, 0x0102_0304).unwrap();
        assert_eq!(map.lookup(&0u32.to_ne_bytes()).unwrap()[..4], [4, 3, 2, 1]);
    }

    #[test]
    fn alu_compute_basics() {
        assert_eq!(alu_compute(alu::ADD, true, 5, 7, 0).unwrap(), 12);
        assert_eq!(alu_compute(alu::SUB, true, 5, 7, 0).unwrap(), (5u64).wrapping_sub(7));
        assert_eq!(alu_compute(alu::SUB, false, 5, 7, 0).unwrap(), u64::from(5u32.wrapping_sub(7)));
        assert_eq!(alu_compute(alu::MUL, true, 3, 4, 0).unwrap(), 12);
        assert_eq!(alu_compute(alu::DIV, true, 10, 3, 0).unwrap(), 3);
        assert_eq!(alu_compute(alu::DIV, true, 10, 0, 0).unwrap(), 0);
        assert_eq!(alu_compute(alu::MOD, true, 10, 0, 0).unwrap(), 10);
        assert_eq!(alu_compute(alu::MOD, true, 10, 3, 0).unwrap(), 1);
        assert_eq!(alu_compute(alu::ARSH, true, (-8i64) as u64, 1, 0).unwrap(), (-4i64) as u64);
        assert_eq!(alu_compute(alu::MOV, false, 0, 0xffff_ffff_ffff_ffff, 0).unwrap(), 0xffff_ffff);
    }

    #[test]
    fn byte_swap_be16() {
        assert_eq!(byte_swap(0x1234, 16, true, 0).unwrap(), 0x3412);
        assert_eq!(byte_swap(0xaabb_ccdd, 32, true, 0).unwrap(), 0xddcc_bbaa);
        assert_eq!(byte_swap(0x1234_5678, 64, false, 0).unwrap(), 0x1234_5678);
        assert!(byte_swap(0, 8, true, 0).is_err());
    }

    #[test]
    fn jump_conditions() {
        assert!(jump_taken(jmp::JEQ, true, 5, 5));
        assert!(!jump_taken(jmp::JEQ, true, 5, 6));
        assert!(jump_taken(jmp::JNE, true, 5, 6));
        assert!(jump_taken(jmp::JGT, true, 6, 5));
        assert!(jump_taken(jmp::JSGT, true, 1, (-1i64) as u64));
        assert!(!jump_taken(jmp::JGT, true, 1, (-1i64) as u64));
        assert!(jump_taken(jmp::JSET, true, 0b1010, 0b0010));
        assert!(jump_taken(jmp::JSLT, true, (-5i64) as u64, 3));
        // 32-bit comparison ignores the upper half.
        assert!(jump_taken(jmp::JEQ, false, 0xffff_ffff_0000_0001, 1));
    }

    #[test]
    fn execute_simple_alu_and_exit() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        let maps = HashMap::new();
        let helpers = HelperRegistry::with_base_helpers();
        let insn = Insn::mov64_imm(0, 41);
        assert_eq!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 0).unwrap(), Flow::Next);
        let insn = Insn::alu64_imm(alu::ADD, 0, 1);
        execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 1).unwrap();
        assert_eq!(state.regs[0], 42);
        let insn = Insn::exit();
        assert_eq!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 2).unwrap(), Flow::Exit);
    }

    #[test]
    fn execute_unknown_helper_faults() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        let maps = HashMap::new();
        let helpers = HelperRegistry::with_base_helpers();
        let insn = Insn::call(9999);
        assert!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 0).is_err());
    }

    #[test]
    fn insn_budget_is_enforced() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        state.insn_budget = 2;
        let mut env = NullEnv;
        let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt, env: &mut env };
        let maps = HashMap::new();
        let helpers = HelperRegistry::with_base_helpers();
        let insn = Insn::mov64_imm(0, 0);
        assert!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 0).is_ok());
        assert!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 0).is_ok());
        assert!(execute_insn(&mut state, &mut rc, &maps, &helpers, &insn, None, 0).is_err());
    }
}
