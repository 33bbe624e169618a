//! Native x86-64 code generation — the `Native` execution tier.
//!
//! This module lowers a program's micro-op stream
//! ([`crate::jit::JitProgram`]) to x86-64 machine code in an executable
//! page region. The pages are obtained with `mmap(PROT_READ|PROT_WRITE)`,
//! the code is copied in, and the region is sealed with
//! `mprotect(PROT_READ|PROT_EXEC)` before the first execution — W^X
//! throughout, declared against raw libc entry points exactly like the
//! `signal(2)` declaration `srv6d` already ships.
//!
//! ## Execution model
//!
//! The generated function has the C signature `fn(*mut NativeFrame)`. The
//! frame is a flat `repr(C)` block holding the eleven BPF registers plus
//! region *biases*: for each directly-accessible region the emitter knows
//! about (stack, context, packet) the frame stores
//! `host_pointer.wrapping_sub(synthetic_base)`, so the host address of a
//! synthetic address `a` is the two-instruction `bias + a` — no compare
//! chain on the fast path. `rbx` (callee-saved) holds the frame pointer for
//! the whole program. BPF registers get fixed host-register homes for the
//! whole program; a register without a home stays in the frame and is
//! loaded into a scratch register per operation. The frame is also the
//! coherence point around trampolines, so the slow paths see the same
//! register file the interpreter would.
//!
//! ## Verifier-derived check elision
//!
//! The verifier exports one [`crate::verifier::AccessFact`] per memory
//! instruction ([`crate::verifier::AccessFacts`]):
//!
//! * **Stack** — the access was proven in-bounds against the (fixed-size)
//!   stack on every path. No runtime check is emitted at all.
//! * **Ctx** — the access is at a statically-known context offset, but the
//!   verifier checks against the maximum context size while the embedder
//!   may pass a shorter context at run time; a single
//!   `cmp ctx_len, end; jb fault` guards the unchecked access.
//! * **Packet** — the offset is dynamic; the emitter inlines the bounds
//!   compare against `pkt_len` (with a carry check for wrap-around) and
//!   falls back to the generic resolver on failure so out-of-range
//!   addresses fault exactly like the interpreter.
//! * **Other** — the access goes through a trampoline back into
//!   [`crate::vm::load_scalar`] / [`crate::vm::store_scalar`], byte-for-byte
//!   the interpreter's path (map values, merged pointer states).
//!
//! Helper calls go through a trampoline that rebuilds a [`HelperApi`] and
//! dispatches through the load-time dense helper table by index — no id
//! lookup at run time. Because helpers may grow or reallocate the packet,
//! the trampoline refreshes the packet bias/length after every call.
//!
//! ## Safety argument
//!
//! Only verifier-accepted programs reach the emitter, and every memory
//! access is either (a) proven in-bounds by the verifier (stack), (b)
//! guarded by an emitted bounds check (ctx, packet), or (c) routed through
//! the same safe Rust resolver the interpreter uses. The verifier also
//! guarantees termination (no back-edges, ≤ [`crate::insn::MAX_INSNS`]
//! instructions), which is why native code does not maintain the
//! instruction budget counter: the budget exists to bound runaway loops the
//! verifier already rejects.
//!
//! On non-x86-64 (or non-Linux) hosts the module compiles to a stub whose
//! [`compile`] returns `Ok(None)`; callers fall back to the micro-op tier
//! with no `cfg` of their own.
#![allow(unsafe_code)]

use crate::error::Result;
use crate::jit::JitProgram;
use crate::program::LoadedProgram;
use crate::verifier::AccessFacts;
use crate::vm::{RunContext, RunState};

/// Whether this build can emit and execute native code.
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Which register plan [`compile`] uses on supported hosts. Both modes run
/// the same emitter: map values are accessed directly and hot helpers are
/// inlined either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeMode {
    /// BPF registers live in host registers. The default.
    RegAlloc,
    /// No register homes: every BPF register is frame-resident and goes
    /// through the spill path on each use. Kept selectable (the
    /// `SEG6_NATIVE_REGALLOC=off` kill-switch) for differential testing.
    FrameOnly,
}

impl NativeMode {
    /// The mode selected by the `SEG6_NATIVE_REGALLOC` environment variable
    /// (`off` / `0` / `false` select [`NativeMode::FrameOnly`]).
    pub fn from_env() -> NativeMode {
        match std::env::var("SEG6_NATIVE_REGALLOC") {
            Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
                "off" | "0" | "false" => NativeMode::FrameOnly,
                _ => NativeMode::RegAlloc,
            },
            Err(_) => NativeMode::RegAlloc,
        }
    }
}

/// Compile-time facts about one emitted program, for the
/// `SEG6_JIT_DEBUG=1` dump and the zero-spill assertions in tests.
#[derive(Debug, Clone, Default)]
pub struct NativeDebug {
    /// Whether BPF registers were given host-register homes
    /// ([`NativeMode::RegAlloc`]).
    pub regalloc: bool,
    /// `(bpf_reg, host_reg_name)` pairs for every register-resident value.
    pub assignments: Vec<(u8, &'static str)>,
    /// BPF registers that stayed frame-resident under register pressure.
    pub spills: u32,
    /// Memory accesses emitted without a trampoline (stack, guarded ctx,
    /// packet fast path, direct map values).
    pub elided_checks: u32,
    /// Helper call sites emitted with an inline fast path.
    pub inlined_helpers: u32,
    /// Array-map lookup sites with a per-state result cache.
    pub lookup_sites: u32,
}

/// A program lowered to executable machine code.
///
/// On unsupported targets the type still exists (so callers need no `cfg`)
/// but can never be constructed: [`compile`] returns `Ok(None)` there.
pub struct NativeProgram {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: x86_64::ExecBuf,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    debug: NativeDebug,
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    _unconstructable: std::convert::Infallible,
}

impl NativeProgram {
    /// Size of the emitted machine code in bytes.
    pub fn code_len(&self) -> usize {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.buf.code_len
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            match self._unconstructable {}
        }
    }

    /// Compile-time facts about the emitted code (register assignment,
    /// spill and inline counts).
    pub fn debug_info(&self) -> &NativeDebug {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            &self.debug
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            match self._unconstructable {}
        }
    }
}

impl std::fmt::Debug for NativeProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeProgram").field("code_len", &self.code_len()).finish()
    }
}

/// Compiles a program's micro-op stream to native code with the register
/// plan selected by `SEG6_NATIVE_REGALLOC`. Returns `Ok(None)` when the
/// target has no native backend; callers then run the micro-op tier.
pub fn compile(
    jit: &JitProgram,
    facts: &AccessFacts,
    loaded: &LoadedProgram,
) -> Result<Option<NativeProgram>> {
    compile_with(jit, facts, loaded, NativeMode::from_env())
}

/// Compiles a program's micro-op stream to native code with an explicit
/// mode — the differential fuzz harness compiles both modes of one program
/// in the same process. Returns `Ok(None)` when the target has no native
/// backend.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn compile_with(
    jit: &JitProgram,
    facts: &AccessFacts,
    loaded: &LoadedProgram,
    mode: NativeMode,
) -> Result<Option<NativeProgram>> {
    x86_64::compile(jit.ops(), facts, loaded, mode).map(Some)
}

/// Compiles a program's micro-op stream to native code with an explicit
/// mode. Returns `Ok(None)` when the target has no native backend.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn compile_with(
    _jit: &JitProgram,
    _facts: &AccessFacts,
    _loaded: &LoadedProgram,
    _mode: NativeMode,
) -> Result<Option<NativeProgram>> {
    Ok(None)
}

/// Executes a native program against a caller-owned state (not reset here;
/// [`crate::vm::run_program_with_state`] resets it first, like the other
/// tiers).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn run(
    native: &NativeProgram,
    loaded: &LoadedProgram,
    rc: &mut RunContext<'_>,
    state: &mut RunState,
) -> Result<u64> {
    x86_64::run(native, loaded, rc, state)
}

/// Executes a native program. Unreachable on targets without a backend —
/// [`compile`] never produces a [`NativeProgram`] there.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn run(
    native: &NativeProgram,
    _loaded: &LoadedProgram,
    _rc: &mut RunContext<'_>,
    _state: &mut RunState,
) -> Result<u64> {
    match native._unconstructable {}
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod x86_64 {
    use crate::error::{Error, Result};
    use crate::helpers::ids;
    use crate::insn::{alu, jmp, AccessSize, NUM_REGS, STACK_SIZE};
    use crate::jit::{MicroOp, Operand};
    use crate::maps::MapType;
    use crate::program::LoadedProgram;
    use crate::verifier::{AccessFact, AccessFacts};
    use crate::vm::{HelperApi, RunContext, RunState, CTX_BASE, MAP_VALUE_BASE, PKT_BASE, STACK_BASE};
    use core::ffi::c_void;

    // -----------------------------------------------------------------
    // Executable memory
    // -----------------------------------------------------------------

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;

    // Raw libc entry points, declared the same way srv6d declares
    // `signal(2)` — no libc crate in the workspace.
    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An `mmap`ed region sealed read+execute after the code is copied in.
    pub(super) struct ExecBuf {
        ptr: *mut u8,
        len: usize,
        pub(super) code_len: usize,
    }

    // The region is immutable (RX) after construction; sharing raw code
    // pages between threads is safe.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        fn new(code: &[u8]) -> Result<ExecBuf> {
            let len = code.len().max(1);
            unsafe {
                let ptr = mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                );
                if ptr.is_null() || ptr as isize == -1 {
                    return Err(Error::runtime(0, "mmap of code region failed"));
                }
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr as *mut u8, code.len());
                if mprotect(ptr, len, PROT_READ | PROT_EXEC) != 0 {
                    munmap(ptr, len);
                    return Err(Error::runtime(0, "mprotect(PROT_EXEC) on code region failed"));
                }
                Ok(ExecBuf { ptr: ptr as *mut u8, len, code_len: code.len() })
            }
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }

    // -----------------------------------------------------------------
    // The native frame and trampolines
    // -----------------------------------------------------------------

    /// The flat machine-visible state block; `rbx` points here for the
    /// whole program. `bias` fields hold `host_ptr - synthetic_base`
    /// (wrapping), so `bias + synthetic_addr` is the host address.
    #[repr(C)]
    struct NativeFrame {
        regs: [u64; NUM_REGS], // offsets 0..88
        stack_bias: u64,       // 88
        ctx_bias: u64,         // 96
        ctx_len: u64,          // 104
        pkt_bias: u64,         // 112
        pkt_len: u64,          // 120
        tramp_ctx: u64,        // 128
        fault: u64,            // 136: 0 = ok, otherwise faulting slot + 1
        region_tbl: u64,       // 144: RunState's per-region bias table
        site_cache: u64,       // 152: per-(state, program) lookup cache
        inline_flags: u64,     // 160: bit 0 = env snapshot valid
        inline_ktime: u64,     // 168: snapshot ktime_ns
        inline_cpu: u64,       // 176: snapshot cpu_id
        inline_cpu_tag: u64,   // 184: (cpu_id + 1) << 32, the cache tag salt
    }

    const OFF_STACK_BIAS: i32 = 8 * NUM_REGS as i32;
    const OFF_CTX_BIAS: i32 = OFF_STACK_BIAS + 8;
    const OFF_CTX_LEN: i32 = OFF_STACK_BIAS + 16;
    const OFF_PKT_BIAS: i32 = OFF_STACK_BIAS + 24;
    const OFF_PKT_LEN: i32 = OFF_STACK_BIAS + 32;
    const OFF_TRAMP: i32 = OFF_STACK_BIAS + 40;
    const OFF_FAULT: i32 = OFF_STACK_BIAS + 48;
    const OFF_REGION_TBL: i32 = OFF_STACK_BIAS + 56;
    const OFF_SITE_CACHE: i32 = OFF_STACK_BIAS + 64;
    const OFF_INLINE_FLAGS: i32 = OFF_STACK_BIAS + 72;
    const OFF_INLINE_KTIME: i32 = OFF_STACK_BIAS + 80;
    const OFF_INLINE_CPU: i32 = OFF_STACK_BIAS + 88;
    const OFF_INLINE_CPU_TAG: i32 = OFF_STACK_BIAS + 96;

    /// Everything the slow-path trampolines need to re-enter safe Rust.
    /// Lives on `run`'s stack for the duration of one invocation; the
    /// generated code only ever passes its address back to the trampolines
    /// below.
    struct TrampCtx {
        frame: *mut NativeFrame,
        state: *mut RunState,
        rc: *mut RunContext<'static>,
        loaded: *const LoadedProgram,
        error: Option<Error>,
    }

    fn decode_size(size: u32) -> AccessSize {
        match size {
            1 => AccessSize::Byte,
            2 => AccessSize::Half,
            4 => AccessSize::Word,
            _ => AccessSize::Double,
        }
    }

    fn at_slot(err: Error, slot: u32) -> Error {
        match err {
            Error::Runtime { message, .. } => Error::Runtime { insn: slot as usize, message },
            other => other,
        }
    }

    /// Generic load slow path: exact interpreter semantics via
    /// [`crate::vm::load_scalar`]. On error, records the faulting slot in
    /// the frame so the generated code exits, and parks the error for
    /// [`run`] to return.
    unsafe extern "C" fn tramp_load(tc: *mut TrampCtx, addr: u64, size: u32, slot: u32) -> u64 {
        let tc = &mut *tc;
        match crate::vm::load_scalar(&*tc.state, &*tc.rc, addr, decode_size(size)) {
            Ok(value) => value,
            Err(err) => {
                (*tc.frame).fault = u64::from(slot) + 1;
                tc.error = Some(at_slot(err, slot));
                0
            }
        }
    }

    /// Generic store slow path, mirroring [`tramp_load`].
    unsafe extern "C" fn tramp_store(tc: *mut TrampCtx, addr: u64, value: u64, size: u32, slot: u32) {
        let tc = &mut *tc;
        if let Err(err) = crate::vm::store_scalar(&mut *tc.state, &mut *tc.rc, addr, decode_size(size), value)
        {
            (*tc.frame).fault = u64::from(slot) + 1;
            tc.error = Some(at_slot(err, slot));
        }
    }

    /// Helper-call trampoline: args come from the frame registers, the
    /// helper runs with the same [`HelperApi`] every other tier uses, and
    /// the packet bias/length are refreshed afterwards (helpers may grow or
    /// reallocate the packet).
    unsafe extern "C" fn tramp_helper(tc: *mut TrampCtx, idx: u32) -> i64 {
        let tc = &mut *tc;
        let frame = &mut *tc.frame;
        let state = &mut *tc.state;
        let rc = &mut *tc.rc;
        let loaded = &*tc.loaded;
        // Keep the RunState registers coherent around the call so a helper
        // that inspects them sees exactly what the interpreter would show.
        state.regs = frame.regs;
        let args = [frame.regs[1], frame.regs[2], frame.regs[3], frame.regs[4], frame.regs[5]];
        let func = loaded.helper_table()[idx as usize].func;
        let ret = {
            let mut api = HelperApi { state, rc, maps: &loaded.maps };
            func(&mut api, args)
        };
        frame.regs = state.regs;
        frame.pkt_bias = (rc.packet.as_mut_ptr() as u64).wrapping_sub(PKT_BASE);
        frame.pkt_len = rc.packet.len() as u64;
        // A lookup helper may have registered a new value region, growing
        // (and possibly moving) the bias table.
        frame.region_tbl = state.region_bias_ptr() as u64;
        ret
    }

    /// The array-map lookup trampoline: runs the real helper, then — when
    /// the environment snapshot is active — records the result in this call
    /// site's cache slot so the next lookup of the same key (and CPU) is an
    /// inline compare + load. Only emitted for sites the verifier proved to
    /// read a stack-resident u32 key from an array-family map.
    unsafe extern "C" fn tramp_helper_cached(tc: *mut TrampCtx, idx: u32, site: u32) -> i64 {
        let ret = tramp_helper(tc, idx);
        let tc = &mut *tc;
        let frame = &mut *tc.frame;
        if ret != 0 && frame.inline_flags & 1 != 0 && frame.site_cache != 0 {
            // r2 still holds the key pointer (lookup helpers don't touch
            // registers) and the verifier proved it readable.
            if let Ok(key) = crate::vm::load_scalar(&*tc.state, &*tc.rc, frame.regs[2], AccessSize::Word) {
                // key + 1 must stay within the low 32 tag bits.
                if key < u64::from(u32::MAX) {
                    let entry = (frame.site_cache as *mut u64).add(site as usize * 2);
                    *entry = frame.inline_cpu_tag.wrapping_add(key + 1);
                    *entry.add(1) = ret as u64;
                }
            }
        }
        ret
    }

    // -----------------------------------------------------------------
    // The assembler
    // -----------------------------------------------------------------

    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RBP: u8 = 5;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R8: u8 = 8;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R11: u8 = 11;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;

    /// Display name of a host register used as a BPF-register home.
    fn host_reg_name(reg: u8) -> &'static str {
        match reg {
            RBP => "rbp",
            R8 => "r8",
            R9 => "r9",
            R10 => "r10",
            R11 => "r11",
            R12 => "r12",
            R13 => "r13",
            R14 => "r14",
            R15 => "r15",
            _ => "?",
        }
    }

    // x86 condition codes (the low nibble of Jcc).
    const CC_B: u8 = 0x2;
    const CC_AE: u8 = 0x3;
    const CC_E: u8 = 0x4;
    const CC_NE: u8 = 0x5;
    const CC_BE: u8 = 0x6;
    const CC_A: u8 = 0x7;
    const CC_L: u8 = 0xc;
    const CC_GE: u8 = 0xd;
    const CC_LE: u8 = 0xe;
    const CC_G: u8 = 0xf;

    #[derive(Default)]
    struct Asm {
        code: Vec<u8>,
    }

    impl Asm {
        fn b(&mut self, byte: u8) {
            self.code.push(byte);
        }
        fn bytes(&mut self, bytes: &[u8]) {
            self.code.extend_from_slice(bytes);
        }
        fn i32v(&mut self, value: i32) {
            self.bytes(&value.to_le_bytes());
        }
        fn u64v(&mut self, value: u64) {
            self.bytes(&value.to_le_bytes());
        }
        fn here(&self) -> usize {
            self.code.len()
        }
        /// ModRM (+ optional disp) for `[base + disp]`. `base` must not be
        /// rsp/rbp (the encodings alias SIB/RIP) — the emitter only uses
        /// rbx, rdx and rsi bases.
        fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
            debug_assert!(base != 4 && base != 5);
            if disp == 0 {
                self.b((reg << 3) | base);
            } else if (-128..=127).contains(&disp) {
                self.b(0x40 | (reg << 3) | base);
                self.b(disp as i8 as u8);
            } else {
                self.b(0x80 | (reg << 3) | base);
                self.i32v(disp);
            }
        }
        /// ModRM+SIB for `[base + index]` (scale 1, no displacement).
        fn modrm_sib(&mut self, reg: u8, base: u8, index: u8) {
            debug_assert!(base != 5 && index != 4);
            self.b((reg << 3) | 0b100);
            self.b((index << 3) | base);
        }

        // --- REX-aware forms (r8–r15 capable) --------------------------
        //
        // The emitter homes BPF registers in rbp/r8–r15 and goes through
        // these helpers, which emit a REX prefix exactly when the operands
        // (or the 64-bit width) need one. Memory bases stay below r8 — and
        // never rsp/rbp — so only REX.R/REX.B for the reg/rm fields and
        // REX.W for width are ever required.

        /// REX prefix for (`w`, reg extension, rm/base extension); emits
        /// nothing when empty.
        fn rex(&mut self, w: bool, reg: u8, rm: u8) {
            let mut b = 0x40u8;
            if w {
                b |= 8;
            }
            if reg >= 8 {
                b |= 4;
            }
            if rm >= 8 {
                b |= 1;
            }
            if b != 0x40 {
                self.b(b);
            }
        }
        /// `opcodes reg, rm` in register-direct form.
        fn op_rr(&mut self, opcodes: &[u8], w: bool, reg: u8, rm: u8) {
            self.rex(w, reg, rm);
            self.bytes(opcodes);
            self.b(0xC0 | ((reg & 7) << 3) | (rm & 7));
        }
        /// `opcodes reg, [base + disp]` (or the store direction, per
        /// opcode). `base` must be one of the low non-rsp/rbp registers.
        fn op_rm(&mut self, opcodes: &[u8], w: bool, reg: u8, base: u8, disp: i32) {
            debug_assert!(base < 8);
            self.rex(w, reg, base);
            self.bytes(opcodes);
            self.modrm_mem(reg & 7, base, disp);
        }
        /// `opcodes reg, [base + index]` (scale 1).
        fn op_sib(&mut self, opcodes: &[u8], w: bool, reg: u8, base: u8, index: u8) {
            debug_assert!(base < 8 && index < 8);
            self.rex(w, reg, base);
            self.bytes(opcodes);
            self.modrm_sib(reg & 7, base, index);
        }
        /// `mov reg, qword [base + index*8]` — the region-bias table read.
        fn load64_sib8(&mut self, reg: u8, base: u8, index: u8) {
            debug_assert!(base < 8 && (base & 7) != 5 && index < 8 && index != 4);
            self.rex(true, reg, base);
            self.b(0x8B);
            self.b(((reg & 7) << 3) | 0b100);
            self.b(0b1100_0000 | ((index & 7) << 3) | (base & 7));
        }
        /// Immediate-group `0x81 /ext rm, imm32` (add/or/and/sub/xor/cmp).
        fn grp81(&mut self, w: bool, ext: u8, rm: u8, imm: i32) {
            self.rex(w, 0, rm);
            self.b(0x81);
            self.b(0xC0 | (ext << 3) | (rm & 7));
            self.i32v(imm);
        }
        /// Unary-group `0xF7 /ext rm` (test=0 needs an imm the caller adds,
        /// not=2, neg=3, mul=4, div=6).
        fn grp_f7(&mut self, w: bool, ext: u8, rm: u8) {
            self.rex(w, 0, rm);
            self.b(0xF7);
            self.b(0xC0 | (ext << 3) | (rm & 7));
        }
        /// Shift-group `0xC1 /ext rm, imm8`.
        fn shift_imm(&mut self, w: bool, ext: u8, rm: u8, amount: u8) {
            self.rex(w, 0, rm);
            self.b(0xC1);
            self.b(0xC0 | (ext << 3) | (rm & 7));
            self.b(amount);
        }
        /// Shift-group `0xD3 /ext rm, cl`.
        fn shift_cl(&mut self, w: bool, ext: u8, rm: u8) {
            self.rex(w, 0, rm);
            self.b(0xD3);
            self.b(0xC0 | (ext << 3) | (rm & 7));
        }
        /// `mov rm, imm32` (sign-extending when `w`).
        fn mov_ri32(&mut self, w: bool, rm: u8, imm: i32) {
            self.rex(w, 0, rm);
            self.b(0xC7);
            self.b(0xC0 | (rm & 7));
            self.i32v(imm);
        }
        /// `movabs reg, imm64` for any register.
        fn movabs_r(&mut self, reg: u8, imm: u64) {
            self.rex(true, 0, reg);
            self.b(0xB8 + (reg & 7));
            self.u64v(imm);
        }
        /// `bswap reg` (32- or 64-bit).
        fn bswap(&mut self, w: bool, reg: u8) {
            self.rex(w, 0, reg);
            self.b(0x0F);
            self.b(0xC8 + (reg & 7));
        }

        // --- control flow ---------------------------------------------

        /// Long `jcc rel32` with the target patched later.
        fn jcc32(&mut self, cc: u8) -> usize {
            self.b(0x0F);
            self.b(0x80 | cc);
            let pos = self.here();
            self.i32v(0);
            pos
        }
        /// Long `jmp rel32` with the target patched later.
        fn jmp32(&mut self) -> usize {
            self.b(0xE9);
            let pos = self.here();
            self.i32v(0);
            pos
        }
        /// Resolves a local forward rel32 to the current position.
        fn bind(&mut self, pos: usize) {
            let rel = (self.here() as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        /// Short `jcc rel8` with the target patched later.
        fn jcc8(&mut self, cc: u8) -> usize {
            self.b(0x70 | cc);
            let pos = self.here();
            self.b(0);
            pos
        }
        /// Short `jmp rel8` with the target patched later.
        fn jmp8(&mut self) -> usize {
            self.b(0xEB);
            let pos = self.here();
            self.b(0);
            pos
        }
        fn bind8(&mut self, pos: usize) {
            let rel = self.here() as i64 - (pos as i64 + 1);
            debug_assert!((-128..=127).contains(&rel));
            self.code[pos] = rel as i8 as u8;
        }
    }

    /// One pending rel32 fixup.
    enum Fixup {
        /// Branch to a micro-op slot.
        Slot(usize, u32),
        /// Branch to the *raw* epilogue — used after trampoline faults,
        /// where the frame was already flushed before the call.
        Epilogue(usize),
        /// Branch to the fault label (`rax` holds slot + 1).
        Fault(usize),
        /// Branch to the flush-then-return label (`Exit`).
        FlushExit(usize),
    }

    // -----------------------------------------------------------------
    // The emitter
    // -----------------------------------------------------------------

    /// `r10`'s constant value; the emitter folds it instead of giving the
    /// frame pointer a home.
    const STACK_TOP: u64 = STACK_BASE + STACK_SIZE as u64;

    /// Callee-saved candidate homes (preserved across the Rust trampoline
    /// calls, so they only need reloading after a helper — which may write
    /// any BPF register — not after a load/store trampoline).
    const CALLEE_HOMES: [u8; 5] = [R12, R13, R14, R15, RBP];
    /// Caller-saved candidate homes; free to use (no push/pop) but
    /// clobbered by every trampoline call.
    const CALLER_HOMES: [u8; 4] = [R8, R9, R10, R11];

    /// The per-program register assignment: which BPF registers live in
    /// which host registers for the whole program.
    ///
    /// Live intervals are computed over the expanded micro-op stream, but
    /// homes are fixed for the program rather than time-shared between
    /// values: the verifier only accepts forward jumps, so an interval
    /// hand-off point could be jumped over, leaving a home stale. With ten
    /// allocatable BPF registers (`r10` folds to the constant
    /// [`STACK_TOP`]) and nine candidate homes, at most one value stays
    /// frame-resident — the one with the fewest uses.
    struct RegPlan {
        /// Host home per BPF register (`None` = frame-resident).
        home: [Option<u8>; NUM_REGS],
        /// `(bpf_reg, host_reg)` pairs, in assignment order.
        homed: Vec<(u8, u8)>,
        /// Callee-saved homes actually assigned (these get pushed).
        callee_used: Vec<u8>,
        /// The caller-saved subset of `homed`.
        caller_homed: Vec<(u8, u8)>,
        /// Whether any op can call a trampoline (helper call, packet load,
        /// generic access): decides candidate ordering and rsp alignment.
        has_calls: bool,
        /// BPF registers left frame-resident under register pressure.
        spills: u32,
    }

    /// Plans the homes for `ops`. [`super::NativeMode::FrameOnly`] offers no
    /// candidate homes at all, so every used register is frame-resident.
    fn plan_registers(ops: &[MicroOp], facts: &AccessFacts, mode: super::NativeMode) -> RegPlan {
        let mut uses = [0u32; NUM_REGS];
        let mut first = [usize::MAX; NUM_REGS];
        let mut has_calls = false;
        for (slot, op) in ops.iter().enumerate() {
            op.for_each_reg(|r| {
                let r = usize::from(r);
                uses[r] += 1;
                if first[r] == usize::MAX {
                    first[r] = slot;
                }
            });
            has_calls |= match op {
                MicroOp::Call { .. } => true,
                MicroOp::Load { .. } | MicroOp::StoreReg { .. } | MicroOp::StoreImm { .. } => {
                    matches!(
                        facts.get(slot),
                        AccessFact::Packet | AccessFact::Other | AccessFact::MapLookup { .. }
                    )
                }
                _ => false,
            };
        }
        // Rank r0–r9 by use count (ties: earlier live-interval start
        // first); r10 is excluded — it is a read-only compile-time
        // constant, and its frame slot stays valid because nothing ever
        // writes it.
        let mut ranked: Vec<u8> = (0..10u8).filter(|&r| uses[usize::from(r)] > 0).collect();
        ranked.sort_by_key(|&r| (std::cmp::Reverse(uses[usize::from(r)]), first[usize::from(r)]));
        // Call-free programs prefer caller-saved homes (no pushes at all);
        // programs with trampoline call sites prefer callee-saved homes
        // (fewer reloads around each call).
        let pool: Vec<u8> = match mode {
            super::NativeMode::FrameOnly => Vec::new(),
            super::NativeMode::RegAlloc if has_calls => {
                CALLEE_HOMES.iter().chain(CALLER_HOMES.iter()).copied().collect()
            }
            super::NativeMode::RegAlloc => CALLER_HOMES.iter().chain(CALLEE_HOMES.iter()).copied().collect(),
        };
        let mut home = [None; NUM_REGS];
        let mut homed = Vec::new();
        for (&bpf, &host) in ranked.iter().zip(pool.iter()) {
            home[usize::from(bpf)] = Some(host);
            homed.push((bpf, host));
        }
        let spills = ranked.len().saturating_sub(pool.len()) as u32;
        let callee_used = homed.iter().map(|&(_, h)| h).filter(|h| CALLEE_HOMES.contains(h)).collect();
        let caller_homed = homed.iter().copied().filter(|(_, h)| CALLER_HOMES.contains(h)).collect();
        RegPlan { home, homed, callee_used, caller_homed, has_calls, spills }
    }

    /// The register-resident emitter. BPF registers live in their homes for
    /// the whole program; the frame doubles as the spill area and as the
    /// coherence point around trampolines — every home is written back
    /// before a call and at the fault/exit edges, so trampolines, helpers
    /// and the fault path see exactly the interpreter's register file.
    struct RegEmitter<'a> {
        asm: Asm,
        facts: &'a AccessFacts,
        loaded: &'a LoadedProgram,
        offsets: Vec<usize>,
        fixups: Vec<Fixup>,
        home: [Option<u8>; NUM_REGS],
        homed: Vec<(u8, u8)>,
        caller_homed: Vec<(u8, u8)>,
        elided_checks: u32,
        inlined_helpers: u32,
        lookup_sites: u32,
    }

    impl<'a> RegEmitter<'a> {
        fn home_of(&self, r: u8) -> Option<u8> {
            self.home[usize::from(r)]
        }

        // --- frame traffic (REX-aware: any host register) --------------

        fn load_frame(&mut self, host: u8, bpf_reg: u8, is64: bool) {
            self.asm.op_rm(&[0x8B], is64, host, RBX, 8 * i32::from(bpf_reg));
        }
        fn store_frame(&mut self, bpf_reg: u8, host: u8) {
            self.asm.op_rm(&[0x89], true, host, RBX, 8 * i32::from(bpf_reg));
        }
        fn load_field(&mut self, host: u8, disp: i32) {
            self.asm.op_rm(&[0x8B], true, host, RBX, disp);
        }

        /// Copies BPF register `r` into `host` (zero-extending when 32-bit).
        fn read_reg(&mut self, host: u8, r: u8, is64: bool) {
            if r == 10 {
                self.asm.movabs_r(host, STACK_TOP);
                if !is64 {
                    self.asm.op_rr(&[0x8B], false, host, host); // truncate
                }
            } else if let Some(h) = self.home_of(r) {
                self.asm.op_rr(&[0x8B], is64, host, h);
            } else {
                self.load_frame(host, r, is64);
            }
        }
        /// Writes the full 64-bit value in `host` into BPF register `r`.
        fn write_reg(&mut self, r: u8, host: u8) {
            if let Some(h) = self.home_of(r) {
                if h != host {
                    self.asm.op_rr(&[0x8B], true, h, host);
                }
            } else {
                self.store_frame(r, host);
            }
        }
        /// The host register currently holding `r`'s full value,
        /// materializing frame-resident (or constant-`r10`) values in rax.
        fn reg_to_host(&mut self, r: u8) -> u8 {
            if r != 10 {
                if let Some(h) = self.home_of(r) {
                    return h;
                }
            }
            self.read_reg(RAX, r, true);
            RAX
        }
        /// A host register `dst` can be updated in place: its home, or rax
        /// holding the frame value (loaded when `read`). Pair with
        /// [`Self::release`].
        fn acquire(&mut self, dst: u8, is64: bool, read: bool) -> u8 {
            if let Some(h) = self.home_of(dst) {
                h
            } else {
                if read {
                    self.load_frame(RAX, dst, is64);
                }
                RAX
            }
        }
        fn release(&mut self, dst: u8, work: u8) {
            if self.home_of(dst).is_none() {
                self.store_frame(dst, work);
            }
        }

        // --- home <-> frame coherence ----------------------------------

        /// Writes every register-resident value back to the frame, which
        /// trampolines, helpers and the fault path read.
        fn flush_homes(&mut self) {
            for i in 0..self.homed.len() {
                let (r, h) = self.homed[i];
                self.store_frame(r, h);
            }
        }
        /// Reloads every home from the frame — required after a helper,
        /// which may write any BPF register.
        fn reload_homes(&mut self) {
            for i in 0..self.homed.len() {
                let (r, h) = self.homed[i];
                self.load_frame(h, r, true);
            }
        }
        /// Reloads only the caller-saved homes — enough after a load/store
        /// trampoline, which never writes BPF registers (the callee-saved
        /// homes survive the call untouched).
        fn reload_caller_homes(&mut self) {
            for i in 0..self.caller_homed.len() {
                let (r, h) = self.caller_homed[i];
                self.load_frame(h, r, true);
            }
        }

        // --- guards and slow-path calls --------------------------------

        /// `jcc fault` taking the branch when `cc` holds: emitted as the
        /// inverted short jump over a `mov eax, slot+1; jmp fault` pair.
        fn fault_if(&mut self, cc: u8, slot: usize) {
            self.asm.b(0x70 | (cc ^ 1));
            self.asm.b(10);
            self.asm.b(0xB8);
            self.asm.i32v(slot as i32 + 1);
            self.asm.b(0xE9);
            let pos = self.asm.here();
            self.asm.i32v(0);
            self.fixups.push(Fixup::Fault(pos));
        }
        fn emit_ctx_guard(&mut self, slot: usize, end: u16) {
            self.asm.bytes(&[0x48, 0x81]);
            self.asm.modrm_mem(7, RBX, OFF_CTX_LEN); // cmp /7
            self.asm.i32v(i32::from(end));
            self.fault_if(CC_B, slot);
        }
        /// `cmp qword [rbx+fault], 0; jne epilogue` — the raw epilogue:
        /// the frame was flushed before the trampoline call, and the
        /// trampoline never writes BPF registers on the fault path.
        fn emit_fault_check(&mut self) {
            self.asm.bytes(&[0x48, 0x83]);
            self.asm.modrm_mem(7, RBX, OFF_FAULT); // cmp /7, imm8
            self.asm.b(0);
            let pos = self.asm.jcc32(CC_NE);
            self.fixups.push(Fixup::Epilogue(pos));
        }
        /// `cmp qword [rbx+inline_flags], 0; je <returned pos>` — guards
        /// every inline helper fast path on the per-invocation environment
        /// snapshot being valid.
        fn flag_check(&mut self) -> usize {
            self.asm.bytes(&[0x48, 0x83]);
            self.asm.modrm_mem(7, RBX, OFF_INLINE_FLAGS);
            self.asm.b(0);
            self.asm.jcc32(CC_E)
        }
        fn emit_tramp_load(&mut self, slot: usize, size: AccessSize) {
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.op_rr(&[0x8B], true, RSI, RCX); // mov rsi, rcx (addr)
            self.asm.b(0xBA); // mov edx, size
            self.asm.i32v(size.bytes() as i32);
            self.asm.b(0xB9); // mov ecx, slot
            self.asm.i32v(slot as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u64, u32, u32) -> u64 = tramp_load;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.emit_fault_check();
            self.reload_caller_homes();
        }
        /// Calls [`tramp_store`] with the value already in `rax`.
        fn emit_tramp_store(&mut self, slot: usize, size: AccessSize) {
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.op_rr(&[0x8B], true, RSI, RCX); // mov rsi, rcx (addr)
            self.asm.op_rr(&[0x8B], true, RDX, RAX); // mov rdx, rax (value)
            self.asm.b(0xB9); // mov ecx, size
            self.asm.i32v(size.bytes() as i32);
            self.asm.bytes(&[0x41, 0xB8]); // mov r8d, slot
            self.asm.i32v(slot as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u64, u64, u32, u32) = tramp_store;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.emit_fault_check();
            self.reload_caller_homes();
        }

        // --- memory access ---------------------------------------------

        /// Computes the synthetic address `regs[base] + off` into `rcx`;
        /// the constant `r10` folds to an immediate.
        fn addr_to_rcx(&mut self, base: u8, off: i16) {
            if base == 10 {
                self.asm.movabs_r(RCX, STACK_TOP.wrapping_add(i64::from(off) as u64));
                return;
            }
            self.read_reg(RCX, base, true);
            if off != 0 {
                self.asm.grp81(true, 0, RCX, i32::from(off)); // add rcx, imm32
            }
        }
        /// Width-correct zero-extending load from `[base + rcx]` into
        /// `dest`.
        fn load_mem(&mut self, size: AccessSize, base: u8, dest: u8) {
            match size {
                AccessSize::Byte => self.asm.op_sib(&[0x0F, 0xB6], false, dest, base, RCX),
                AccessSize::Half => self.asm.op_sib(&[0x0F, 0xB7], false, dest, base, RCX),
                AccessSize::Word => self.asm.op_sib(&[0x8B], false, dest, base, RCX),
                AccessSize::Double => self.asm.op_sib(&[0x8B], true, dest, base, RCX),
            }
        }
        /// Width-correct store of `value`'s low bytes to `[base + rcx]`.
        fn store_mem(&mut self, size: AccessSize, base: u8, mut value: u8) {
            if size == AccessSize::Byte && (4..8).contains(&value) {
                // rbp as a byte source would encode `ch` without a REX
                // prefix; route it through rax instead.
                self.asm.op_rr(&[0x8B], true, RAX, value);
                value = RAX;
            }
            match size {
                AccessSize::Byte => self.asm.op_sib(&[0x88], false, value, base, RCX),
                AccessSize::Half => {
                    self.asm.b(0x66);
                    self.asm.op_sib(&[0x89], false, value, base, RCX);
                }
                AccessSize::Word => self.asm.op_sib(&[0x89], false, value, base, RCX),
                AccessSize::Double => self.asm.op_sib(&[0x89], true, value, base, RCX),
            }
        }
        /// Resolves the synthetic map-value address in `rcx` to a bias in
        /// `rdx` via the per-state region table: the region index is the
        /// address's upper word minus the `MAP_VALUE_BASE` tag. No bounds
        /// check is needed — the `MapValue` fact proves offset and size,
        /// and the pointer came from a lookup in this run, so the region
        /// is registered (and [`tramp_helper`] refreshes the table pointer
        /// after every helper call).
        fn emit_region_bias_to_rdx(&mut self) {
            self.asm.op_rr(&[0x8B], true, RDX, RCX); // mov rdx, rcx
            self.asm.shift_imm(true, 5, RDX, 32); // shr rdx, 32
            self.asm.grp81(true, 5, RDX, (MAP_VALUE_BASE >> 32) as i32); // sub
            self.load_field(RSI, OFF_REGION_TBL);
            self.asm.load64_sib8(RDX, RSI, RDX); // mov rdx, [rsi + rdx*8]
        }
        /// Region dispatch for a load at `slot`; `rcx` holds the synthetic
        /// address, and the result lands directly in `dst`'s home (or its
        /// frame slot).
        fn emit_load_access(&mut self, slot: usize, size: AccessSize, dst: u8) {
            let dest = self.home_of(dst).unwrap_or(RAX);
            match self.facts.get(slot) {
                AccessFact::Stack => {
                    self.load_field(RDX, OFF_STACK_BIAS);
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::Ctx { end } => {
                    self.emit_ctx_guard(slot, end);
                    self.load_field(RDX, OFF_CTX_BIAS);
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::MapValue => {
                    self.emit_region_bias_to_rdx();
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::Packet => {
                    // Carry + length check, falling back to the generic
                    // resolver so faults match the interpreter exactly.
                    self.asm.movabs_r(RSI, PKT_BASE);
                    self.asm.op_rr(&[0x8B], true, RDX, RCX); // mov rdx, rcx
                    self.asm.op_rr(&[0x2B], true, RDX, RSI); // sub rdx, rsi
                    self.asm.op_rr(&[0x8B], true, RSI, RDX); // mov rsi, rdx
                    self.asm.grp81(true, 0, RSI, size.bytes() as i32); // add
                    let slow_carry = self.asm.jcc32(CC_B);
                    self.asm.op_rm(&[0x3B], true, RSI, RBX, OFF_PKT_LEN);
                    let slow_len = self.asm.jcc32(CC_A);
                    self.load_field(RSI, OFF_PKT_BIAS);
                    self.load_mem(size, RSI, dest);
                    self.write_reg(dst, dest);
                    let done = self.asm.jmp32();
                    self.asm.bind(slow_carry);
                    self.asm.bind(slow_len);
                    self.emit_tramp_load(slot, size);
                    self.write_reg(dst, RAX);
                    self.asm.bind(done);
                    self.elided_checks += 1;
                }
                AccessFact::Other | AccessFact::MapLookup { .. } => {
                    self.emit_tramp_load(slot, size);
                    self.write_reg(dst, RAX);
                }
            }
        }
        /// Region dispatch for a store at `slot`; `rcx` holds the
        /// synthetic address and `value` the host register with the value.
        fn emit_store_access(&mut self, slot: usize, size: AccessSize, value: u8) {
            match self.facts.get(slot) {
                AccessFact::Stack => {
                    self.load_field(RDX, OFF_STACK_BIAS);
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::Ctx { end } => {
                    self.emit_ctx_guard(slot, end);
                    self.load_field(RDX, OFF_CTX_BIAS);
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::MapValue => {
                    self.emit_region_bias_to_rdx();
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::Packet | AccessFact::Other | AccessFact::MapLookup { .. } => {
                    if value != RAX {
                        self.asm.op_rr(&[0x8B], true, RAX, value);
                    }
                    self.emit_tramp_store(slot, size);
                }
            }
        }

        // --- helper calls ----------------------------------------------

        /// The generic helper path: flush, call [`tramp_helper`], reload
        /// everything (a helper may write any BPF register), set r0.
        fn emit_helper_tramp(&mut self, idx: u32) {
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.b(0xBE); // mov esi, idx
            self.asm.i32v(idx as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u32) -> i64 = tramp_helper;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.reload_homes();
            self.write_reg(0, RAX);
        }
        /// Array-map lookup with a per-site result cache: tag = cpu_tag +
        /// key + 1, hit = compare + load, miss = [`tramp_helper_cached`]
        /// (which fills the site on success). The hit path needs no bounds
        /// check — only successful lookups are ever cached.
        fn emit_cached_lookup(&mut self, idx: u32) {
            let site = self.lookup_sites;
            self.lookup_sites += 1;
            self.inlined_helpers += 1;
            let disp = site as i32 * 16;
            let slow = self.flag_check();
            // rcx = host address of the stack-resident key; ecx = key.
            self.read_reg(RCX, 2, true);
            self.asm.op_rm(&[0x03], true, RCX, RBX, OFF_STACK_BIAS); // add
            self.asm.op_rm(&[0x8B], false, RCX, RCX, 0); // mov ecx, [rcx]
            self.load_field(RDX, OFF_INLINE_CPU_TAG);
            self.asm.op_rr(&[0x03], true, RDX, RCX); // add rdx, rcx
            self.asm.bytes(&[0x48, 0xFF, 0xC2]); // inc rdx
            self.load_field(RSI, OFF_SITE_CACHE);
            self.asm.op_rm(&[0x3B], true, RDX, RSI, disp); // cmp rdx, [..]
            let miss = self.asm.jcc32(CC_NE);
            self.asm.op_rm(&[0x8B], true, RAX, RSI, disp + 8); // cached ptr
            self.write_reg(0, RAX);
            let done = self.asm.jmp32();
            self.asm.bind(slow);
            self.asm.bind(miss);
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.b(0xBE); // mov esi, idx
            self.asm.i32v(idx as i32);
            self.asm.b(0xBA); // mov edx, site
            self.asm.i32v(site as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u32, u32) -> i64 = tramp_helper_cached;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.reload_homes();
            self.write_reg(0, RAX);
            self.asm.bind(done);
        }
        fn emit_call(&mut self, slot: usize, idx: u32, id: u32) {
            // Trivially-pure helpers: one load off the frame's environment
            // snapshot when it is valid, trampoline otherwise (recording
            // environments never publish a snapshot, so their observable
            // call sequence is unchanged).
            if id == ids::KTIME_GET_NS || id == ids::GET_SMP_PROCESSOR_ID {
                let field = if id == ids::KTIME_GET_NS { OFF_INLINE_KTIME } else { OFF_INLINE_CPU };
                let slow = self.flag_check();
                self.load_field(RAX, field);
                self.write_reg(0, RAX);
                let done = self.asm.jmp32();
                self.asm.bind(slow);
                self.emit_helper_tramp(idx);
                self.asm.bind(done);
                self.inlined_helpers += 1;
                return;
            }
            // Array-family lookups with a verifier-proven stack-resident
            // u32 key get the per-site cache fast path.
            if id == ids::MAP_LOOKUP_ELEM {
                if let AccessFact::MapLookup { fd, key_in_stack: true } = self.facts.get(slot) {
                    if let Some(map) = self.loaded.maps.get(&fd) {
                        if matches!(map.map_type(), MapType::Array | MapType::PerCpuArray)
                            && map.key_size() == 4
                        {
                            self.emit_cached_lookup(idx);
                            return;
                        }
                    }
                }
            }
            self.emit_helper_tramp(idx);
        }

        // --- operations ------------------------------------------------

        fn emit_alu_imm(&mut self, op: u8, is64: bool, dst: u8, imm: u64, slot: usize) -> Result<()> {
            if op == alu::MOV {
                if let Some(h) = self.home_of(dst) {
                    // 64-bit form sign-extends, 32-bit zero-extends — both
                    // the BPF semantics.
                    self.asm.mov_ri32(is64, h, imm as i32);
                } else if is64 {
                    self.asm.bytes(&[0x48, 0xC7]); // mov qword [..], imm32
                    self.asm.modrm_mem(0, RBX, 8 * i32::from(dst));
                    self.asm.i32v(imm as i32);
                } else {
                    self.asm.b(0xB8); // mov eax, imm32
                    self.asm.i32v(imm as u32 as i32);
                    self.store_frame(dst, RAX);
                }
                return Ok(());
            }
            match op {
                alu::ADD | alu::OR | alu::AND | alu::SUB | alu::XOR => {
                    let ext = match op {
                        alu::ADD => 0,
                        alu::OR => 1,
                        alu::AND => 4,
                        alu::SUB => 5,
                        _ => 6, // XOR
                    };
                    let work = self.acquire(dst, is64, true);
                    self.asm.grp81(is64, ext, work, imm as i32);
                    self.release(dst, work);
                }
                alu::MUL => {
                    let work = self.acquire(dst, is64, true);
                    self.asm.op_rr(&[0x69], is64, work, work); // imul r, r, imm
                    self.asm.i32v(imm as i32);
                    self.release(dst, work);
                }
                alu::DIV | alu::MOD => {
                    // The verifier rejects DIV/MOD by immediate zero.
                    self.read_reg(RAX, dst, is64);
                    if is64 {
                        self.asm.bytes(&[0x48, 0xC7, 0xC1]); // mov rcx, imm32
                        self.asm.i32v(imm as i32);
                    } else {
                        self.asm.b(0xB9); // mov ecx, imm32
                        self.asm.i32v(imm as u32 as i32);
                    }
                    self.emit_divmod(op, is64, false);
                    self.write_reg(dst, RAX);
                }
                alu::LSH | alu::RSH | alu::ARSH => {
                    let ext = match op {
                        alu::LSH => 4,
                        alu::RSH => 5,
                        _ => 7, // ARSH
                    };
                    let amount = (imm as u32) & if is64 { 63 } else { 31 };
                    let work = self.acquire(dst, is64, true);
                    self.asm.shift_imm(is64, ext, work, amount as u8);
                    self.release(dst, work);
                }
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported ALU op 0x{other:x}")))
                }
            }
            Ok(())
        }

        fn emit_alu_reg(&mut self, op: u8, is64: bool, dst: u8, src: u8, slot: usize) -> Result<()> {
            if op == alu::MOV {
                if let Some(h) = self.home_of(dst) {
                    self.read_reg(h, src, is64);
                } else {
                    self.read_reg(RAX, src, is64);
                    self.store_frame(dst, RAX);
                }
                return Ok(());
            }
            match op {
                alu::ADD | alu::OR | alu::AND | alu::SUB | alu::XOR | alu::MUL => {
                    let opcodes: &[u8] = match op {
                        alu::ADD => &[0x03],
                        alu::OR => &[0x0B],
                        alu::AND => &[0x23],
                        alu::SUB => &[0x2B],
                        alu::XOR => &[0x33],
                        _ => &[0x0F, 0xAF], // imul
                    };
                    let work = self.acquire(dst, is64, true);
                    if src == 10 {
                        self.asm.movabs_r(RDX, STACK_TOP);
                        self.asm.op_rr(opcodes, is64, work, RDX);
                    } else if let Some(hs) = self.home_of(src) {
                        self.asm.op_rr(opcodes, is64, work, hs);
                    } else {
                        self.asm.op_rm(opcodes, is64, work, RBX, 8 * i32::from(src));
                    }
                    self.release(dst, work);
                }
                alu::DIV | alu::MOD => {
                    self.read_reg(RCX, src, is64);
                    self.read_reg(RAX, dst, is64);
                    self.emit_divmod(op, is64, true);
                    self.write_reg(dst, RAX);
                }
                alu::LSH | alu::RSH | alu::ARSH => {
                    let ext = match op {
                        alu::LSH => 4,
                        alu::RSH => 5,
                        _ => 7, // ARSH
                    };
                    self.read_reg(RCX, src, is64);
                    let work = self.acquire(dst, is64, true);
                    self.asm.shift_cl(is64, ext, work);
                    self.release(dst, work);
                }
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported ALU op 0x{other:x}")))
                }
            }
            Ok(())
        }

        /// Unsigned rax / rcx with the BPF division-by-zero semantics.
        fn emit_divmod(&mut self, op: u8, is64: bool, guard_zero: bool) {
            let mut zero_jump = None;
            if guard_zero {
                if is64 {
                    self.asm.bytes(&[0x48, 0x85, 0xC9]); // test rcx, rcx
                } else {
                    self.asm.bytes(&[0x85, 0xC9]); // test ecx, ecx
                }
                zero_jump = Some(self.asm.jcc8(CC_E));
            }
            self.asm.bytes(&[0x33, 0xD2]); // xor edx, edx
            if is64 {
                self.asm.bytes(&[0x48, 0xF7, 0xF1]); // div rcx
            } else {
                self.asm.bytes(&[0xF7, 0xF1]); // div ecx
            }
            if op == alu::MOD {
                if is64 {
                    self.asm.bytes(&[0x48, 0x8B, 0xC2]); // mov rax, rdx
                } else {
                    self.asm.bytes(&[0x8B, 0xC2]); // mov eax, edx
                }
            }
            if let Some(pos) = zero_jump {
                let done = self.asm.jmp8();
                self.asm.bind8(pos);
                if op == alu::DIV {
                    self.asm.bytes(&[0x33, 0xC0]); // xor eax, eax
                }
                self.asm.bind8(done);
            }
        }

        fn emit_byteswap(&mut self, dst: u8, bits: u8, to_be: bool, slot: usize) -> Result<()> {
            if bits == 64 && !to_be {
                return Ok(()); // identity
            }
            let work = self.acquire(dst, true, true);
            match (bits, to_be) {
                (16, true) => {
                    self.asm.b(0x66);
                    self.asm.shift_imm(false, 1, work, 8); // ror work16, 8
                    self.asm.op_rr(&[0x0F, 0xB7], false, work, work); // movzx
                }
                (16, false) => {
                    self.asm.op_rr(&[0x0F, 0xB7], false, work, work); // movzx
                }
                (32, true) => self.asm.bswap(false, work),
                (32, false) => {
                    self.asm.op_rr(&[0x8B], false, work, work); // truncate
                }
                (64, true) => self.asm.bswap(true, work),
                _ => return Err(Error::runtime(slot, format!("codegen: unsupported swap width {bits}"))),
            }
            self.release(dst, work);
            Ok(())
        }

        fn emit_jump_if(
            &mut self,
            op: u8,
            is64: bool,
            dst: u8,
            rhs: Operand,
            target: u32,
            slot: usize,
        ) -> Result<()> {
            let lhs = if dst == 10 {
                self.read_reg(RAX, dst, is64);
                RAX
            } else {
                self.acquire(dst, is64, true)
            };
            let is_set = op == jmp::JSET;
            match rhs {
                Operand::Imm(imm) => {
                    if is_set {
                        self.asm.grp_f7(is64, 0, lhs); // test lhs, imm32
                        self.asm.i32v(imm as i32);
                    } else {
                        self.asm.grp81(is64, 7, lhs, imm as i32); // cmp
                    }
                }
                Operand::Reg(src) => {
                    let rhs_host = if src == 10 {
                        self.asm.movabs_r(RDX, STACK_TOP);
                        RDX
                    } else if let Some(hs) = self.home_of(src) {
                        hs
                    } else {
                        self.load_frame(RDX, src, is64);
                        RDX
                    };
                    if is_set {
                        self.asm.op_rr(&[0x85], is64, rhs_host, lhs); // test
                    } else {
                        self.asm.op_rr(&[0x3B], is64, lhs, rhs_host); // cmp
                    }
                }
            }
            let cc = match op {
                jmp::JEQ => CC_E,
                jmp::JNE | jmp::JSET => CC_NE,
                jmp::JGT => CC_A,
                jmp::JGE => CC_AE,
                jmp::JLT => CC_B,
                jmp::JLE => CC_BE,
                jmp::JSGT => CC_G,
                jmp::JSGE => CC_GE,
                jmp::JSLT => CC_L,
                jmp::JSLE => CC_LE,
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported jump op 0x{other:x}")))
                }
            };
            let pos = self.asm.jcc32(cc);
            self.fixups.push(Fixup::Slot(pos, target));
            Ok(())
        }

        fn emit_op(&mut self, slot: usize, op: &MicroOp) -> Result<()> {
            match *op {
                MicroOp::AluImm { op, is64, dst, imm } => self.emit_alu_imm(op, is64, dst, imm, slot)?,
                MicroOp::AluReg { op, is64, dst, src } => self.emit_alu_reg(op, is64, dst, src, slot)?,
                MicroOp::Neg { is64, dst } => {
                    let work = self.acquire(dst, is64, true);
                    self.asm.grp_f7(is64, 3, work); // neg
                    self.release(dst, work);
                }
                MicroOp::ByteSwap { dst, bits, to_be } => self.emit_byteswap(dst, bits, to_be, slot)?,
                MicroOp::LoadImm64 { dst, imm } => {
                    if let Some(h) = self.home_of(dst) {
                        self.asm.movabs_r(h, imm);
                    } else {
                        self.asm.movabs_r(RAX, imm);
                        self.store_frame(dst, RAX);
                    }
                }
                MicroOp::Load { size, dst, src, off } => {
                    self.addr_to_rcx(src, off);
                    self.emit_load_access(slot, size, dst);
                }
                MicroOp::StoreReg { size, dst, src, off } => {
                    self.addr_to_rcx(dst, off);
                    let value = self.reg_to_host(src);
                    self.emit_store_access(slot, size, value);
                }
                MicroOp::StoreImm { size, dst, off, imm } => {
                    self.addr_to_rcx(dst, off);
                    self.asm.movabs_r(RAX, imm);
                    self.emit_store_access(slot, size, RAX);
                }
                MicroOp::Jump { target } => {
                    let pos = self.asm.jmp32();
                    self.fixups.push(Fixup::Slot(pos, target));
                }
                MicroOp::JumpIf { op, is64, dst, rhs, target } => {
                    self.emit_jump_if(op, is64, dst, rhs, target, slot)?
                }
                MicroOp::Call { idx, id } => self.emit_call(slot, idx, id),
                MicroOp::Exit => {
                    let pos = self.asm.jmp32();
                    self.fixups.push(Fixup::FlushExit(pos));
                }
                MicroOp::Nop => {}
            }
            Ok(())
        }
    }

    pub(super) fn compile(
        ops: &[MicroOp],
        facts: &AccessFacts,
        loaded: &LoadedProgram,
        mode: super::NativeMode,
    ) -> Result<super::NativeProgram> {
        let plan = plan_registers(ops, facts, mode);
        let mut e = RegEmitter {
            asm: Asm::default(),
            facts,
            loaded,
            offsets: vec![0usize; ops.len()],
            fixups: Vec::new(),
            home: plan.home,
            homed: plan.homed.clone(),
            caller_homed: plan.caller_homed.clone(),
            elided_checks: 0,
            inlined_helpers: 0,
            lookup_sites: 0,
        };
        // Prologue: push rbx + the callee-saved homes. Entry rsp is at
        // 8 mod 16, so an odd push count re-aligns it for the trampoline
        // call sites; pad when the count comes out even.
        e.asm.b(0x53); // push rbx
        for &h in &plan.callee_used {
            if h >= 8 {
                e.asm.b(0x41);
            }
            e.asm.b(0x50 + (h & 7));
        }
        let pad = plan.has_calls && (1 + plan.callee_used.len()).is_multiple_of(2);
        if pad {
            e.asm.bytes(&[0x48, 0x83, 0xEC, 0x08]); // sub rsp, 8
        }
        e.asm.bytes(&[0x48, 0x89, 0xFB]); // mov rbx, rdi
                                          // Load every home: homes are architecturally current from here on.
        for i in 0..e.homed.len() {
            let (r, h) = e.homed[i];
            e.load_frame(h, r, true);
        }
        for (slot, op) in ops.iter().enumerate() {
            e.offsets[slot] = e.asm.here();
            e.emit_op(slot, op)?;
        }
        // Fell-off-the-end guard (verifier-unreachable), as a recorded
        // fault.
        e.asm.b(0xB8);
        e.asm.i32v(ops.len() as i32 + 1);
        // Fault label: rax holds slot + 1; record it, then fall into the
        // flush (homes are current at every guard-fault site).
        let fault_label = e.asm.here();
        e.asm.bytes(&[0x48, 0x89]);
        e.asm.modrm_mem(RAX, RBX, OFF_FAULT);
        // Exit label: write the register-resident values back.
        let flush_label = e.asm.here();
        e.flush_homes();
        // Raw epilogue — also the trampoline-fault target (those flushed
        // before the call; their caller-saved homes are clobbered and must
        // not be written back).
        let epilogue_label = e.asm.here();
        if pad {
            e.asm.bytes(&[0x48, 0x83, 0xC4, 0x08]); // add rsp, 8
        }
        for &h in plan.callee_used.iter().rev() {
            if h >= 8 {
                e.asm.b(0x41);
            }
            e.asm.b(0x58 + (h & 7));
        }
        e.asm.bytes(&[0x5B, 0xC3]); // pop rbx; ret
        for fixup in std::mem::take(&mut e.fixups) {
            let (pos, target) = match fixup {
                Fixup::Slot(pos, slot) => (pos, e.offsets[slot as usize]),
                Fixup::Epilogue(pos) => (pos, epilogue_label),
                Fixup::Fault(pos) => (pos, fault_label),
                Fixup::FlushExit(pos) => (pos, flush_label),
            };
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            e.asm.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        let debug = super::NativeDebug {
            regalloc: mode == super::NativeMode::RegAlloc,
            assignments: e.homed.iter().map(|&(r, h)| (r, host_reg_name(h))).collect(),
            spills: plan.spills,
            elided_checks: e.elided_checks,
            inlined_helpers: e.inlined_helpers,
            lookup_sites: e.lookup_sites,
        };
        let buf = ExecBuf::new(&e.asm.code)?;
        Ok(super::NativeProgram { buf, debug })
    }

    pub(super) fn run(
        native: &super::NativeProgram,
        loaded: &LoadedProgram,
        rc: &mut RunContext<'_>,
        state: &mut RunState,
    ) -> Result<u64> {
        // Per-invocation environment snapshot: when the environment opts
        // in, inline helper fast paths read these frame fields instead of
        // calling back into Rust. Recording environments return `None`,
        // which zeroes `inline_flags` and sends every helper through the
        // trampoline — their observable call sequence is unchanged.
        let snapshot = rc.env.snapshot();
        let sites = native.debug.lookup_sites as usize;
        let site_cache =
            if sites > 0 && snapshot.is_some() { state.lookup_cache(loaded.uid(), sites) as u64 } else { 0 };
        let (inline_flags, inline_ktime, inline_cpu) = match snapshot {
            Some(s) => (1u64, s.ktime_ns, u64::from(s.cpu_id)),
            None => (0, 0, 0),
        };
        let mut frame = NativeFrame {
            regs: state.regs,
            stack_bias: (state.stack.as_mut_ptr() as u64).wrapping_sub(STACK_BASE),
            ctx_bias: (rc.ctx.as_mut_ptr() as u64).wrapping_sub(CTX_BASE),
            ctx_len: rc.ctx.len() as u64,
            pkt_bias: (rc.packet.as_mut_ptr() as u64).wrapping_sub(PKT_BASE),
            pkt_len: rc.packet.len() as u64,
            tramp_ctx: 0,
            fault: 0,
            region_tbl: state.region_bias_ptr() as u64,
            site_cache,
            inline_flags,
            inline_ktime,
            inline_cpu,
            // Tag salt: (cpu + 1) << 32 keeps tags nonzero and disjoint
            // across CPUs; the key occupies the low 32 bits.
            inline_cpu_tag: (inline_cpu + 1) << 32,
        };
        let frame_ptr: *mut NativeFrame = &mut frame;
        let mut tc = TrampCtx {
            frame: frame_ptr,
            state: state as *mut RunState,
            // The lifetime is erased for storage only; the pointer never
            // outlives this call.
            rc: (rc as *mut RunContext<'_>).cast(),
            loaded,
            error: None,
        };
        frame.tramp_ctx = (&mut tc as *mut TrampCtx) as u64;
        // SAFETY: the buffer holds code emitted by `compile` for this
        // program, sealed RX; the entry point has the declared signature.
        // All raw pointers stored above outlive the call, and the generated
        // code only dereferences memory the verifier proved (or the emitted
        // guards / trampolines check) to be inside the frame, stack, ctx or
        // packet buffers.
        unsafe {
            let entry: unsafe extern "C" fn(*mut NativeFrame) =
                std::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut NativeFrame)>(native.buf.ptr);
            entry(frame_ptr);
        }
        state.regs = frame.regs;
        if frame.fault != 0 {
            let insn = (frame.fault - 1) as usize;
            return Err(tc
                .error
                .take()
                .unwrap_or_else(|| Error::runtime(insn, format!("invalid memory access at insn {insn}"))));
        }
        Ok(frame.regs[0])
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{alu, jmp, AccessSize, Insn};
    use crate::program::{load, Program, ProgramType};
    use crate::vm::{NullEnv, RunState, CTX_BASE, STACK_BASE};
    use std::collections::HashMap;

    fn run_native(prog: Program, ctx: &mut [u8], pkt: &mut Vec<u8>) -> Result<u64> {
        let helpers = HelperRegistry::with_base_helpers();
        let loaded = load(prog, &HashMap::new(), &helpers).unwrap();
        let native =
            compile(loaded.jit().unwrap(), loaded.access_facts(), &loaded).unwrap().expect("x86-64 backend");
        let mut env = NullEnv;
        let mut rc = crate::vm::RunContext { ctx, packet: pkt, env: &mut env };
        let mut state = RunState::new(rc.ctx.len());
        run(&native, &loaded, &mut rc, &mut state)
    }

    #[test]
    fn native_arithmetic_matches_interpreter() {
        let insns = vec![
            Insn::mov64_imm(0, 5),
            Insn::alu64_imm(alu::MUL, 0, 7),
            Insn::alu64_imm(alu::SUB, 0, 1),
            Insn::mov64_imm(1, 0),
            Insn::alu64_reg(alu::ADD, 0, 1),
            Insn::alu64_imm(alu::RSH, 0, 1),
            Insn::exit(),
        ];
        let prog = Program::new("arith", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 17);
    }

    #[test]
    fn native_divide_by_zero_register_semantics() {
        let insns = vec![
            Insn::mov64_imm(0, 100),
            Insn::mov64_imm(1, 0),
            Insn::alu64_reg(alu::DIV, 0, 1),
            Insn::exit(),
        ];
        let prog = Program::new("divzero", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0);
    }

    #[test]
    fn native_stack_roundtrip_and_branch() {
        let insns = vec![
            Insn::mov64_imm(1, 0x1234),
            Insn::store_reg(AccessSize::Double, 10, 1, -8),
            Insn::load(AccessSize::Half, 0, 10, -8),
            Insn::jmp_imm(jmp::JEQ, 0, 0x1234, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let prog = Program::new("stack", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0x1234);
    }

    #[test]
    fn native_ctx_guard_faults_on_short_context() {
        // Load past the runtime context length: the verifier allows it (the
        // maximum layout is larger) but the emitted guard must fault with
        // the interpreter's error position.
        let insns = vec![Insn::load(AccessSize::Double, 0, 1, 64), Insn::exit()];
        let prog = Program::new("shortctx", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        let err = run_native(prog, &mut ctx, &mut pkt).unwrap_err();
        match err {
            crate::error::Error::Runtime { insn, .. } => assert_eq!(insn, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn native_reads_context_bytes() {
        let insns = vec![Insn::load(AccessSize::Word, 0, 1, 4), Insn::exit()];
        let prog = Program::new("ctxread", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        ctx[4..8].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0xdead_beef);
    }

    #[test]
    fn supported_reports_this_target() {
        assert!(supported());
        let _ = (STACK_BASE, CTX_BASE); // silence unused imports on cfg skew
    }
}
