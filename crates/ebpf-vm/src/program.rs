//! Program containers and the loader.
//!
//! A [`Program`] is the unverified unit an operator writes (by hand, with
//! the [`crate::asm`] assembler or the [`crate::builder::ProgramBuilder`]).
//! Loading it — as `bpf(BPF_PROG_LOAD)` does in the kernel — runs the
//! verifier and resolves the map file descriptors referenced by
//! `lddw`-with-pseudo-map-fd instructions, producing a [`LoadedProgram`]
//! that the interpreter or the JIT can execute.

use crate::error::{Error, Result};
use crate::helpers::{HelperDesc, HelperRegistry};
use crate::insn::{class, jmp, Insn};
use crate::maps::MapHandle;
use crate::verifier::{self, AccessFacts, VerifierStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// The source-register value marking an `lddw` as a pseudo map-fd load,
/// mirroring the kernel's `BPF_PSEUDO_MAP_FD`.
pub const PSEUDO_MAP_FD: u8 = 1;

/// Hook a program is written for. The hook determines which helpers the
/// verifier lets the program call and what its context looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramType {
    /// The paper's new hook: `seg6local` `End.BPF` endpoint programs.
    LwtSeg6Local,
    /// Lightweight-tunnel input hook.
    LwtIn,
    /// Lightweight-tunnel output hook.
    LwtOut,
    /// Lightweight-tunnel transmit hook (where `bpf_lwt_push_encap` lives).
    LwtXmit,
    /// Classic socket filter (used in tests).
    SocketFilter,
}

impl ProgramType {
    /// Human-readable name, as `bpftool` would print it.
    pub fn name(&self) -> &'static str {
        match self {
            ProgramType::LwtSeg6Local => "lwt_seg6local",
            ProgramType::LwtIn => "lwt_in",
            ProgramType::LwtOut => "lwt_out",
            ProgramType::LwtXmit => "lwt_xmit",
            ProgramType::SocketFilter => "socket_filter",
        }
    }
}

/// Return codes understood by the seg6local and LWT hooks, as defined in the
/// paper (§3.1).
pub mod retcode {
    /// Continue with the default processing (FIB lookup on the new
    /// destination for `End.BPF`).
    pub const BPF_OK: u64 = 0;
    /// Drop the packet.
    pub const BPF_DROP: u64 = 2;
    /// Skip the default lookup; the destination was already set through a
    /// helper (`bpf_lwt_seg6_action` with a lookup-performing action).
    pub const BPF_REDIRECT: u64 = 7;
}

/// An unverified eBPF program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Name used in diagnostics (mirrors the kernel's 16-byte prog name).
    pub name: String,
    /// Hook the program targets.
    pub prog_type: ProgramType,
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// License string; GPL-compatible licenses unlock all helpers, as in the
    /// kernel.
    pub license: String,
}

impl Program {
    /// Creates a program with the GPL license.
    pub fn new(name: impl Into<String>, prog_type: ProgramType, insns: Vec<Insn>) -> Self {
        Program { name: name.into(), prog_type, insns, license: "GPL".to_string() }
    }

    /// Number of instructions (two-slot `lddw` counts as two).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// How a loaded program is executed.
///
/// The loader auto-selects the best tier the host supports —
/// [`ExecTier::Native`] on x86-64 Linux, [`ExecTier::MicroOp`] elsewhere —
/// and every tier's artifact is built eagerly at load time, so switching
/// tiers later (tests, benchmarks, the `SEG6_EXEC_TIER` override) never
/// allocates on the packet path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// The faithful per-instruction interpreter ([`crate::interp`]).
    Interp,
    /// The pre-decoded micro-op stream ([`crate::jit`]).
    MicroOp,
    /// Native x86-64 machine code ([`crate::codegen`]); execution falls
    /// back to [`ExecTier::MicroOp`] when the host has no backend.
    Native,
}

impl ExecTier {
    /// All tiers, in increasing order of sophistication.
    pub const ALL: [ExecTier; 3] = [ExecTier::Interp, ExecTier::MicroOp, ExecTier::Native];

    /// Short lowercase name, as accepted by the `SEG6_EXEC_TIER`
    /// environment override.
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::MicroOp => "microop",
            ExecTier::Native => "native",
        }
    }

    /// Parses a tier name (the `SEG6_EXEC_TIER` values).
    pub fn parse(name: &str) -> Option<ExecTier> {
        match name {
            "interp" => Some(ExecTier::Interp),
            "microop" => Some(ExecTier::MicroOp),
            "native" => Some(ExecTier::Native),
            _ => None,
        }
    }

    /// The tier the loader picks on this host absent any override: native
    /// where a backend exists, micro-ops elsewhere.
    pub fn best_supported() -> ExecTier {
        if crate::codegen::supported() {
            ExecTier::Native
        } else {
            ExecTier::MicroOp
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ExecTier::Interp => 0,
            ExecTier::MicroOp => 1,
            ExecTier::Native => 2,
        }
    }

    fn from_u8(value: u8) -> ExecTier {
        match value {
            0 => ExecTier::Interp,
            1 => ExecTier::MicroOp,
            _ => ExecTier::Native,
        }
    }
}

/// The program's current tier selection — atomic so tests and benchmarks
/// can flip a shared `Arc<LoadedProgram>` without synchronisation.
struct TierCell(AtomicU8);

impl TierCell {
    fn new(tier: ExecTier) -> Self {
        TierCell(AtomicU8::new(tier.to_u8()))
    }
    fn get(&self) -> ExecTier {
        ExecTier::from_u8(self.0.load(Ordering::Relaxed))
    }
    fn set(&self, tier: ExecTier) {
        self.0.store(tier.to_u8(), Ordering::Relaxed);
    }
}

impl Clone for TierCell {
    fn clone(&self) -> Self {
        TierCell(AtomicU8::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A verified program with its maps resolved, ready for execution.
#[derive(Clone)]
pub struct LoadedProgram {
    /// The original program.
    pub program: Program,
    /// Maps referenced by the program, keyed by the fd used in the bytecode.
    pub maps: HashMap<u32, MapHandle>,
    /// Statistics reported by the verifier.
    pub verifier_stats: VerifierStats,
    /// The helpers this program calls, resolved from the registry once at
    /// load time. The JIT's `Call` micro-op carries an index into this
    /// table, so the per-packet dispatch is a bounds-checked array read of
    /// a pre-resolved function pointer — no id lookup at all.
    helper_table: Vec<HelperDesc>,
    /// Helper ids parallel to `helper_table`, for diagnostics and the
    /// compile-time id → index resolution.
    helper_ids: Vec<u32>,
    /// Per-memory-instruction bounds facts exported by the verifier; the
    /// native code generator uses them to elide per-access checks.
    access_facts: AccessFacts,
    /// The selected execution tier.
    tier: TierCell,
    /// The pre-decoded JIT image, built once on first use — the kernel
    /// compiles at load time, and re-deriving the image per invocation is
    /// pure overhead on the per-packet hot path.
    jit_cache: OnceLock<crate::jit::JitProgram>,
    /// The interpreter's wire-form image, likewise built once.
    interp_cache: OnceLock<crate::interp::InterpreterImage>,
    /// The native code, built once (at load time); `None` on hosts without
    /// a backend. Shared behind an `Arc` so cloning a program shares the
    /// executable pages instead of re-emitting them.
    native_cache: OnceLock<Option<Arc<crate::codegen::NativeProgram>>>,
    /// Process-unique load identity. Per-state native caches (the
    /// map-lookup site cache) are keyed by this rather than by pointer —
    /// a freed program's address can be reused by a later load, which
    /// would let a persistent state serve another program's cache entries.
    uid: u64,
}

impl LoadedProgram {
    /// The helpers this program calls, resolved at load time.
    pub fn helper_table(&self) -> &[HelperDesc] {
        &self.helper_table
    }

    /// The table index of helper `id`, if the program calls it.
    pub fn helper_index(&self, id: u32) -> Option<u32> {
        self.helper_ids.iter().position(|&h| h == id).map(|idx| idx as u32)
    }
    /// The program's compiled (pre-decoded JIT) image, compiling it on the
    /// first call. Each `LoadedProgram` instance owns its own image, so a
    /// worker shard that loads its own program instance also owns its own
    /// compiled code, as each CPU's JIT output is private in the kernel.
    pub fn jit(&self) -> Result<&crate::jit::JitProgram> {
        if self.jit_cache.get().is_none() {
            let compiled = crate::jit::compile(self)?;
            let _ = self.jit_cache.set(compiled);
        }
        Ok(self.jit_cache.get().expect("cache populated above"))
    }

    /// The program's interpreter image, encoding it on the first call.
    pub fn interp_image(&self) -> &crate::interp::InterpreterImage {
        self.interp_cache.get_or_init(|| crate::interp::InterpreterImage::new(self))
    }

    /// The verifier's per-memory-instruction bounds facts.
    pub fn access_facts(&self) -> &AccessFacts {
        &self.access_facts
    }

    /// The native code for this program, or `None` when the host has no
    /// backend. Built on the first call (the loader calls this eagerly);
    /// the per-packet dispatch is a cache read.
    pub fn native(&self) -> Result<Option<&crate::codegen::NativeProgram>> {
        if self.native_cache.get().is_none() {
            let native = crate::codegen::compile(self.jit()?, &self.access_facts, self)?;
            let _ = self.native_cache.set(native.map(Arc::new));
        }
        Ok(self.native_cache.get().expect("cache populated above").as_deref())
    }

    /// Process-unique identity of this load, for per-state native caches.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The execution tier [`crate::vm::run_program`] will use.
    pub fn exec_tier(&self) -> ExecTier {
        self.tier.get()
    }

    /// Overrides the execution tier (tests, benchmarks, the CI matrix).
    /// Selecting [`ExecTier::Native`] on a host without a backend is
    /// allowed; execution falls back to the micro-op tier.
    pub fn set_exec_tier(&self, tier: ExecTier) {
        self.tier.set(tier);
    }
}

impl std::fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedProgram")
            .field("name", &self.program.name)
            .field("type", &self.program.prog_type)
            .field("insns", &self.program.insns.len())
            .field("maps", &self.maps.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Loads (verifies) a program, resolving the map fds it references against
/// `maps`. Fails if the program references an fd that is not provided, or if
/// the verifier rejects it.
pub fn load(
    program: Program,
    maps: &HashMap<u32, MapHandle>,
    helpers: &HelperRegistry,
) -> Result<Arc<LoadedProgram>> {
    // Every pseudo-map-fd lddw must resolve to a provided map.
    let mut used = HashMap::new();
    for (idx, insn) in program.insns.iter().enumerate() {
        if insn.is_lddw() && insn.src == PSEUDO_MAP_FD {
            let fd = insn.imm as u32;
            match maps.get(&fd) {
                Some(handle) => {
                    used.insert(fd, Arc::clone(handle));
                }
                None => {
                    return Err(Error::verifier(idx, format!("unknown map fd {fd}")));
                }
            }
        }
    }
    let (verifier_stats, access_facts) = verifier::verify_with_facts(&program, helpers, maps)?;
    // Resolve every helper the program calls into a dense per-program
    // table; the verifier has already guaranteed the ids exist and are
    // allowed for this hook. (`lddw` second slots carry opcode 0, so a
    // plain scan cannot mistake one for a call.)
    let mut helper_table = Vec::new();
    let mut helper_ids: Vec<u32> = Vec::new();
    for (idx, insn) in program.insns.iter().enumerate() {
        let is_call =
            (insn.class() == class::JMP || insn.class() == class::JMP32) && insn.opcode & 0xf0 == jmp::CALL;
        if !is_call {
            continue;
        }
        let id = insn.imm as u32;
        if helper_ids.contains(&id) {
            continue;
        }
        let desc = helpers.get(id).ok_or_else(|| Error::verifier(idx, format!("unknown helper {id}")))?;
        helper_ids.push(id);
        helper_table.push(*desc);
    }
    static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let loaded = Arc::new(LoadedProgram {
        program,
        maps: used,
        verifier_stats,
        helper_table,
        helper_ids,
        access_facts,
        tier: TierCell::new(default_tier()?),
        jit_cache: OnceLock::new(),
        interp_cache: OnceLock::new(),
        native_cache: OnceLock::new(),
        uid: NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    });
    // Build every tier's artifact now, as the kernel JIT compiles at
    // BPF_PROG_LOAD time: the per-packet path only ever reads caches, and
    // a later tier switch (tests, the CI matrix) allocates nothing.
    let _ = loaded.interp_image();
    loaded.jit()?;
    if let Some(native) = loaded.native()? {
        if std::env::var("SEG6_JIT_DEBUG").is_ok_and(|v| v == "1") {
            eprintln!("{}", crate::disasm::native_report(&loaded.program.name, native.debug_info()));
        }
    }
    Ok(loaded)
}

/// The tier new programs start on: the `SEG6_EXEC_TIER` environment
/// variable (`interp`, `microop`, `native`) when set — the CI matrix uses
/// it to force every tier through the full test suites — and the best tier
/// the host supports otherwise. A forced `native` on a host without a
/// backend falls back to `microop` at dispatch, so the override is
/// portable.
fn default_tier() -> Result<ExecTier> {
    tier_override(std::env::var("SEG6_EXEC_TIER").ok().as_deref())
}

/// Resolves a `SEG6_EXEC_TIER` value. An unrecognised value is an error
/// rather than a silent fallback, so a typo (or a retired tier name) cannot
/// quietly run every test on the default tier.
fn tier_override(value: Option<&str>) -> Result<ExecTier> {
    match value {
        None => Ok(ExecTier::best_supported()),
        Some(name) => ExecTier::parse(name.trim()).ok_or_else(|| {
            Error::Config(format!("SEG6_EXEC_TIER={name:?} is not one of interp|microop|native"))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::Insn;

    #[test]
    fn program_type_names() {
        assert_eq!(ProgramType::LwtSeg6Local.name(), "lwt_seg6local");
        assert_eq!(ProgramType::LwtXmit.name(), "lwt_xmit");
    }

    #[test]
    fn load_trivial_program() {
        let prog = Program::new("noop", ProgramType::SocketFilter, vec![Insn::mov64_imm(0, 0), Insn::exit()]);
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        let loaded = load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap();
        assert!(loaded.maps.is_empty());
        assert!(loaded.verifier_stats.insns_processed >= 2);
    }

    #[test]
    fn tier_override_accepts_known_names_and_rejects_the_rest() {
        assert_eq!(tier_override(None).unwrap(), ExecTier::best_supported());
        for tier in ExecTier::ALL {
            assert_eq!(tier_override(Some(tier.name())).unwrap(), tier);
        }
        assert_eq!(tier_override(Some(" native\n")).unwrap(), ExecTier::Native);
        for bad in ["fused", "", "Native", "jit"] {
            let err = tier_override(Some(bad)).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{bad:?} gave {err:?}");
            assert!(err.to_string().contains("interp|microop|native"), "{err}");
        }
    }

    #[test]
    fn load_rejects_unknown_map_fd() {
        let value = crate::vm::map_ptr_value(9);
        let mut lo = Insn::lddw_lo(1, value);
        lo.src = PSEUDO_MAP_FD;
        lo.imm = 9;
        let prog = Program::new(
            "bad-map",
            ProgramType::SocketFilter,
            vec![lo, Insn::lddw_hi(0), Insn::mov64_imm(0, 0), Insn::exit()],
        );
        let err = load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap_err();
        assert!(matches!(err, Error::Verifier { .. }));
    }
}
