//! # ebpf-vm — a user-space eBPF virtual machine
//!
//! This crate is the substrate underneath the SRv6 `End.BPF` reproduction:
//! a self-contained implementation of the eBPF execution model described in
//! §2.1 of *Leveraging eBPF for programmable network functions with IPv6
//! Segment Routing* (CoNEXT 2018).
//!
//! It provides:
//!
//! * the 64-bit RISC-like **instruction set** ([`insn`]), with an
//!   [`asm`]sembler, a [`disasm`]sembler and a typed [`builder`];
//! * a **static verifier** ([`verifier`]) enforcing the kernel-era rules the
//!   paper relies on (no loops, no invalid memory accesses, helper gating);
//! * three execution tiers ([`program::ExecTier`]): a faithful
//!   **interpreter** ([`interp`]), a pre-decoded micro-op "**JIT**"
//!   ([`jit`]) and a true **native x86-64** code generator ([`codegen`]),
//!   auto-selected at load time (non-x86-64 hosts fall back to the micro-op
//!   tier);
//! * **maps** ([`maps`]): array, hash, LPM-trie, per-CPU array and
//!   perf-event arrays, with both the program-side pointer semantics and the
//!   user-space copy semantics;
//! * **helpers** ([`helpers`]): the base kernel helpers plus a registry that
//!   embedders (the `seg6-core` crate) extend with their own, exactly as the
//!   paper added four SRv6 helpers to the kernel;
//! * a **perf-event ring buffer** ([`perf`]) for pushing data to user-space
//!   daemons.
//!
//! ## Quick example
//!
//! ```
//! use ebpf_vm::asm::assemble;
//! use ebpf_vm::helpers::HelperRegistry;
//! use ebpf_vm::program::{load, Program, ProgramType};
//! use ebpf_vm::vm::{run_program, NullEnv, RunContext};
//! use std::collections::HashMap;
//!
//! let insns = assemble("mov64 r0, 40\nadd64 r0, 2\nexit").unwrap();
//! let program = Program::new("quick", ProgramType::SocketFilter, insns);
//! let helpers = HelperRegistry::with_base_helpers();
//! let loaded = load(program, &HashMap::new(), &helpers).unwrap();
//!
//! let mut ctx = vec![0u8; 16];
//! let mut packet = vec![0u8; 64];
//! let mut env = NullEnv;
//! let mut rc = RunContext { ctx: &mut ctx, packet: &mut packet, env: &mut env };
//! assert_eq!(run_program(&loaded, &helpers, &mut rc).unwrap(), 42);
//! ```

#![warn(missing_docs)]
// Unsafe code is confined to the `codegen` module (executable-page
// management and the native-code entry point); everything else stays
// statically free of it.
#![deny(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod codegen;
pub mod disasm;
pub mod error;
pub mod helpers;
pub mod insn;
pub mod interp;
pub mod jit;
pub mod maps;
pub mod perf;
pub mod program;
pub mod verifier;
pub mod vm;

pub use builder::ProgramBuilder;
pub use error::{Error, Result};
pub use helpers::{ids as helper_ids, HelperRegistry};
pub use insn::{AccessSize, Insn};
pub use maps::{
    ArrayMap, HashMap as BpfHashMap, LpmTrieMap, Map, MapHandle, MapType, PerCpuArrayMap, PerfEventArray,
    UpdateFlags, DEFAULT_NUM_CPUS,
};
pub use perf::{PerfEvent, PerfEventBuffer};
pub use program::{load, retcode, ExecTier, LoadedProgram, Program, ProgramType};
pub use verifier::{AccessFact, AccessFacts, VerifierStats};
pub use vm::{run_program, HelperApi, NullEnv, RunContext, RunState, VmEnv, CTX_BASE, PKT_BASE, STACK_BASE};
