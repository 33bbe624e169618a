//! Reusable per-datapath scratch state.
//!
//! Everything a packet's journey through the datapath used to allocate —
//! the VM register/stack state, the program context buffer, the working
//! copy of the packet bytes — lives here once per datapath instance (one
//! per worker shard) and is reused for every packet. After the first
//! packet warms the buffers up, the steady-state hot path performs no heap
//! allocation; the `alloc-counter` test feature proves it.

use ebpf_vm::vm::RunState;

/// Scratch buffers reused across packets by one datapath instance.
#[derive(Debug)]
pub struct RunScratch {
    /// VM state (registers, 512-byte stack, map-value regions); reset —
    /// not reallocated — before every program run.
    pub state: RunState,
    /// The program context buffer (the `__sk_buff` analogue).
    pub ctx: Vec<u8>,
    /// Working copy of the packet bytes for actions that resize it.
    pub pkt: Vec<u8>,
    /// Serialised SRH of the behaviour being attached (transit, End.B6,
    /// End.B6.Encaps).
    pub srh: Vec<u8>,
}

impl RunScratch {
    /// Fresh scratch state; buffers grow to their steady-state sizes on
    /// first use and stay there.
    pub fn new() -> Self {
        RunScratch { state: RunState::new(0), ctx: Vec::new(), pkt: Vec::new(), srh: Vec::new() }
    }
}

impl Default for RunScratch {
    fn default() -> Self {
        Self::new()
    }
}
