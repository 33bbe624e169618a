//! The persistent worker pool: long-lived shard threads fed over
//! lock-free SPSC descriptor rings, shared by any number of **tenants**.
//!
//! Spawning a thread per shard per run is fine for a one-shot benchmark,
//! fatal for a steady-state datapath. Kernel datapaths (and the paper's
//! End.BPF deployment) instead keep one long-lived worker per receive
//! queue: the NIC steers flows to queues with RSS, each queue's CPU runs
//! forever, and user space only observes counters. One such host, though,
//! rarely serves a single routing context: seg6local behaviours like
//! `End.T` and `End.DT6` forward via *specific* tables (VRFs), and one
//! Linux box runs many VRFs on the same set of CPUs. This module
//! reproduces that lifecycle, with a DPDK-style descriptor plane
//! underneath and tenancy as a first-class concept:
//!
//! * [`WorkerPool::new`] spawns N shard threads **once**; each thread owns
//!   a dense `Vec<Seg6Datapath>` — one datapath per registered **tenant**,
//!   each pinned to the shard's CPU id — for the pool's whole life.
//!   [`WorkerPool::threads_spawned`] lets tests assert that the steady
//!   state (including tenant registration) spawns nothing.
//! * [`WorkerPool::add_tenant`] adds a routing context at runtime from a
//!   [`TenantSpec`]: a datapath source (a per-shard builder closure, or a
//!   configured template the pool [`Seg6Datapath::fork_for_cpu`]s per
//!   shard) plus the tenant's QoS knobs ([`TenantQos`]). Each fork is
//!   shipped to its worker over the sideband control channel and
//!   acknowledged before `add_tenant` returns — so by the time a tenant's
//!   first descriptor can be published, every worker has its datapath
//!   installed. The returned [`TenantId`] stamps descriptors:
//!   [`WorkerPool::tenant`] hands out a [`Tenant`] guard whose [`Ingress`]
//!   methods tag every packet with the tenant, and workers execute each
//!   descriptor on that tenant's datapath. The pool itself implements
//!   [`Ingress`] as the single-tenant shorthand (tenant 0,
//!   [`TenantId::DEFAULT`]).
//! * **Per-tenant QoS** rides the same descriptor plane with no extra
//!   locks. At admission, a tenant with a [`TenantQos::ring_quota`] can
//!   never hold more than its share of a shard's descriptor ring in
//!   flight (the dispatcher reads the tenant's live counter cell for the
//!   shard, `enqueued` minus the worker's relaxed `processed` — an
//!   estimate that only ever errs towards admitting *less*), and a tenant
//!   with a [`TenantQos::cost_budget`] spends from a token bucket (tokens/sec,
//!   refilled on the shard clock carried by the packets' RX timestamps)
//!   priced by the [`work_cost`] model; over-budget packets are shed at
//!   admission and counted exactly as `rejected_over_budget`. Inside a
//!   worker's poll, tenant runs are selected by **deficit round-robin**
//!   (quantum ∝ [`TenantQos::weight`]), each run charged its actual
//!   [`WorkSummary`](seg6_core::WorkSummary)-priced cost — a flooding
//!   tenant burns its own deficit, not its neighbours' latency.
//! * The dispatcher steers packets by RSS flow hash into per-shard
//!   **lock-free SPSC rings** ([`crate::ring`]) carrying
//!   `(tenant, packet)` descriptors — no per-descriptor rendezvous with
//!   shared channel state, no blocking paths, wait-free on both sides.
//!   Batch ingestion APIs ([`WorkerPool::enqueue_all`],
//!   [`WorkerPool::enqueue_bytes_all`] and their [`Tenant`] twins) stage
//!   descriptors per shard and publish each shard's burst with a *single*
//!   atomic release. A full ring rejects the packet and counts it in the
//!   tenant's live counter cell for that shard — backpressure behaves like
//!   a NIC dropping on a full RX ring, it never blocks the dispatcher.
//!   [`PoolConfig::queue_depth`] rounds **up** to the next power of two
//!   ([`WorkerPool::queue_capacity`]) and the boundary is exact.
//! * Workers drain their rings **adaptively**, NAPI-style: each poll takes
//!   one burst sized by the observed ring occupancy, capped at
//!   [`PoolConfig::napi_budget`] (the budget a kernel NAPI poll gets
//!   before it must yield), and processes it immediately — a lull's
//!   packets are never delayed, a burst is amortised, and a saturated
//!   ring cannot starve the control channel for more than one budget's
//!   worth of work. Processing stays bounded by
//!   [`PoolConfig::batch_size`] and split into **tenant runs** selected
//!   by deficit round-robin (see above): up to `batch_size` of one
//!   tenant's queued packets execute as one
//!   [`Seg6Datapath::process_batch_verdicts_into`] call on that tenant's
//!   datapath, with the drain daemon run after every run — the
//!   pre-tenancy perf-drain cadence is preserved exactly.
//! * Packet storage is **recycled** across tenants: each worker returns
//!   drained [`PacketBuf`]s through a per-shard free-ring; the dispatcher
//!   drains free-rings into a [`BufPool`] arena whose in-flight bound is
//!   sized for the worker count *and* the tenant count, so steady-state
//!   byte-slice ingestion performs **zero heap allocations end-to-end**
//!   however many tenants share the pool (proven by the `alloc-counter`
//!   gate, `tests/pool_zero_alloc.rs`).
//! * Control traffic (flush barriers, tenant registration, shutdown)
//!   moves on a **sideband channel** checked between bursts, so the
//!   descriptor plane stays pure data. Idle workers **park** (and a
//!   publish to a sleeping shard's ring unparks it).
//! * Live counters are **per tenant × per shard** ([`PoolCounters`], via
//!   [`WorkerPool::counters`]): relaxed-atomic cells readable at any time
//!   without a flush barrier, with the tenant rows summing exactly to the
//!   aggregated per-shard view. They are the pool's only accounting: flush
//!   deltas, shutdown totals and the rejection getters are derived from
//!   them.
//! * [`WorkerPool::flush`] is a barrier: every shard finishes what it was
//!   handed before the barrier message and reports. Results come back **in
//!   shard index order**; collected outputs carry their [`TenantId`].
//! * Dropping or [`WorkerPool::shutdown`]ting the pool delivers a shutdown
//!   message, lets every worker finish its backlog, runs the final drain,
//!   and joins the threads. No packet or perf event is stranded.

use crate::affinity::PinPolicy;
use crate::ring::{self, Consumer, Producer};
use crate::telemetry::{PoolCounters, ShardSnapshot, TenantCounters};
use crate::{RunReport, MAX_WORKERS};
use netpkt::flow::{rss_hash_packet, rss_hash_packet_symmetric, steer};
use netpkt::{BufPool, PacketBuf};
use seg6_core::{BatchVerdict, Seg6Datapath, Skb, WorkSummary};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Identifier of one tenant (routing context) of a [`WorkerPool`]: a dense
/// index into every shard's datapath vector and into the per-tenant
/// counter rows. Obtained from [`WorkerPool::add_tenant`];
/// [`TenantId::DEFAULT`] is the tenant the pool's construction builder
/// created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u16);

impl TenantId {
    /// The tenant created by [`WorkerPool::new`]'s builder — what the
    /// pool's plain (tenant-less) `enqueue*` methods stamp.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The dense index of this tenant (registration order).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    pub(crate) fn from_index(index: usize) -> TenantId {
        TenantId(u16::try_from(index).expect("tenant count fits a u16"))
    }
}

/// Cost-model token every packet is charged, whatever work it ends up
/// doing — the admission estimate a [`TenantQos::cost_budget`] spends per
/// packet (the work surcharges below are unknown before execution and are
/// debited from the bucket afterwards, from the worker's live counters).
pub const COST_BASE: u64 = 1;
/// Cost-model surcharge for a packet whose seg6local behaviour ran.
pub const COST_SEG6LOCAL: u64 = 2;
/// Cost-model surcharge for a packet that executed an eBPF program
/// (End.BPF or an LWT hook) — the expensive work class.
pub const COST_BPF: u64 = 4;
/// Cost-model surcharge for a packet a transit behaviour (SRH
/// insertion/encapsulation) was applied to.
pub const COST_TRANSIT: u64 = 2;

/// Prices one processed packet from the work classes the datapath already
/// emits ([`seg6_core::WorkSummary`]): the base token plus a surcharge per
/// exercised class. This is the unit [`TenantQos::cost_budget`] buckets
/// are denominated in and the charge deficit round-robin subtracts from a
/// tenant's deficit after every run.
pub fn work_cost(work: &WorkSummary) -> u64 {
    COST_BASE
        + if work.seg6local { COST_SEG6LOCAL } else { 0 }
        + if work.bpf { COST_BPF } else { 0 }
        + if work.transit { COST_TRANSIT } else { 0 }
}

/// A tenant's QoS knobs. The default is exactly the pre-QoS behaviour:
/// weight 1, no ring quota, no cost budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQos {
    /// Deficit-round-robin weight: each scheduling round credits the
    /// tenant `weight × batch_size ×` [`COST_BASE`] deficit tokens, so a
    /// weight-4 tenant's backlog gets four times the worker time of a
    /// weight-1 tenant's. Clamped to at least 1.
    pub weight: u32,
    /// Share of each shard's descriptor ring this tenant may hold in
    /// flight, as a fraction in `(0, 1]`. `None` (default) means the
    /// tenant competes for the whole ring, exactly as before QoS existed.
    pub ring_quota: Option<f64>,
    /// Cost-budget rate in [`work_cost`] tokens per second, refilled on
    /// the shard clock (the RX timestamps packets are enqueued with) with
    /// a one-second burst allowance. Packets arriving with the bucket
    /// empty are shed at admission and counted as `rejected_over_budget`.
    /// `None` (default) means unmetered.
    pub cost_budget: Option<u64>,
}

impl Default for TenantQos {
    fn default() -> Self {
        TenantQos { weight: 1, ring_quota: None, cost_budget: None }
    }
}

/// Where a new tenant's per-shard datapaths come from.
enum TenantSource<'a> {
    /// Fork one configured template per shard
    /// ([`Seg6Datapath::fork_for_cpu`]).
    Template(&'a Seg6Datapath),
    /// Run a builder once per shard with the shard's CPU id.
    Builder(Box<dyn FnMut(u32) -> Seg6Datapath + 'a>),
}

/// Everything [`WorkerPool::add_tenant`] needs: the datapath source plus
/// the tenant's [`TenantQos`]. Built with [`TenantSpec::from_datapath`]
/// or [`TenantSpec::build_with`], then refined with the builder methods —
/// the defaults reproduce the pre-QoS positional `register_tenant` calls
/// exactly.
pub struct TenantSpec<'a> {
    source: TenantSource<'a>,
    qos: TenantQos,
}

impl<'a> TenantSpec<'a> {
    /// A tenant whose shard datapaths are
    /// [`Seg6Datapath::fork_for_cpu`] forks of `template` — the "one
    /// host, many VRFs" shape simnet's shared host pool and srv6d use.
    pub fn from_datapath(template: &'a Seg6Datapath) -> Self {
        TenantSpec { source: TenantSource::Template(template), qos: TenantQos::default() }
    }

    /// A tenant whose shard datapaths come from `builder`, run once per
    /// shard on the registering thread with the shard's CPU id.
    pub fn build_with(builder: impl FnMut(u32) -> Seg6Datapath + 'a) -> Self {
        TenantSpec { source: TenantSource::Builder(Box::new(builder)), qos: TenantQos::default() }
    }

    /// Sets the deficit-round-robin weight (clamped to at least 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.qos.weight = weight.max(1);
        self
    }

    /// Caps the tenant's in-flight share of each shard's descriptor ring.
    /// `share` must be in `(0, 1]`.
    pub fn ring_quota(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0, "ring quota must be a fraction in (0, 1], got {share}");
        self.qos.ring_quota = Some(share);
        self
    }

    /// Meters the tenant at `tokens_per_sec` [`work_cost`] tokens per
    /// second (see [`TenantQos::cost_budget`]).
    pub fn cost_budget(mut self, tokens_per_sec: u64) -> Self {
        self.qos.cost_budget = Some(tokens_per_sec);
        self
    }

    /// Replaces the whole QoS block at once — the form config-driven
    /// callers (srv6d) use after validating their own knob syntax.
    pub fn qos(mut self, qos: TenantQos) -> Self {
        self.qos = qos;
        self
    }
}

/// Live QoS state shared between the dispatcher and every shard: the DRR
/// weight, read (relaxed) by workers each scheduling round and written in
/// place by [`WorkerPool::update_tenant_qos`] — a weight change needs no
/// control-channel round-trip, which is what lets srv6d's reload treat it
/// as a live patch rather than a slot rebuild.
struct QosCell {
    weight: AtomicU32,
}

impl QosCell {
    fn new(weight: u32) -> Self {
        QosCell { weight: AtomicU32::new(weight.max(1)) }
    }
}

/// A tenant's cost-budget bucket, owned by the dispatcher and refilled on
/// the shard clock the packets themselves carry (their RX timestamps). The
/// capacity is one second's rate — a tenant idle for longer than a second
/// gets at most one second of burst. Admission charges [`COST_BASE`] per
/// packet (the work is unknown before execution); the surcharge the
/// workers actually measured is debited afterwards from their live `cost`
/// counters, so the budget genuinely meters [`work_cost`] tokens.
struct TokenBucket {
    /// Tokens per second, and the bucket capacity.
    rate: u64,
    /// Current level.
    tokens: u64,
    /// Shard-clock instant `tokens` was computed at.
    clock_ns: u64,
    /// Worker-measured surcharge (actual cost minus the per-packet base)
    /// already debited from the bucket.
    surcharge_seen: u64,
}

impl TokenBucket {
    fn new(rate: u64) -> Self {
        TokenBucket { rate, tokens: rate, clock_ns: 0, surcharge_seen: 0 }
    }

    /// Advances the bucket to shard-clock `now_ns`, granting whole tokens
    /// and keeping the fractional remainder as un-advanced clock.
    fn refill(&mut self, now_ns: u64) {
        if self.rate == 0 || now_ns <= self.clock_ns {
            return;
        }
        let dt = now_ns - self.clock_ns;
        let add = ((u128::from(self.rate) * u128::from(dt)) / 1_000_000_000) as u64;
        if add == 0 {
            return;
        }
        self.tokens = self.tokens.saturating_add(add).min(self.rate);
        if self.tokens == self.rate {
            self.clock_ns = now_ns;
        } else {
            self.clock_ns += ((u128::from(add) * 1_000_000_000) / u128::from(self.rate)) as u64;
        }
    }

    fn try_spend(&mut self, cost: u64) -> bool {
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Debits the work surcharge the workers measured since the last
    /// true-up: total actual cost minus `COST_BASE ×` processed, read from
    /// the tenant's relaxed live counters. Monotone by construction
    /// (`surcharge_seen` only grows), so a racy read can at worst debit a
    /// batch early — never twice.
    fn debit_surcharge(&mut self, cells: &TenantCounters, workers: u32) {
        let mut cost = 0u64;
        let mut processed = 0u64;
        for shard in 0..workers {
            let row = cells.shard(shard);
            cost += row.cost_relaxed();
            processed += row.processed_relaxed();
        }
        let surcharge = cost.saturating_sub(processed.saturating_mul(COST_BASE));
        let delta = surcharge.saturating_sub(self.surcharge_seen);
        self.surcharge_seen = self.surcharge_seen.max(surcharge);
        self.tokens = self.tokens.saturating_sub(delta);
    }
}

/// Dispatcher-side admission state of one tenant.
struct TenantAdmission {
    /// Per-shard descriptor-ring slot cap derived from
    /// [`TenantQos::ring_quota`]; `None` means uncapped (the tenant is
    /// accepted on ring capacity alone, the pre-QoS behaviour, with no
    /// occupancy estimation on its hot path).
    quota_slots: Option<u64>,
    /// The cost-budget bucket, if the tenant is metered.
    bucket: Option<TokenBucket>,
}

impl TenantAdmission {
    fn from_qos(qos: &TenantQos, queue_capacity: usize) -> Self {
        TenantAdmission {
            quota_slots: qos.ring_quota.map(|share| quota_slots(queue_capacity, share)),
            bucket: qos.cost_budget.map(TokenBucket::new),
        }
    }
}

/// Converts a ring-share fraction into a per-shard slot cap: at least one
/// slot (a quota'd tenant can always make progress), at most the ring.
fn quota_slots(queue_capacity: usize, share: f64) -> u64 {
    let cap = queue_capacity as u64;
    ((queue_capacity as f64 * share) as u64).clamp(1, cap)
}

/// One tenant's reused per-publish admission accounting row.
#[derive(Debug, Default, Clone, Copy)]
struct IngressRow {
    /// Descriptors staged for this publish.
    staged: u64,
    /// Shed at admission: the tenant was at its ring-quota slot cap.
    shed_quota: u64,
    /// Shed at admission: the tenant's cost-budget bucket was empty.
    shed_budget: u64,
    /// Admitted past QoS but refused by the full ring itself.
    ring_rejected: u64,
    /// Remaining admissions this publish may grant the tenant
    /// (`u64::MAX` when unquota'd).
    allowance: u64,
}

/// One ring descriptor: the packet plus the tenant whose datapath must
/// execute it.
struct Desc {
    tenant: TenantId,
    skb: Skb,
}

/// A per-shard drain daemon: called on the worker thread after every
/// processed batch (and one final time at shutdown) with the shard's CPU
/// id. The canonical implementation drains the shard's per-CPU perf ring
/// into a collector — see `srv6_nf::daemons::DelayCollector::shard_drain`.
pub type BatchDrain = Box<dyn FnMut(u32) + Send>;

/// What one worker shard is built from: its default tenant's datapath and
/// an optional per-batch drain daemon (the daemon is per *shard* — it runs
/// after every batch whatever mix of tenants the batch carried).
pub struct ShardSetup {
    /// The shard's default-tenant datapath (the pool pins it to the
    /// shard's CPU id).
    pub datapath: Seg6Datapath,
    /// Drain daemon run after every batch on this shard, if any.
    pub drain: Option<BatchDrain>,
}

impl ShardSetup {
    /// A shard with a datapath and no drain daemon.
    pub fn new(datapath: Seg6Datapath) -> Self {
        ShardSetup { datapath, drain: None }
    }

    /// Attaches a per-batch drain daemon (builder form).
    pub fn with_drain(mut self, drain: BatchDrain) -> Self {
        self.drain = Some(drain);
        self
    }
}

impl From<Seg6Datapath> for ShardSetup {
    fn from(datapath: Seg6Datapath) -> Self {
        ShardSetup::new(datapath)
    }
}

/// Configuration of a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker shards (receive queues). Clamped to
    /// `1..=`[`MAX_WORKERS`].
    pub workers: u32,
    /// The dispatcher's staging burst: batch ingestion
    /// ([`WorkerPool::enqueue_all`] / [`WorkerPool::enqueue_bytes_all`])
    /// publishes a shard's ring once per this many staged packets — the
    /// ingress-side amortisation knob.
    pub batch_size: usize,
    /// Capacity of each shard's descriptor ring, in packets, **rounded up
    /// to the next power of two** (see [`WorkerPool::queue_capacity`] for
    /// the effective value). An enqueue onto a full ring is rejected and
    /// counted — the pool's backpressure signal.
    pub queue_depth: usize,
    /// Cap on one worker poll, NAPI-style: a worker *dequeues* bursts
    /// sized by the observed ring occupancy, up to this budget — a lull's
    /// packets are processed immediately, a backlog is consumed
    /// `napi_budget` descriptors at a time so control messages (flush,
    /// tenant registration, shutdown) are serviced at least once per
    /// budget's worth of work. Mirrors the kernel's NAPI `budget`
    /// (default 64 there; 256 here, sized for the userspace batch emit
    /// surface). *Processing* stays bounded by [`PoolConfig::batch_size`]:
    /// a poll's packets execute in `batch_size`-capped batches with the
    /// drain daemon run after each, so per-CPU perf rings provisioned
    /// against `batch_size` keep their guarantee whatever the budget.
    pub napi_budget: usize,
    /// Steer with the symmetric flow hash, keeping both directions of a
    /// flow on one worker.
    pub symmetric_steering: bool,
    /// Retain each processed packet and its [`BatchVerdict`] so
    /// [`WorkerPool::flush`] can return them (tagged with their
    /// [`TenantId`]). Costs one buffered `Skb` per packet per flush window
    /// (those buffers are not recycled through the free-ring — hand them
    /// back with [`WorkerPool::recycle`] after reading them); leave off
    /// for counter-only workloads.
    pub collect_outputs: bool,
    /// How shard threads pin themselves to CPU cores
    /// (`sched_setaffinity(2)` at spawn, inside the worker thread). The
    /// observed placement — pinned core and its NUMA node — is reported
    /// per shard in [`PoolSnapshot::placement`](crate::PoolSnapshot).
    /// Pins that fail (non-Linux, forbidden cpuset) leave the shard
    /// unpinned and running; pinning is a placement hint, never a
    /// correctness requirement.
    pub pinning: PinPolicy,
    /// Pin the dispatcher — the thread that calls [`WorkerPool::new`] and
    /// later drives ingestion — to this core. Applied best-effort during
    /// construction.
    pub pin_dispatcher: Option<u32>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 1,
            batch_size: 32,
            queue_depth: 1024,
            napi_budget: 256,
            symmetric_steering: false,
            collect_outputs: false,
            pinning: PinPolicy::None,
            pin_dispatcher: None,
        }
    }
}

/// What one shard reports at a flush barrier: its counter deltas since the
/// previous flush, plus the processed packets when
/// [`PoolConfig::collect_outputs`] is on.
pub struct ShardFlush {
    /// The shard's counter deltas since the last flush, summed over
    /// tenants.
    pub stats: ShardSnapshot,
    /// The packets processed since the last flush, with the tenant that
    /// executed them and their verdicts, in processing order. Empty unless
    /// [`PoolConfig::collect_outputs`].
    pub outputs: Vec<(TenantId, Skb, BatchVerdict)>,
}

/// Aggregate result of one [`WorkerPool::flush`] barrier.
pub struct PoolReport {
    /// Aggregated verdict counters since the previous flush, with
    /// `per_worker` in shard index order.
    pub run: RunReport,
    /// Per-shard outputs, indexed by shard id. Inner vectors are empty
    /// unless [`PoolConfig::collect_outputs`] is set.
    pub outputs: Vec<Vec<(TenantId, Skb, BatchVerdict)>>,
}

/// Result of a [`WorkerPool::drain`]: the pool's terminal state, produced
/// after the final flush barrier and before the worker threads exit.
pub struct DrainReport {
    /// The final [`WorkerPool::flush`] barrier's report — the last window
    /// of verdicts (and collected outputs) before shutdown.
    pub last_flush: PoolReport,
    /// The per-tenant × per-shard counters at quiescence. Final by
    /// construction: the drain consumed the pool, so no enqueue can
    /// follow the snapshot.
    pub counters: crate::telemetry::PoolSnapshot,
}

/// Sideband control messages, delivered outside the descriptor ring and
/// checked by the worker between bursts.
enum Ctrl {
    /// Barrier: consume the descriptor ring dry, process everything, and
    /// report. Everything published before this message was sent is
    /// covered (the dispatcher publishes before it signals).
    Flush(Sender<ShardFlush>),
    /// Install a new tenant's datapath (plus its live-counter row and its
    /// shared QoS cell) on this shard, then acknowledge. The dispatcher
    /// waits for every shard's acknowledgement before `add_tenant`
    /// returns, so no descriptor stamped with the new tenant can reach a
    /// worker that has not installed it.
    AddTenant { datapath: Box<Seg6Datapath>, cells: Arc<TenantCounters>, qos: Arc<QosCell>, done: Sender<()> },
    /// Mint `count` packet buffers *on this shard's thread* and ship them
    /// back for the dispatcher's arena. First-touch allocation policy
    /// makes the pages land on the minting thread's NUMA node, so a
    /// pinned shard's arena segment is local to its core — the reason
    /// arena provisioning is a worker-side operation rather than a
    /// dispatcher-side `prefill`.
    Provision { count: usize, headroom: usize, done: Sender<Vec<PacketBuf>> },
    /// Finish the backlog, run the final drain, exit.
    Shutdown,
}

/// Dispatcher-side handle of one shard: the descriptor-ring producer, the
/// free-ring consumer, the staging buffer, and the wakeup state.
struct ShardTx {
    /// Descriptor ring into the worker.
    ring: Producer<Desc>,
    /// Free-ring out of the worker: drained packet buffers coming back.
    freelist: Consumer<PacketBuf>,
    /// Sideband control channel.
    ctrl: Sender<Ctrl>,
    /// Staged descriptors not yet published (always empty between public
    /// API calls; batch ingestion fills it up to one burst).
    staging: Vec<Desc>,
    /// The worker thread, for unparking.
    thread: std::thread::Thread,
    /// Set by the worker just before it parks; cleared (by whoever acts
    /// on it) before unparking. The dispatcher's publish/control paths
    /// check it so a sleeping shard always wakes.
    sleeping: Arc<AtomicBool>,
}

impl ShardTx {
    /// Wakes the worker if it is parked (or about to park). Callers must
    /// make their work visible (ring publish, control send) *before*
    /// calling this; the SeqCst fence pairs with the worker's pre-park
    /// fence so either the worker sees the work, or this sees the worker
    /// sleeping.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
}

/// The persistent, multi-tenant worker pool. See the [module docs](self)
/// for the lifecycle.
pub struct WorkerPool {
    config: PoolConfig,
    shards: Vec<ShardTx>,
    handles: Vec<JoinHandle<()>>,
    counters: Arc<PoolCounters>,
    /// Dispatcher-held per-tenant counter rows, indexed by tenant.
    tenant_cells: Vec<Arc<TenantCounters>>,
    /// The dispatcher's recycling arena, refilled from the free-rings.
    bufs: BufPool,
    /// Reused scratch for draining free-rings.
    reclaim_scratch: Vec<PacketBuf>,
    /// Reused per-tenant admission rows for exact per-tenant accounting
    /// at publish time.
    ingress_scratch: Vec<IngressRow>,
    /// Per-tenant admission state: ring-quota slot caps and cost-budget
    /// buckets, indexed by tenant.
    admission: Vec<TenantAdmission>,
    /// Per-tenant QoS cells shared with every shard (DRR weights),
    /// indexed by tenant.
    qos_cells: Vec<Arc<QosCell>>,
    queue_capacity: usize,
    /// Whether the arena has been provisioned for the byte-slice
    /// ingestion path (done once, on its first use; re-provisioned when a
    /// tenant registers afterwards).
    bytes_arena_ready: bool,
}

impl WorkerPool {
    /// Spawns the pool. `builder` runs once per shard, on the calling
    /// thread, with the shard's CPU id; the [`ShardSetup`] it returns (a
    /// bare [`Seg6Datapath`] converts) becomes the **default tenant**
    /// ([`TenantId::DEFAULT`]) on that shard's thread, where it lives
    /// until shutdown. These construction-time spawns are the only ones
    /// the pool ever performs — registering more tenants later reuses the
    /// same threads.
    pub fn new<S: Into<ShardSetup>>(config: PoolConfig, mut builder: impl FnMut(u32) -> S) -> Self {
        let workers = config.workers.clamp(1, MAX_WORKERS);
        let config = PoolConfig { workers, ..config };
        let queue_capacity = config.queue_depth.max(1).next_power_of_two();
        let counters = Arc::new(PoolCounters::new(workers));
        // Resolve the pin policy against the cores this process may
        // actually use (cgroup cpusets included); each worker applies its
        // own pin on its own thread and records what it got.
        let pin_plan = config.pinning.plan(workers, &crate::affinity::available_cores());
        if let Some(core) = config.pin_dispatcher {
            let _ = crate::affinity::pin_current_thread(core);
        }
        let default_cells = counters.tenant(TenantId::DEFAULT);
        let default_qos = Arc::new(QosCell::new(1));
        let burst = worker_burst(&config);
        let mut shards = Vec::with_capacity(workers as usize);
        let mut handles = Vec::with_capacity(workers as usize);
        for id in 0..workers {
            let setup: ShardSetup = builder(id).into();
            let mut datapath = setup.datapath;
            datapath.cpu_id = id;
            let (ring_tx, ring_rx) = ring::spsc_ring::<Desc>(queue_capacity);
            let (free_tx, free_rx) = ring::spsc_ring::<PacketBuf>(queue_capacity);
            let (ctrl_tx, ctrl_rx) = channel();
            let sleeping = Arc::new(AtomicBool::new(false));
            let state = ShardState {
                id,
                datapaths: vec![datapath],
                queues: vec![VecDeque::with_capacity(burst)],
                deficit: vec![0],
                qos: vec![Arc::clone(&default_qos)],
                drr_next: 0,
                rx: Vec::with_capacity(burst),
                reported: ShardSnapshot::default(),
                outputs: Vec::new(),
                verdicts: Vec::with_capacity(burst),
                drain: setup.drain,
                free: free_tx,
                free_staging: Vec::with_capacity(burst),
                free_tenants: Vec::with_capacity(burst),
                tenant_cells: vec![Arc::clone(&default_cells)],
                recycled_scratch: vec![0],
                sleeping: Arc::clone(&sleeping),
            };
            counters.count_thread_spawn();
            let worker_config = config.clone();
            let pin = pin_plan[id as usize];
            let placement = Arc::clone(&counters);
            let handle = std::thread::Builder::new()
                .name(format!("seg6-worker-{id}"))
                .spawn(move || {
                    let pinned = pin.filter(|&core| crate::affinity::pin_current_thread(core).is_ok());
                    let numa = pinned.and_then(crate::affinity::numa_node_of_cpu);
                    placement.record_placement(id, pinned, numa);
                    worker_loop(worker_config, state, ctrl_rx, ring_rx)
                })
                .expect("spawn worker thread");
            shards.push(ShardTx {
                ring: ring_tx,
                freelist: free_rx,
                ctrl: ctrl_tx,
                staging: Vec::with_capacity(config.batch_size.max(1)),
                thread: handle.thread().clone(),
                sleeping,
            });
            handles.push(handle);
        }
        let bufs = BufPool::new(Self::in_flight_bound(&config, queue_capacity, 1));
        WorkerPool {
            config,
            shards,
            handles,
            counters,
            tenant_cells: vec![default_cells],
            bufs,
            reclaim_scratch: Vec::new(),
            ingress_scratch: vec![IngressRow::default()],
            admission: vec![TenantAdmission::from_qos(&TenantQos::default(), queue_capacity)],
            qos_cells: vec![default_qos],
            queue_capacity,
            bytes_arena_ready: false,
        }
    }

    /// Upper bound on packet buffers that can be in flight and
    /// *unreclaimable* at once (per shard: a full descriptor ring, the
    /// worker's current batch, the dispatcher's staging), plus one slack
    /// buffer **per tenant** (each tenant's ingestion path can hold one
    /// buffer in hand mid-enqueue). Free-ring contents are excluded — the
    /// dispatcher drains those before minting. An arena provisioned to
    /// this bound can never run dry, whatever the worker scheduling and
    /// however the tenants interleave.
    fn in_flight_bound(config: &PoolConfig, queue_capacity: usize, tenants: usize) -> usize {
        // A worker holds at most one dequeued poll at a time, and a poll
        // can never exceed the ring's own capacity however large the NAPI
        // budget is — without the cap, small-ring pools (simnet's
        // queue_depth 64) would over-provision the arena several-fold.
        let poll = worker_burst(config).min(queue_capacity);
        config.workers as usize * (queue_capacity + poll + config.batch_size.max(1)) + tenants
    }

    /// Builds a pool whose shard `q` runs [`Seg6Datapath::fork_for_cpu`]
    /// of `datapath` as the default tenant — the shape simnet uses to put
    /// one configured node datapath on every receive queue. Further nodes
    /// join the same pool through [`WorkerPool::add_tenant`] with a
    /// [`TenantSpec::from_datapath`] spec.
    pub fn from_datapath(config: PoolConfig, datapath: &Seg6Datapath) -> Self {
        WorkerPool::new(config, |cpu| datapath.fork_for_cpu(cpu))
    }

    /// Registers a new tenant from a [`TenantSpec`]: the spec's datapath
    /// source runs once per shard on the calling thread (builders get the
    /// shard's CPU id; a template is [`Seg6Datapath::fork_for_cpu`]'d per
    /// shard — shared-`Arc` FIB/VRF tables, snapshot SID/transit/LWT
    /// tables with shared program and map handles, fresh statistics);
    /// each datapath is shipped to its worker over the control channel
    /// and **acknowledged** before this returns, so the returned
    /// [`TenantId`] is immediately safe to enqueue with. No threads are
    /// spawned; the live-counter block grows a per-shard row for the
    /// tenant, the dispatcher installs the spec's [`TenantQos`], and the
    /// byte-ingestion arena's in-flight bound is re-provisioned for the
    /// new tenant count.
    pub fn add_tenant(&mut self, spec: TenantSpec<'_>) -> TenantId {
        let TenantSpec { source, qos } = spec;
        let mut builder: Box<dyn FnMut(u32) -> Seg6Datapath + '_> = match source {
            TenantSource::Template(template) => Box::new(move |cpu| template.fork_for_cpu(cpu)),
            TenantSource::Builder(builder) => builder,
        };
        let id = TenantId::from_index(self.tenant_cells.len());
        let cells = self.counters.add_tenant();
        let qos_cell = Arc::new(QosCell::new(qos.weight));
        let acks: Vec<Receiver<()>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(cpu, tx)| {
                let mut datapath = builder(cpu as u32);
                datapath.cpu_id = cpu as u32;
                let (done_tx, done_rx) = channel();
                tx.ctrl
                    .send(Ctrl::AddTenant {
                        datapath: Box::new(datapath),
                        cells: Arc::clone(&cells),
                        qos: Arc::clone(&qos_cell),
                        done: done_tx,
                    })
                    .expect("worker alive");
                tx.wake();
                done_rx
            })
            .collect();
        for ack in acks {
            ack.recv().expect("worker installed the tenant");
        }
        self.tenant_cells.push(cells);
        self.ingress_scratch.push(IngressRow::default());
        self.admission.push(TenantAdmission::from_qos(&qos, self.queue_capacity));
        self.qos_cells.push(qos_cell);
        let bound = Self::in_flight_bound(&self.config, self.queue_capacity, self.tenant_cells.len());
        self.bufs.set_max_retained(bound);
        if self.bytes_arena_ready {
            self.provision_arena(bound);
        }
        id
    }

    /// Re-tunes a registered tenant's QoS in place — no control-channel
    /// round-trip, no slot rebuild, safe while traffic flows. The weight
    /// lands in the shared atomic cell the workers' DRR reads; the ring
    /// quota and cost budget are dispatcher state swapped directly (a
    /// budget rate change keeps the bucket's current level, capped at the
    /// new rate, and its refill clock). This is what srv6d's live reload
    /// uses for weight-/quota-/budget-only config diffs.
    pub fn update_tenant_qos(&mut self, tenant: TenantId, qos: TenantQos) {
        let t = tenant.index();
        assert!(t < self.tenant_cells.len(), "unregistered tenant {tenant:?}");
        self.qos_cells[t].weight.store(qos.weight.max(1), Ordering::Relaxed);
        let admission = &mut self.admission[t];
        admission.quota_slots = qos.ring_quota.map(|share| quota_slots(self.queue_capacity, share));
        admission.bucket = match (admission.bucket.take(), qos.cost_budget) {
            (Some(mut bucket), Some(rate)) => {
                bucket.rate = rate;
                bucket.tokens = bucket.tokens.min(rate);
                Some(bucket)
            }
            (None, Some(rate)) => Some(TokenBucket::new(rate)),
            (_, None) => None,
        };
    }

    /// Number of registered tenants (including the default one).
    pub fn tenants(&self) -> u32 {
        self.tenant_cells.len() as u32
    }

    /// A guard for enqueueing as `tenant`: its `enqueue*` methods stamp
    /// every descriptor with the tenant id. Panics on an unregistered id.
    pub fn tenant(&mut self, tenant: TenantId) -> Tenant<'_> {
        assert!(tenant.index() < self.tenant_cells.len(), "unregistered tenant {tenant:?}");
        Tenant { pool: self, id: tenant }
    }

    /// The pool's configuration (with the worker count clamped).
    pub fn config(&self) -> PoolConfig {
        self.config.clone()
    }

    /// Number of worker shards.
    pub fn workers(&self) -> u32 {
        self.config.workers
    }

    /// OS threads this pool has spawned: one per shard, all at
    /// construction ([`PoolCounters::threads_spawned`]).
    pub fn threads_spawned(&self) -> u64 {
        self.counters.threads_spawned()
    }

    /// Effective per-shard descriptor-ring capacity:
    /// [`PoolConfig::queue_depth`] rounded up to the next power of two.
    /// Exactly this many packets fit an idle shard's ring before the first
    /// rejection.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Total packets rejected by full shard rings (backpressure),
    /// including ring-quota sheds — a quota'd tenant hitting its share of
    /// a ring is backpressure scoped to that tenant. Cost-budget sheds
    /// are counted separately ([`WorkerPool::rejected_over_budget`]).
    pub fn rejected(&self) -> u64 {
        self.counters.snapshot().rejected()
    }

    /// Total packets shed at admission by tenants' cost budgets.
    pub fn rejected_over_budget(&self) -> u64 {
        self.counters.snapshot().rejected_over_budget()
    }

    /// Packets of `tenant` shed at admission by its cost budget.
    pub fn tenant_over_budget(&self, tenant: TenantId) -> u64 {
        self.tenant_cells[tenant.index()].sample().totals().rejected_over_budget
    }

    /// The pool's live counters: the per-tenant × per-shard relaxed-atomic
    /// cells holding every enqueue/reject/verdict count, readable from any
    /// thread at any time **without** a flush barrier. The `Arc` stays
    /// valid after shutdown.
    pub fn counters(&self) -> Arc<PoolCounters> {
        Arc::clone(&self.counters)
    }

    /// The dispatcher's buffer-recycling arena (telemetry: allocation vs
    /// recycle-hit counts). Buffers flow back into it from the free-rings
    /// and from [`WorkerPool::recycle`]; every tenant's ingestion draws
    /// from the same arena.
    pub fn buf_pool(&self) -> &BufPool {
        &self.bufs
    }

    /// Hands a packet buffer back to the recycling arena — the way to
    /// return [`PoolConfig::collect_outputs`] buffers after reading them,
    /// closing the zero-allocation loop for output-collecting callers.
    pub fn recycle(&mut self, buf: PacketBuf) {
        self.bufs.put(buf);
    }

    /// The shard a packet steers to, without enqueueing it. Identical
    /// steering to simnet's per-node RSS model: the Toeplitz hash of the
    /// 5-tuple, modulo the shard count. Steering is tenant-independent —
    /// tenants share the shards, like VRFs share a host's CPUs.
    pub fn steer_to(&self, packet: &[u8]) -> u32 {
        let hash = if self.config.symmetric_steering {
            rss_hash_packet_symmetric(packet)
        } else {
            rss_hash_packet(packet)
        };
        steer(hash, self.shards.len()) as u32
    }

    fn enqueue_at_as(&mut self, tenant: TenantId, now_ns: u64, packet: PacketBuf) -> bool {
        let shard = self.steer_to(packet.data()) as usize;
        self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, now_ns, 0) });
        self.publish_shard(shard) == 1
    }

    fn enqueue_all_as(&mut self, tenant: TenantId, packets: impl IntoIterator<Item = PacketBuf>) -> usize {
        let burst = self.config.batch_size.max(1);
        let mut accepted = 0;
        for packet in packets {
            let shard = self.steer_to(packet.data()) as usize;
            self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, 0, 0) });
            if self.shards[shard].staging.len() >= burst {
                accepted += self.publish_shard(shard);
            }
        }
        accepted + self.publish_all()
    }

    /// First use of the byte-slice ingestion path: provision the arena
    /// with the pool's whole in-flight bound up front. From then on the
    /// bytes path can never run the arena dry — the buffers a lagging
    /// worker has not returned yet are covered by the bound — so a
    /// mint-free steady state is a deterministic property, not one that
    /// depends on worker scheduling. Registering another tenant later
    /// re-provisions to the larger bound.
    fn ensure_bytes_arena(&mut self) {
        if !self.bytes_arena_ready {
            self.bytes_arena_ready = true;
            self.provision_arena(Self::in_flight_bound(
                &self.config,
                self.queue_capacity,
                self.tenant_cells.len(),
            ));
        }
    }

    /// Grows the arena to `bound` retained buffers by having each shard
    /// thread mint (and first-touch) an equal segment on its own thread —
    /// with pinned shards, the pages of a shard's segment land on that
    /// shard's NUMA node, which a dispatcher-side `prefill` could never
    /// arrange. The minted buffers still pool in the dispatcher's shared
    /// arena (buffers migrate across shards with the traffic anyway); the
    /// point is where the *first touch* happens. Worker mints count as
    /// arena allocations, so `allocations()`-flatness gates keep their
    /// meaning.
    fn provision_arena(&mut self, bound: usize) {
        self.bufs.set_max_retained(bound);
        let need = bound.saturating_sub(self.bufs.available());
        if need == 0 {
            return;
        }
        let workers = self.shards.len();
        let per = need / workers;
        let rem = need % workers;
        let replies: Vec<Receiver<Vec<PacketBuf>>> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, tx)| {
                let count = per + usize::from(i < rem);
                if count == 0 {
                    return None;
                }
                let (done_tx, done_rx) = channel();
                tx.ctrl
                    .send(Ctrl::Provision { count, headroom: self.bufs.headroom(), done: done_tx })
                    .expect("worker alive");
                tx.wake();
                Some(done_rx)
            })
            .collect();
        for reply in replies {
            for buf in reply.recv().expect("worker provisioned its arena segment") {
                self.bufs.adopt(buf);
            }
        }
    }

    fn enqueue_bytes_at_as(&mut self, tenant: TenantId, now_ns: u64, frame: &[u8]) -> bool {
        self.ensure_bytes_arena();
        if self.bufs.available() == 0 {
            self.reclaim();
        }
        let packet = self.bufs.take_filled(frame);
        self.enqueue_at_as(tenant, now_ns, packet)
    }

    fn enqueue_bytes_all_as<'a>(
        &mut self,
        tenant: TenantId,
        now_ns: u64,
        frames: impl IntoIterator<Item = &'a [u8]>,
    ) -> usize {
        self.ensure_bytes_arena();
        // Start every burst round by collecting what the workers returned
        // since the last one, keeping the free-rings far from full (a full
        // free-ring makes the worker drop storage instead of recycling).
        self.reclaim();
        let burst = self.config.batch_size.max(1);
        let mut accepted = 0;
        for frame in frames {
            if self.bufs.available() == 0 {
                self.reclaim();
            }
            let packet = self.bufs.take_filled(frame);
            let shard = self.steer_to(packet.data()) as usize;
            self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, now_ns, 0) });
            if self.shards[shard].staging.len() >= burst {
                accepted += self.publish_shard(shard);
            }
        }
        accepted + self.publish_all()
    }

    /// Publishes shard `shard`'s staged descriptors with one atomic
    /// release, after the per-tenant QoS admission pass: ring-quota'd
    /// tenants are capped at their slot share of this shard's ring
    /// (occupancy estimated lock-free from the tenant's live cell,
    /// `enqueued` minus the worker's relaxed `processed` — the estimate
    /// lags towards *under*-admission, never over), budgeted tenants
    /// spend [`COST_BASE`] per packet from their token bucket (refilled
    /// on the packets' own RX clocks, trued-up with the workers' measured
    /// surcharges). Everything shed or ring-rejected is accounted exactly
    /// in the tenant's cell for this shard, budget sheds on their own
    /// counter, and its buffer goes back to the arena. Wakes the worker
    /// when anything was published; returns the accepted count. No locks, no
    /// allocation: every structure touched is pre-sized per tenant.
    fn publish_shard(&mut self, shard: usize) -> usize {
        let tx = &mut self.shards[shard];
        if tx.staging.is_empty() {
            return 0;
        }
        for row in &mut self.ingress_scratch {
            *row = IngressRow::default();
        }
        for desc in &tx.staging {
            self.ingress_scratch[desc.tenant.index()].staged += 1;
        }
        // Per-tenant allowances for this publish: remaining quota slots
        // (for quota'd tenants only — unquota'd tenants skip the atomic
        // reads entirely) and the budget true-up of worker-measured work
        // surcharges.
        for (tenant, row) in self.ingress_scratch.iter_mut().enumerate() {
            if row.staged == 0 {
                continue;
            }
            let admission = &mut self.admission[tenant];
            row.allowance = match admission.quota_slots {
                None => u64::MAX,
                Some(slots) => {
                    slots.saturating_sub(self.tenant_cells[tenant].shard(shard as u32).backlog_relaxed())
                }
            };
            if let Some(bucket) = &mut admission.bucket {
                bucket.debit_surcharge(&self.tenant_cells[tenant], self.config.workers);
            }
        }
        // In-place admission filter: accepted descriptors compact to the
        // front (their relative order — and each tenant's FIFO order — is
        // preserved; only shed descriptors scramble in the tail).
        let mut kept = 0;
        for i in 0..tx.staging.len() {
            let tenant = tx.staging[i].tenant.index();
            let row = &mut self.ingress_scratch[tenant];
            let admit = if row.allowance == 0 {
                row.shed_quota += 1;
                false
            } else {
                match &mut self.admission[tenant].bucket {
                    None => true,
                    Some(bucket) => {
                        bucket.refill(tx.staging[i].skb.rx_timestamp_ns);
                        if bucket.try_spend(COST_BASE) {
                            true
                        } else {
                            row.shed_budget += 1;
                            false
                        }
                    }
                }
            };
            if admit {
                if row.allowance != u64::MAX {
                    row.allowance -= 1;
                }
                tx.staging.swap(kept, i);
                kept += 1;
            }
        }
        for desc in tx.staging.drain(kept..) {
            self.bufs.put(desc.skb.into_packet());
        }
        let accepted = tx.ring.enqueue_burst(&mut tx.staging);
        for desc in tx.staging.drain(..) {
            self.ingress_scratch[desc.tenant.index()].ring_rejected += 1;
            self.bufs.put(desc.skb.into_packet());
        }
        for (tenant, row) in self.ingress_scratch.iter().enumerate() {
            if row.staged == 0 {
                continue;
            }
            let tenant_accepted = row.staged - row.shed_quota - row.shed_budget - row.ring_rejected;
            let cell = self.tenant_cells[tenant].shard(shard as u32);
            cell.add_ingress(tenant_accepted, row.shed_quota + row.ring_rejected);
            cell.add_over_budget(row.shed_budget);
        }
        if accepted > 0 {
            self.shards[shard].wake();
        }
        accepted
    }

    /// Publishes every shard's remaining staged descriptors.
    fn publish_all(&mut self) -> usize {
        (0..self.shards.len()).map(|shard| self.publish_shard(shard)).sum()
    }

    /// Drains every shard's free-ring into the recycling arena.
    fn reclaim(&mut self) {
        for tx in &mut self.shards {
            while tx.freelist.dequeue_burst(&mut self.reclaim_scratch, 64) > 0 {
                for buf in self.reclaim_scratch.drain(..) {
                    self.bufs.put(buf);
                }
            }
        }
    }

    /// Barrier: waits until every shard has processed everything enqueued
    /// before this call, and returns the counter deltas (and outputs, when
    /// collected) since the previous flush — always in shard index order,
    /// regardless of which shard finished first.
    pub fn flush(&mut self) -> PoolReport {
        self.publish_all();
        // Hand every shard its barrier first, then collect in index order:
        // the shards drain concurrently, the ordering is imposed only on
        // the collection side.
        let replies: Vec<Receiver<ShardFlush>> = self
            .shards
            .iter()
            .map(|tx| {
                let (reply_tx, reply_rx) = channel();
                tx.ctrl.send(Ctrl::Flush(reply_tx)).expect("worker alive");
                tx.wake();
                reply_rx
            })
            .collect();
        let mut deltas = Vec::with_capacity(replies.len());
        let mut outputs = Vec::with_capacity(replies.len());
        for reply in replies {
            let flush = reply.recv().expect("worker answers the barrier");
            deltas.push(flush.stats);
            outputs.push(flush.outputs);
        }
        PoolReport { run: RunReport::from_deltas(&deltas), outputs }
    }

    /// Single-shard barrier: like [`WorkerPool::flush`], but only shard
    /// `shard` is flushed and reported — one reply channel, one
    /// round-trip. This is what per-event consumers (the simulator feeds
    /// one packet to one shard per arrival) use instead of paying a
    /// whole-pool barrier.
    pub fn flush_shard(&mut self, shard: u32) -> ShardFlush {
        self.publish_shard(shard as usize);
        let (reply_tx, reply_rx) = channel();
        let tx = &self.shards[shard as usize];
        tx.ctrl.send(Ctrl::Flush(reply_tx)).expect("worker alive");
        tx.wake();
        reply_rx.recv().expect("worker answers the barrier")
    }

    /// Graceful shutdown: every worker finishes its backlog, runs its
    /// final drain, and exits; the threads are joined. Returns each
    /// shard's lifetime counters (summed over tenants), in shard index
    /// order. Dropping the pool does the same, minus the report.
    pub fn shutdown(mut self) -> Vec<ShardSnapshot> {
        self.stop();
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
        self.counters.snapshot().shards
    }

    /// Graceful drain, the daemon's shutdown sequence in one call: run a
    /// [`WorkerPool::flush`] barrier so every packet enqueued before this
    /// point is processed (and its outputs collected), snapshot the live
    /// counters at that quiesced moment — the **final** per-tenant
    /// accounting, since intake has stopped by construction (`self` is
    /// consumed) — then shut the workers down and join them.
    pub fn drain(mut self) -> DrainReport {
        let last_flush = self.flush();
        let counters = self.counters.snapshot();
        self.shutdown();
        DrainReport { last_flush, counters }
    }

    fn stop(&mut self) {
        self.publish_all();
        for tx in self.shards.drain(..) {
            let _ = tx.ctrl.send(Ctrl::Shutdown);
            tx.wake();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An enqueue guard for one tenant of a [`WorkerPool`] (from
/// [`WorkerPool::tenant`]): its [`Ingress`] methods stamp every
/// descriptor with the tenant's id, so the worker executes them on that
/// tenant's datapath and the admission/verdict counters land in the
/// tenant's rows.
pub struct Tenant<'p> {
    pool: &'p mut WorkerPool,
    id: TenantId,
}

impl Tenant<'_> {
    /// The tenant this guard enqueues as.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// This tenant's live counters, summed over shards.
    pub fn stats(&self) -> ShardSnapshot {
        self.pool.tenant_cells[self.id.index()].sample().totals()
    }

    /// Packets of this tenant shed at admission by its cost budget.
    pub fn over_budget(&self) -> u64 {
        self.pool.tenant_over_budget(self.id)
    }
}

/// The pool's ingress surface: everything that feeds packets into a
/// [`WorkerPool`] on behalf of some tenant. Implemented by the pool
/// itself (as [`TenantId::DEFAULT`] — the single-tenant shorthand) and by
/// the [`Tenant`] guard; every method body lives here, as a provided
/// method over [`Ingress::target`], so the two implementations cannot
/// drift apart. Consumers that only feed packets (srv6d's service loop,
/// simnet's pool ingestion, capture replay) take `impl Ingress` and work
/// identically against either.
///
/// The trait has generic methods, so it is deliberately not object-safe —
/// take `&mut impl Ingress` (static dispatch on the hot path), not
/// `&mut dyn Ingress`.
pub trait Ingress {
    /// The pool this handle feeds and the tenant its packets are stamped
    /// with.
    fn target(&mut self) -> (&mut WorkerPool, TenantId);

    /// Steers `packet` to its shard and enqueues it with clock `now_ns`
    /// (the packet's RX timestamp, and the time its batch will be
    /// processed at). Returns `false` — counting the rejection or QoS
    /// shed — when the packet was not accepted.
    fn enqueue_at(&mut self, now_ns: u64, packet: PacketBuf) -> bool {
        let (pool, tenant) = self.target();
        pool.enqueue_at_as(tenant, now_ns, packet)
    }

    /// [`Ingress::enqueue_at`] with clock 0 (benchmarks and tests that do
    /// not model time).
    fn enqueue(&mut self, packet: PacketBuf) -> bool {
        self.enqueue_at(0, packet)
    }

    /// Enqueues a collection of packets, returning how many were
    /// accepted. Descriptors are staged per shard and published in bursts
    /// of [`PoolConfig::batch_size`] — one atomic ring publish per burst,
    /// the amortisation the per-packet [`Ingress::enqueue`] cannot have.
    fn enqueue_all(&mut self, packets: impl IntoIterator<Item = PacketBuf>) -> usize {
        let (pool, tenant) = self.target();
        pool.enqueue_all_as(tenant, packets)
    }

    /// Copies one external frame into a **recycled** packet buffer and
    /// enqueues it with clock `now_ns` — the zero-allocation ingestion
    /// front-end for sources that own their bytes (capture replay, the
    /// simulator, srv6d's socket reads).
    fn enqueue_bytes_at(&mut self, now_ns: u64, frame: &[u8]) -> bool {
        let (pool, tenant) = self.target();
        pool.enqueue_bytes_at_as(tenant, now_ns, frame)
    }

    /// Burst form of [`Ingress::enqueue_bytes_at`]: every frame is copied
    /// into recycled storage, staged per shard, and published in
    /// single-release bursts. Returns how many frames were accepted.
    fn enqueue_bytes_all<'a>(&mut self, now_ns: u64, frames: impl IntoIterator<Item = &'a [u8]>) -> usize {
        let (pool, tenant) = self.target();
        pool.enqueue_bytes_all_as(tenant, now_ns, frames)
    }
}

impl Ingress for WorkerPool {
    fn target(&mut self) -> (&mut WorkerPool, TenantId) {
        (self, TenantId::DEFAULT)
    }
}

impl Ingress for Tenant<'_> {
    fn target(&mut self) -> (&mut WorkerPool, TenantId) {
        (self.pool, self.id)
    }
}

/// The worker-side poll burst: how many descriptors one dequeue may move.
fn worker_burst(config: &PoolConfig) -> usize {
    config.napi_budget.max(1)
}

/// How long a parked worker sleeps before re-checking its inputs on its
/// own. Wakeups are explicit (publish/control unpark the thread); the
/// timeout only bounds the damage if the dispatcher vanishes without a
/// shutdown message.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// The state one shard thread owns for its whole life. The batch, verdict
/// and output buffers are reused across batches: after the first batch
/// warms them up, the shard's steady state performs zero heap allocations
/// per packet (the `alloc-counter` test feature proves it). `datapaths`
/// is the shard's tenant vector — index = [`TenantId::index`].
struct ShardState {
    id: u32,
    /// One datapath per tenant, indexed by tenant id. Grown by
    /// [`Ctrl::AddTenant`]; never shrinks.
    datapaths: Vec<Seg6Datapath>,
    /// Per-tenant run queues the current poll's packets are sorted into
    /// (arrival order preserved within a tenant), indexed by tenant id.
    /// Ring buffers reused across polls — pre-sized to the poll burst at
    /// tenant install, so the steady state never grows them. The DRR
    /// scheduler takes `batch_size`-capped runs off their fronts.
    queues: Vec<VecDeque<Skb>>,
    /// Per-tenant DRR deficit, in [`work_cost`] tokens. Signed: a run's
    /// actual cost is only known after it executed, so a tenant may
    /// overdraw by at most one run and pays the debt out of its next
    /// quantum. Reset to (at most) zero when the tenant's queue empties —
    /// an idle tenant hoards no credit.
    deficit: Vec<i64>,
    /// Per-tenant shared QoS cells (DRR weights), indexed by tenant id.
    qos: Vec<Arc<QosCell>>,
    /// Round-robin cursor of the DRR scheduler: the next tenant to
    /// credit. Persists across polls so the rotation is fair over time.
    drr_next: usize,
    /// Dequeue scratch: descriptors straight off the ring, before they
    /// are sorted into the per-tenant `queues`.
    rx: Vec<Desc>,
    /// This shard's counters (summed over tenants) as of the last flush
    /// barrier; the next barrier reports the difference.
    reported: ShardSnapshot,
    outputs: Vec<(TenantId, Skb, BatchVerdict)>,
    verdicts: Vec<BatchVerdict>,
    drain: Option<BatchDrain>,
    /// Free-ring back to the dispatcher: drained packet buffers.
    free: Producer<PacketBuf>,
    /// Staging for the free-ring, so a whole poll's buffers are returned
    /// with one burst publish (reused across polls)...
    free_staging: Vec<PacketBuf>,
    /// ...and, index-aligned with it, the tenant each buffer belonged to
    /// (the free-ring takes a prefix; recycle counts are attributed to
    /// tenants exactly from this).
    free_tenants: Vec<TenantId>,
    /// Live-counter rows, one per tenant, updated once per tenant run.
    tenant_cells: Vec<Arc<TenantCounters>>,
    /// Reused per-tenant recycle counts (index = tenant id).
    recycled_scratch: Vec<u64>,
    /// Park handshake; see [`ShardTx::sleeping`].
    sleeping: Arc<AtomicBool>,
}

/// One shard's thread body: NAPI-style occupancy-sized burst dequeue,
/// then `batch_size`-bounded batches per tenant run, recycle, drain,
/// report. Control messages (flush barriers, tenant registration,
/// shutdown) ride the sideband channel and are checked between bursts; an
/// idle shard parks.
fn worker_loop(config: PoolConfig, mut shard: ShardState, ctrl: Receiver<Ctrl>, mut ring: Consumer<Desc>) {
    let mut clock: u64 = 0;
    loop {
        // Sideband control, between bursts: the descriptor plane never
        // carries anything but packets.
        match ctrl.try_recv() {
            Ok(Ctrl::Flush(reply)) => {
                flush_barrier(&mut shard, &mut ring, &mut clock, &config, reply);
                continue;
            }
            Ok(Ctrl::AddTenant { datapath, cells, qos, done }) => {
                install_tenant(&mut shard, *datapath, cells, qos, done, worker_burst(&config));
                continue;
            }
            Ok(Ctrl::Provision { count, headroom, done }) => {
                provision_segment(count, headroom, done);
                continue;
            }
            Ok(Ctrl::Shutdown) | Err(TryRecvError::Disconnected) => {
                // Finish the backlog and the final drain, so no packet or
                // perf event is stranded. Disconnection without a shutdown
                // message means the dispatcher vanished mid-panic — same
                // exit path.
                drain_ring(&mut shard, &mut ring, &mut clock, &config);
                return;
            }
            Err(TryRecvError::Empty) => {}
        }
        // One adaptive poll: a burst sized by the ring's occupancy, capped
        // at the NAPI budget, processed immediately. Batching amortises
        // bursts, it never delays a lull's packets; the budget bounds how
        // long a saturated ring can keep control waiting.
        if poll_once(&mut shard, &mut ring, &mut clock, &config) {
            continue;
        }
        // Idle: park. The pre-park protocol pairs with `ShardTx::wake` —
        // set the flag, fence, then re-check both inputs; the dispatcher
        // publishes/sends first, fences, then checks the flag. Whatever
        // the interleaving, either this sees the work or the dispatcher
        // sees the flag and unparks.
        shard.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !ring.is_empty() {
            shard.sleeping.store(false, Ordering::SeqCst);
            continue;
        }
        match ctrl.try_recv() {
            Ok(Ctrl::Flush(reply)) => {
                shard.sleeping.store(false, Ordering::SeqCst);
                flush_barrier(&mut shard, &mut ring, &mut clock, &config, reply);
            }
            Ok(Ctrl::AddTenant { datapath, cells, qos, done }) => {
                shard.sleeping.store(false, Ordering::SeqCst);
                install_tenant(&mut shard, *datapath, cells, qos, done, worker_burst(&config));
            }
            Ok(Ctrl::Provision { count, headroom, done }) => {
                shard.sleeping.store(false, Ordering::SeqCst);
                provision_segment(count, headroom, done);
            }
            Ok(Ctrl::Shutdown) | Err(TryRecvError::Disconnected) => {
                shard.sleeping.store(false, Ordering::SeqCst);
                drain_ring(&mut shard, &mut ring, &mut clock, &config);
                return;
            }
            Err(TryRecvError::Empty) => {
                std::thread::park_timeout(PARK_TIMEOUT);
                shard.sleeping.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// Mints one shard's arena segment *on the shard's own thread*. The
/// buffers are created and their steady-state storage written here, so
/// first-touch places their pages on this thread's NUMA node; then they
/// ship back to the dispatcher's shared arena. The touch extends each
/// buffer to the default frame capacity and resets it, leaving exactly
/// what `BufPool::prefill` used to produce — just with local pages.
fn provision_segment(count: usize, headroom: usize, done: Sender<Vec<PacketBuf>>) {
    let mut segment = Vec::with_capacity(count);
    let touch = [0u8; 256];
    for _ in 0..count {
        let mut buf = PacketBuf::with_headroom(headroom);
        let mut written = 0;
        while written < netpkt::sockio::DEFAULT_FRAME_CAP {
            buf.append(&touch);
            written += touch.len();
        }
        buf.reset(headroom);
        segment.push(buf);
    }
    // A vanished dispatcher mid-provision just drops the segment.
    let _ = done.send(segment);
}

/// Installs a tenant's datapath, counter row, QoS cell and scheduler
/// state on this shard, then acknowledges to the dispatcher (which blocks
/// until every shard has). The run queue is pre-sized to the poll burst
/// here, at install time, so the data plane never grows it.
fn install_tenant(
    shard: &mut ShardState,
    datapath: Seg6Datapath,
    cells: Arc<TenantCounters>,
    qos: Arc<QosCell>,
    done: Sender<()>,
    burst: usize,
) {
    shard.datapaths.push(datapath);
    shard.tenant_cells.push(cells);
    shard.recycled_scratch.push(0);
    shard.queues.push(VecDeque::with_capacity(burst));
    shard.deficit.push(0);
    shard.qos.push(qos);
    let _ = done.send(());
}

/// One NAPI-style poll: dequeues a burst sized by the observed ring
/// occupancy (capped at the budget) and processes it. Returns whether any
/// descriptor moved.
fn poll_once(
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    let got = ring.dequeue_burst(&mut shard.rx, worker_burst(config));
    if got == 0 {
        return false;
    }
    // Sort descriptors into the per-tenant run queues (arrival order
    // preserved within a tenant); the shard clock advances per run inside
    // `run_scheduler`, not per poll, so a large NAPI burst does not
    // time-stamp its first run with its last packet's arrival.
    for desc in shard.rx.drain(..) {
        shard.queues[desc.tenant.index()].push_back(desc.skb);
    }
    run_scheduler(shard, clock, config);
    true
}

/// Consumes the descriptor ring dry (everything published so far) in
/// budget-capped bursts, then runs one final drain pass so per-CPU perf
/// consumers see the last batch's events.
fn drain_ring(shard: &mut ShardState, ring: &mut Consumer<Desc>, clock: &mut u64, config: &PoolConfig) {
    while poll_once(shard, ring, clock, config) {}
    run_drain(shard);
}

/// Serves one flush barrier: drain everything published before it, then
/// report what this shard's cells (summed over tenants) gained since the
/// previous barrier.
fn flush_barrier(
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
    reply: Sender<ShardFlush>,
) {
    drain_ring(shard, ring, clock, config);
    let now: ShardSnapshot = shard.tenant_cells.iter().map(|row| row.shard(shard.id).sample()).sum();
    let delta = now.since(&shard.reported);
    shard.reported = now;
    let _ = reply.send(ShardFlush { stats: delta, outputs: std::mem::take(&mut shard.outputs) });
}

/// Runs the shard's drain daemon, if any.
fn run_drain(shard: &mut ShardState) {
    if let Some(drain) = &mut shard.drain {
        drain(shard.id);
    }
}

/// Schedules the accumulated poll's packets as **deficit-round-robin
/// tenant runs**, replacing strict arrival order: each round the cursor
/// visits a backlogged tenant and credits its deficit with `weight ×
/// batch_size ×` [`COST_BASE`] tokens; while the deficit is positive the
/// tenant executes runs — up to [`PoolConfig::batch_size`] of its queued
/// packets as one batch call on its datapath — and each run's **actual**
/// [`work_cost`] (priced from the emitted
/// [`WorkSummary`](seg6_core::WorkSummary) flags) is subtracted. A tenant
/// whose packets run expensive behaviours exhausts its deficit in fewer
/// packets; a higher weight buys proportionally more of the worker. The
/// drain daemon keeps its pre-tenancy cadence (after every run, and a run
/// never exceeds `batch_size` packets — per-CPU perf rings sized against
/// `batch_size` cannot overflow however large the NAPI dequeue burst
/// was). The poll's drained packet buffers are returned through the
/// free-ring with one burst publish at the end.
fn run_scheduler(shard: &mut ShardState, clock: &mut u64, config: &PoolConfig) {
    let limit = config.batch_size.max(1);
    let tenants = shard.queues.len();
    let quantum_unit = limit as i64 * COST_BASE as i64;
    let mut remaining: usize = shard.queues.iter().map(VecDeque::len).sum();
    while remaining > 0 {
        let tenant = shard.drr_next;
        shard.drr_next = (shard.drr_next + 1) % tenants;
        if shard.queues[tenant].is_empty() {
            continue;
        }
        let weight = i64::from(shard.qos[tenant].weight.load(Ordering::Relaxed).max(1));
        shard.deficit[tenant] += weight * quantum_unit;
        while shard.deficit[tenant] > 0 && !shard.queues[tenant].is_empty() {
            let run = limit.min(shard.queues[tenant].len());
            let cost = process_run(shard, TenantId::from_index(tenant), run, clock, config);
            shard.deficit[tenant] -= cost as i64;
            remaining -= run;
        }
        if shard.queues[tenant].is_empty() {
            // The queue drained: surrender leftover credit (an idle tenant
            // hoards nothing) but keep any debt for the next quantum.
            shard.deficit[tenant] = shard.deficit[tenant].min(0);
        }
    }
    if !config.collect_outputs && !shard.free_staging.is_empty() {
        // Hand the whole poll's drained storage back to the dispatcher
        // with one burst publish — the return leg costs one release store
        // per poll, like the ingress leg. Whatever a full free-ring
        // (dispatcher not reclaiming) leaves behind is dropped — recycling
        // is an optimisation, never a blocking edge.
        let recycled = shard.free.enqueue_burst(&mut shard.free_staging);
        shard.free_staging.clear();
        if recycled > 0 {
            // The free-ring took the emission-order prefix; attribute the
            // recycled buffers to their tenants exactly (pre-sized
            // scratch, one fetch_add per tenant with any).
            for count in &mut shard.recycled_scratch {
                *count = 0;
            }
            for tenant in &shard.free_tenants[..recycled] {
                shard.recycled_scratch[tenant.index()] += 1;
            }
            for (tenant, count) in shard.recycled_scratch.iter().enumerate() {
                if *count > 0 {
                    shard.tenant_cells[tenant].shard(shard.id).add_recycled(*count);
                }
            }
        }
        shard.free_tenants.clear();
    }
}

/// Executes one tenant run: the next `run` packets off the tenant's queue
/// as a single batch call on its datapath, with the shard clock advanced
/// to the run's newest RX timestamp first (the clock a kernel softirq
/// batch would run under — bounded by `batch_size`, like the run itself,
/// so `bpf_ktime_get_ns`/End.DM never see the timestamp spread of a whole
/// NAPI burst). Counts the run's verdicts and its priced cost into the
/// tenant's live counters, runs the drain daemon, and emits the processed
/// packets — into the collected outputs (processing order, tagged with
/// the tenant) or onto the free-ring staging. Returns the run's total
/// [`work_cost`], which the DRR loop charges against the tenant's
/// deficit.
fn process_run(
    shard: &mut ShardState,
    tenant: TenantId,
    run: usize,
    clock: &mut u64,
    config: &PoolConfig,
) -> u64 {
    let t = tenant.index();
    let queue = &mut shard.queues[t];
    if queue.as_slices().0.len() < run {
        queue.make_contiguous();
    }
    let batch = &mut queue.as_mut_slices().0[..run];
    for skb in batch.iter() {
        *clock = (*clock).max(skb.rx_timestamp_ns);
    }
    // The verdict buffer is shard-owned and reused, index-aligned with
    // the run: no allocation per run, no allocation per packet.
    shard.verdicts.clear();
    shard.datapaths[t].process_batch_verdicts_into(batch, *clock, &mut shard.verdicts);
    let (mut forwarded, mut local_delivered, mut dropped, mut cost) = (0, 0, 0, 0);
    for bv in &shard.verdicts {
        match bv.verdict {
            seg6_core::Verdict::Forward { .. } => forwarded += 1,
            seg6_core::Verdict::LocalDeliver => local_delivered += 1,
            seg6_core::Verdict::Drop(_) => dropped += 1,
        }
        cost += work_cost(&bv.work);
    }
    shard.tenant_cells[t].shard(shard.id).add_batch(forwarded, local_delivered, dropped, cost);
    // The drain daemon runs batch-aware: after every `batch_size`-bounded
    // run's events are in the perf ring, on the worker that produced
    // them.
    run_drain(shard);
    if config.collect_outputs {
        let packets = shard.queues[t].drain(..run).zip(shard.verdicts.drain(..));
        shard.outputs.extend(packets.map(|(skb, bv)| (tenant, skb, bv)));
    } else {
        for skb in shard.queues[t].drain(..run) {
            shard.free_staging.push(skb.into_packet());
            shard.free_tenants.push(tenant);
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{flow_packet, forwarding_datapath, reference_run};
    use ebpf_vm::helpers::ids;
    use ebpf_vm::insn::{jmp, AccessSize};
    use ebpf_vm::maps::{PerCpuArrayMap, PerfEventArray};
    use ebpf_vm::perf::PerfEvent;
    use ebpf_vm::program::{load, retcode, ProgramType};
    use ebpf_vm::{Map, MapHandle, ProgramBuilder};
    use netpkt::ipv6::proto;
    use netpkt::packet::build_srv6_udp_packet;
    use netpkt::srh::SegmentRoutingHeader;

    use seg6_core::{Nexthop, Seg6LocalAction, Verdict};
    use std::collections::HashMap;
    use std::net::Ipv6Addr;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// The admission half of a counter sample: `(enqueued, rejected)`.
    fn admission(sample: &ShardSnapshot) -> (u64, u64) {
        (sample.enqueued, sample.rejected)
    }

    #[test]
    fn pinned_shards_report_their_placement() {
        let config = PoolConfig { workers: 2, pinning: PinPolicy::Compact, ..PoolConfig::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        // A flush barrier round-trips every worker, and each records its
        // placement at thread start, before its first control receive —
        // so the snapshot after the barrier is deterministic.
        let _ = pool.flush();
        let snap = pool.counters().snapshot();
        assert_eq!(snap.placement.len(), 2);
        if cfg!(target_os = "linux") {
            let cores = crate::affinity::available_cores();
            for (i, p) in snap.placement.iter().enumerate() {
                assert_eq!(p.pinned_core, Some(cores[i % cores.len()]), "shard {i} pinned compactly");
                if let Some(node) = p.numa_node {
                    assert_eq!(crate::affinity::numa_node_of_cpu(p.pinned_core.unwrap()), Some(node));
                }
            }
        } else {
            assert!(snap.placement.iter().all(|p| p.pinned_core.is_none()));
        }

        // Unpinned pools report no placement, and the default config
        // still pins nothing.
        let mut pool = WorkerPool::new(PoolConfig::default(), forwarding_datapath);
        let _ = pool.flush();
        let snap = pool.counters().snapshot();
        assert!(snap.placement.iter().all(|p| p.pinned_core.is_none() && p.numa_node.is_none()));
    }

    /// A datapath routing everything out of `oif` — tenants built from it
    /// are distinguishable by their verdicts.
    fn oif_datapath(oif: u32) -> impl Fn(u32) -> Seg6Datapath {
        move |cpu| {
            let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
            dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(oif)]);
            dp
        }
    }

    /// Regression: the pool must agree with the sequential,
    /// single-threaded reference — same verdicts, and per-shard results
    /// reported in shard index order no matter which shard finishes first.
    #[test]
    fn pool_flush_matches_run_once_in_shard_index_order() {
        let packets: Vec<PacketBuf> = (0..512).map(flow_packet).collect();
        let (report_once, _) = reference_run(4, packets.iter().cloned(), forwarding_datapath);

        let config = PoolConfig { workers: 4, batch_size: 16, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        assert_eq!(pool.enqueue_all(packets.iter().cloned()), 512);
        for _ in 0..5 {
            // Repeat to give out-of-order shard completions a chance to
            // show up; the report must stay identical every time.
            let report = pool.flush();
            assert_eq!(report.run, report_once);
            pool.enqueue_all(packets.iter().cloned());
        }
        pool.flush();
    }

    /// The acceptance-criteria test: a steady-state run through the
    /// persistent pool performs no thread spawns after construction —
    /// including tenant registration, which reuses the existing shards.
    #[test]
    fn pool_spawns_no_threads_after_construction() {
        let config = PoolConfig { workers: 4, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let counters = pool.counters();
        let after_construction = pool.threads_spawned();
        assert_eq!(after_construction, 4);

        // Registering a tenant must not spawn either.
        let tenant = pool.add_tenant(TenantSpec::build_with(oif_datapath(9)));
        assert_eq!(pool.threads_spawned(), after_construction, "add_tenant must not spawn");

        // The scaling workload: many enqueue/flush rounds across tenants.
        for round in 0..10 {
            if round % 2 == 0 {
                pool.enqueue_all((0..256).map(flow_packet));
            } else {
                pool.tenant(tenant).enqueue_all((0..256).map(flow_packet));
            }
            let report = pool.flush();
            assert_eq!(report.run.processed, 256);
        }
        assert_eq!(pool.threads_spawned(), after_construction, "steady state must not spawn");
        pool.shutdown();
        assert_eq!(counters.threads_spawned(), after_construction, "shutdown must not spawn");
    }

    /// Backpressure: a full shard ring rejects deterministically. The
    /// drain daemon doubles as a worker-stall handshake so the test
    /// controls exactly when the worker consumes its ring.
    #[test]
    fn full_shard_ring_rejects_and_counts() {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = PoolConfig { workers: 1, batch_size: 1, queue_depth: 4, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let entered_tx = entered_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
            }))
        });

        // First packet: the worker takes it off the ring, processes it
        // and blocks inside the drain.
        assert!(pool.enqueue(flow_packet(0)));
        entered_rx.recv().expect("worker entered the drain");

        // The ring now holds 0 descriptors and the worker consumes
        // nothing: the next `queue_capacity` packets fit, everything after
        // that is backpressure.
        assert_eq!(pool.queue_capacity(), 4);
        for flow in 1..=4 {
            assert!(pool.enqueue(flow_packet(flow)), "packet {flow} fits the ring");
        }
        assert!(!pool.enqueue(flow_packet(5)));
        assert!(!pool.enqueue(flow_packet(6)));
        assert_eq!(pool.rejected(), 2);
        // Readable mid-run, without any barrier.
        assert_eq!(admission(&pool.counters().snapshot().shards[0]), (5, 2));
        // The default tenant carries all of it — per-tenant admission
        // accounting agrees with the per-shard view.
        assert_eq!(admission(&pool.tenant(TenantId::DEFAULT).stats()), (5, 2));

        // Unblock every future drain call and let the barrier confirm that
        // accepted packets — and only those — were processed.
        drop(release_tx);
        let report = pool.flush();
        assert_eq!(report.run.processed, 5);
        assert_eq!(report.run.forwarded, 5);
    }

    /// The queue-depth satellite: a non-power-of-two depth rounds **up**,
    /// the effective capacity is exactly reachable, and the
    /// enqueued/rejected split stays exact at the boundary.
    #[test]
    fn queue_depth_rounds_up_and_boundary_accounting_is_exact() {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = PoolConfig { workers: 1, batch_size: 1, queue_depth: 5, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let entered_tx = entered_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
            }))
        });
        assert_eq!(pool.queue_capacity(), 8, "queue_depth 5 rounds up to 8");

        // Stall the worker after packet 0, then fill the ring to *exactly*
        // its capacity: every one of the 8 must fit, the 9th must not.
        assert!(pool.enqueue(flow_packet(0)));
        entered_rx.recv().expect("worker entered the drain");
        for flow in 1..=8 {
            assert!(pool.enqueue(flow_packet(flow)), "packet {flow} of exactly capacity fits");
        }
        assert!(!pool.enqueue(flow_packet(9)), "capacity + 1 is rejected");
        assert_eq!(admission(&pool.counters().snapshot().shards[0]), (9, 1));

        drop(release_tx);
        let report = pool.flush();
        assert_eq!(report.run.processed, 9, "every accepted packet, none of the rejected");
        pool.shutdown();
    }

    /// An enqueue-only caller must not strand work: when a shard's ring
    /// goes idle, whatever was dequeued is processed (and the drain daemon
    /// runs) without waiting for a flush barrier.
    #[test]
    fn idle_worker_processes_partial_batches_without_a_barrier() {
        let (drained_tx, drained_rx) = mpsc::channel::<()>();
        let config = PoolConfig { workers: 1, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let drained_tx = drained_tx.clone();
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = drained_tx.send(());
            }))
        });
        // 5 packets — far below the staging burst — and no flush call.
        for flow in 0..5 {
            assert!(pool.enqueue(flow_packet(flow)));
        }
        // The drain daemon only runs after a processed batch; its signal
        // proves the packets did not wait for a barrier.
        drained_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("idle worker processed its partial batch");
        let report = pool.flush();
        assert_eq!(report.run.processed, 5);
    }

    /// The adaptive-batching satellite: the worker consumes a backlog in
    /// occupancy-sized dequeue bursts capped at the NAPI budget, while
    /// *processing* (and the drain-daemon cadence) stays bounded by
    /// `batch_size` — so the batch count is exactly
    /// `ceil(backlog / min(batch_size, napi_budget))`, flush semantics and
    /// verdict totals are unchanged, and perf rings provisioned against
    /// `batch_size` can never overflow between drains.
    #[test]
    fn adaptive_bursts_respect_the_napi_budget_and_batch_bound() {
        const BACKLOG: u32 = 512;
        // (batch_size, napi_budget) → expected batch bound
        // min(batch_size, budget): the budget caps a poll's dequeue, the
        // batch size caps each processed (and drained) batch within it.
        for (batch_size, budget, bound) in [(32usize, 64usize, 32u64), (256, 64, 64)] {
            let (entered_tx, entered_rx) = mpsc::channel::<()>();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
            let config = PoolConfig {
                workers: 1,
                batch_size,
                napi_budget: budget,
                queue_depth: 2 * BACKLOG as usize,
                ..Default::default()
            };
            let mut pool = WorkerPool::new(config, move |cpu| {
                let entered_tx = entered_tx.clone();
                let release_rx = Arc::clone(&release_rx);
                ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                    let _ = entered_tx.send(());
                    let _ = release_rx.lock().unwrap().recv();
                }))
            });

            // One packet puts the worker to work; it blocks in the drain
            // after that first (1-packet) batch.
            assert!(pool.enqueue(flow_packet(0)));
            entered_rx.recv().expect("worker entered the drain");
            // Build the whole backlog while the worker is stalled, so
            // every later poll observes full occupancy deterministically.
            assert_eq!(pool.enqueue_all((1..=BACKLOG).map(flow_packet)), BACKLOG as usize);
            // Release the worker batch by batch, counting drain entries —
            // one per processed batch, so the backlog must take exactly
            // 512 / bound of them.
            for _ in 0..BACKLOG as u64 / bound {
                release_tx.send(()).expect("worker waits in the drain");
                entered_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("one drain per batch");
            }
            drop(release_tx);
            let report = pool.flush();
            assert_eq!(report.run.processed, u64::from(BACKLOG) + 1, "flush semantics kept");
            let totals = pool.shutdown();
            assert_eq!(totals[0].processed, u64::from(BACKLOG) + 1);
            assert_eq!(
                totals[0].batches,
                1 + u64::from(BACKLOG) / bound,
                "batch_size {batch_size} budget {budget}: batches must be {bound}-bounded"
            );
        }
    }

    /// Tenant plumbing: descriptors stamped by a tenant handle execute on
    /// that tenant's datapath (distinguishable verdicts), outputs carry
    /// the tenant id, and the per-tenant counter rows sum to the global
    /// per-shard view.
    #[test]
    fn tenants_route_through_their_own_datapaths() {
        let config = PoolConfig { workers: 2, batch_size: 8, collect_outputs: true, ..Default::default() };
        let mut pool = WorkerPool::new(config, oif_datapath(10));
        let tenant_b = pool.add_tenant(TenantSpec::build_with(oif_datapath(20)));
        assert_eq!(pool.tenants(), 2);

        let packets: Vec<PacketBuf> = (0..64).map(flow_packet).collect();
        assert_eq!(pool.enqueue_all(packets.iter().cloned()), 64);
        assert_eq!(pool.tenant(tenant_b).enqueue_all(packets.iter().cloned()), 64);
        let mut report = pool.flush();
        let mut seen = [0u64; 2];
        for outputs in report.outputs.iter_mut() {
            for (tenant, skb, bv) in outputs.drain(..) {
                let expected_oif = if tenant == TenantId::DEFAULT { 10 } else { 20 };
                assert!(
                    matches!(bv.verdict, Verdict::Forward { oif, .. } if oif == expected_oif),
                    "tenant {tenant:?} cross-routed: {:?}",
                    bv.verdict
                );
                seen[tenant.index()] += 1;
                pool.recycle(skb.into_packet());
            }
        }
        assert_eq!(seen, [64, 64]);

        // Admission accounting: per-tenant and per-shard views agree.
        let snap = pool.counters().snapshot();
        assert_eq!(admission(&snap.tenants[0].totals()), (64, 0));
        assert_eq!(admission(&snap.tenants[1].totals()), (64, 0));
        assert_eq!(snap.enqueued(), 128);

        // Live counters: tenant rows sum to the aggregated shard view.
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].totals().processed, 64);
        assert_eq!(snap.tenants[1].totals().processed, 64);
        assert_eq!(snap.processed(), 128);
        for shard in 0..2 {
            let mut summed = crate::telemetry::ShardSnapshot::default();
            for tenant in &snap.tenants {
                summed.accumulate(&tenant.shards[shard]);
            }
            assert_eq!(summed, snap.shards[shard], "shard {shard}");
        }
        pool.shutdown();
    }

    #[test]
    fn flush_shard_reports_only_that_shard() {
        let config = PoolConfig { workers: 2, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        pool.enqueue_all((0..64).map(flow_packet));
        let enqueued: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        assert!(enqueued.iter().all(|&n| n > 0), "steering collapsed: {enqueued:?}");

        let shard0 = pool.flush_shard(0);
        assert_eq!(shard0.stats.processed, enqueued[0]);
        // The full barrier afterwards reports only what shard 0 already
        // reported as zero, plus shard 1's packets.
        let report = pool.flush();
        assert_eq!(report.run.per_worker, vec![0, enqueued[1]]);
    }

    #[test]
    fn outputs_carry_verdicts_and_rewritten_packets() {
        let config = PoolConfig { workers: 2, batch_size: 4, collect_outputs: true, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let packets: Vec<PacketBuf> = (0..32).map(flow_packet).collect();
        pool.enqueue_all(packets.iter().cloned());
        let mut report = pool.flush();
        assert_eq!(report.outputs.len(), 2);
        let total: usize = report.outputs.iter().map(Vec::len).sum();
        assert_eq!(total, 32);
        for (shard, outputs) in report.outputs.iter_mut().enumerate() {
            for (tenant, skb, bv) in outputs.drain(..) {
                assert_eq!(tenant, TenantId::DEFAULT);
                assert_eq!(pool.steer_to(skb.packet.data()) as usize, shard);
                assert!(matches!(bv.verdict, Verdict::Forward { oif: 1, .. }));
                assert_eq!(bv.work, seg6_core::WorkSummary::default());
                // The hop limit was decremented in place.
                let header = netpkt::Ipv6Header::parse(skb.packet.data()).unwrap();
                assert_eq!(header.hop_limit, 63);
                // Output buffers can be handed back to the arena.
                pool.recycle(skb.into_packet());
            }
        }
        assert_eq!(pool.buf_pool().available(), 32);
        // The next flush starts from a clean output buffer.
        pool.enqueue(flow_packet(0));
        let report = pool.flush();
        assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn shutdown_processes_the_backlog_and_reports_in_shard_order() {
        let config = PoolConfig { workers: 4, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        // 100 packets is not a multiple of the staging burst, so shards
        // hold partial bursts when the shutdown message lands.
        pool.enqueue_all((0..100).map(flow_packet));
        let enqueued: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        let totals = pool.shutdown();
        assert_eq!(totals.len(), 4);
        for (shard, (stats, expected)) in totals.iter().zip(enqueued).enumerate() {
            assert_eq!(stats.enqueued, expected, "shard {shard} counted its ring");
            assert_eq!(stats.processed, expected, "shard {shard} processed its backlog");
        }
        assert_eq!(totals.iter().map(|s| s.processed).sum::<u64>(), 100);
    }

    /// Live telemetry satellite: at every quiet point (after a flush
    /// barrier), the barrier-free counter snapshot agrees exactly with the
    /// enqueued totals and the accumulated flush deltas — and reading it
    /// mid-run needs no barrier at all.
    #[test]
    fn live_counters_agree_with_flush_totals() {
        let config = PoolConfig { workers: 4, batch_size: 16, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let counters = pool.counters();
        let mut flushed = RunReport::default();
        for round in 1..=3u64 {
            pool.enqueue_all((0..256).map(flow_packet));
            // A mid-traffic sample must be readable without a barrier and
            // never exceed what was enqueued.
            let live = counters.snapshot();
            assert!(live.processed() <= live.enqueued());
            let report = pool.flush();
            flushed.processed += report.run.processed;
            flushed.forwarded += report.run.forwarded;

            let quiet = counters.snapshot();
            assert_eq!(quiet.enqueued(), 256 * round);
            assert_eq!(quiet.processed(), flushed.processed);
            assert_eq!(quiet.forwarded(), flushed.forwarded);
            assert_eq!(quiet.in_flight(), 0);
            assert_eq!(quiet.rejected(), 0);
        }
        // Counters survive (and stay exact across) shutdown.
        let totals = pool.shutdown();
        let after = counters.snapshot();
        assert_eq!(after.processed(), totals.iter().map(|s| s.processed).sum::<u64>());
    }

    /// Recycling satellite: byte-slice ingestion reuses worker-returned
    /// buffers — after warm-up, whole rounds run without the arena
    /// allocating a single fresh buffer.
    #[test]
    fn bytes_ingestion_recycles_buffers_between_rounds() {
        let config = PoolConfig { workers: 2, batch_size: 8, queue_depth: 512, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let frames: Vec<PacketBuf> = (0..128).map(flow_packet).collect();
        let frames: Vec<&[u8]> = frames.iter().map(|p| p.data()).collect();

        // Warm-up: the first rounds mint fresh buffers.
        for _ in 0..2 {
            assert_eq!(pool.enqueue_bytes_all(0, frames.iter().copied()), 128);
            assert_eq!(pool.flush().run.processed, 128);
        }
        // The first bytes-path use provisioned the arena to the pool's
        // in-flight bound, so the mint count is paid once — and staying
        // flat is deterministic, not scheduling-dependent.
        let minted = pool.buf_pool().allocations();
        assert!(minted > 0, "first bytes-path use provisioned the arena");

        // Steady state: every round is served from recycled storage.
        for round in 0..4 {
            assert_eq!(pool.enqueue_bytes_all(0, frames.iter().copied()), 128);
            assert_eq!(pool.flush().run.processed, 128);
            assert_eq!(
                pool.buf_pool().allocations(),
                minted,
                "round {round} minted fresh buffers instead of recycling"
            );
        }
        assert!(pool.buf_pool().recycle_hits() >= 4 * 128);
        // The workers' side of the loop is visible in the live counters.
        assert!(pool.counters().snapshot().recycled() >= 4 * 128);
        // Verdicts are identical to the owned-buffer reference.
        let (report_once, _) = reference_run(2, (0..128).map(flow_packet), forwarding_datapath);
        pool.enqueue_bytes_all(0, frames.iter().copied());
        assert_eq!(pool.flush().run, report_once);
    }

    /// An `End.BPF` program that bumps this CPU's slot of the per-CPU
    /// array at fd 1, then emits the new count through
    /// `bpf_perf_event_output(..., BPF_F_CURRENT_CPU, ...)` into the perf
    /// array at fd 2, then forwards.
    fn emitting_program() -> ebpf_vm::Program {
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
        // Stash the fresh per-CPU sequence number and emit it.
        b.store_mem(AccessSize::Double, 10, 1, -16);
        b.mov_reg(1, 9);
        b.load_map_fd(2, 2);
        b.load_imm64(3, 0xffff_ffff); // BPF_F_CURRENT_CPU, zero-extended
        b.mov_reg(4, 10);
        b.add_imm(4, -16);
        b.mov_imm(5, 8);
        b.call(ids::PERF_EVENT_OUTPUT);
        b.label("out");
        b.ret(retcode::BPF_OK as i32);
        b.build_program("emit-seq", ProgramType::LwtSeg6Local).expect("static program")
    }

    /// Satellite coverage: perf events emitted with `BPF_F_CURRENT_CPU`
    /// from every shard are all collected by the per-worker drain daemons
    /// — none lost (including events of the final partial batch, drained
    /// at shutdown), none duplicated.
    #[test]
    fn per_cpu_perf_events_survive_pool_shutdown_exactly_once() {
        const WORKERS: u32 = 4;
        const PACKETS: u32 = 403; // deliberately not a batch multiple
        let sid = addr("fc00::e1");
        let counter: MapHandle = PerCpuArrayMap::new(8, 1, WORKERS);
        let perf = PerfEventArray::per_cpu(PACKETS as usize, WORKERS);
        let ring = perf.perf_buffer().expect("perf array has a buffer");
        let collected: Arc<std::sync::Mutex<Vec<PerfEvent>>> = Arc::new(std::sync::Mutex::new(Vec::new()));

        let config = PoolConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, |cpu| {
            let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
            let mut maps: HashMap<u32, MapHandle> = HashMap::new();
            maps.insert(1, Arc::clone(&counter));
            maps.insert(2, perf.clone());
            let prog = load(emitting_program(), &maps, &dp.helpers).expect("verified program");
            dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), Seg6LocalAction::EndBpf { prog });
            let ring = Arc::clone(&ring);
            let collected = Arc::clone(&collected);
            ShardSetup::new(dp).with_drain(Box::new(move |cpu| {
                // Each shard's daemon drains only its own ring.
                ring.take_cpu(cpu, &mut collected.lock().unwrap());
            }))
        });

        for flow in 0..PACKETS {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, addr("fc00::99")]);
            let pkt = build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                &srh,
                (1000 + flow) as u16,
                5001,
                &[0u8; 16],
                64,
            );
            assert!(pool.enqueue(pkt));
        }
        let per_shard: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        let totals = pool.shutdown();
        assert_eq!(totals.iter().map(|s| s.processed).sum::<u64>(), u64::from(PACKETS));

        // Every ring is empty — the daemons took everything before exit.
        assert!(ring.is_empty(), "events stranded in a ring");
        assert_eq!(ring.dropped(), 0);

        // All events collected, exactly once: per shard, the sequence
        // numbers are 1..=n with no gap or repeat.
        let collected = collected.lock().unwrap();
        assert_eq!(collected.len(), PACKETS as usize);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); WORKERS as usize];
        for event in collected.iter() {
            let seq = u64::from_le_bytes(event.data.as_slice().try_into().expect("8-byte event"));
            seqs[event.cpu as usize].push(seq);
        }
        for (cpu, mut shard_seqs) in seqs.into_iter().enumerate() {
            shard_seqs.sort_unstable();
            let expected: Vec<u64> = (1..=per_shard[cpu]).collect();
            assert_eq!(shard_seqs, expected, "shard {cpu} events lost or duplicated");
            assert!(!expected.is_empty(), "shard {cpu} saw no traffic — steering collapsed");
        }
    }
}
