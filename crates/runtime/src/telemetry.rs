//! Pool-wide live counters: barrier-free, per-tenant × per-shard metrics
//! for a running pool.
//!
//! [`WorkerPool::flush`](crate::WorkerPool::flush) is a barrier — it
//! reports exact deltas, but only by making every shard stop and answer.
//! A metrics endpoint scraping a production datapath cannot afford that;
//! it wants the kernel model instead, where `ethtool -S`-style counters
//! are per-queue cells the datapath updates locally and readers sample at
//! any time without synchronising with the hot path.
//!
//! [`PoolCounters`] reproduces that, with **tenancy** as the outer
//! dimension: one [`TenantCounters`] block per registered tenant, each a
//! row of [`ShardCounters`] cells (one per shard), each cell a set of
//! relaxed atomics. The dispatcher adds its enqueue/reject accounting at
//! publish time; each worker adds its processed/verdict/recycle deltas
//! once per tenant run within a batch (batch-local sums, one `fetch_add`
//! per counter per run — nothing per packet). The hot path never touches
//! a lock: the dispatcher and every worker hold direct `Arc`s to their
//! tenants' cell blocks (handed over on the control channel when a tenant
//! registers); only registration and [`PoolCounters::snapshot`] take the
//! tenant-list lock.
//!
//! These cells are the pool's only accounting: every admission and
//! verdict count is written to exactly one cell by exactly one thread, and
//! every other view (flush deltas, per-tenant totals, `rejected()`) is
//! derived from them. A snapshot taken *while traffic is moving* may
//! straddle a batch (e.g. `enqueued` already includes packets whose
//! `processed` increment has not landed yet); after a
//! [`flush`](crate::WorkerPool::flush) barrier it is exact.

use crate::pool::TenantId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Live counters of one (tenant, shard) cell. All cells are relaxed
/// atomics: written by exactly one thread each (dispatcher or the shard's
/// worker), readable by anyone at any time.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Packets accepted into the shard's descriptor ring (dispatcher).
    enqueued: AtomicU64,
    /// Packets rejected because the ring was full (dispatcher).
    rejected: AtomicU64,
    /// Packets processed by the worker.
    processed: AtomicU64,
    /// Forward verdicts.
    forwarded: AtomicU64,
    /// Local-delivery verdicts.
    local_delivered: AtomicU64,
    /// Drop verdicts.
    dropped: AtomicU64,
    /// Batches (tenant runs) executed by the worker.
    batches: AtomicU64,
    /// Packet buffers handed back to the dispatcher through the free-ring.
    recycled: AtomicU64,
    /// Packets shed at admission because the tenant's cost budget was
    /// exhausted (dispatcher). Not included in `rejected`.
    rejected_over_budget: AtomicU64,
    /// Cost-model units charged for processed work (worker), priced by
    /// [`work_cost`](crate::work_cost) from the emitted `WorkSummary`s.
    cost: AtomicU64,
}

impl ShardCounters {
    /// Dispatcher-side accounting: one call per published burst.
    pub(crate) fn add_ingress(&self, enqueued: u64, rejected: u64) {
        if enqueued > 0 {
            self.enqueued.fetch_add(enqueued, Ordering::Relaxed);
        }
        if rejected > 0 {
            self.rejected.fetch_add(rejected, Ordering::Relaxed);
        }
    }

    /// Worker-side accounting: one call per processed tenant run, with the
    /// run's verdict counts and its priced [`work_cost`](crate::work_cost).
    pub(crate) fn add_batch(&self, forwarded: u64, local_delivered: u64, dropped: u64, cost: u64) {
        self.processed.fetch_add(forwarded + local_delivered + dropped, Ordering::Relaxed);
        self.forwarded.fetch_add(forwarded, Ordering::Relaxed);
        self.local_delivered.fetch_add(local_delivered, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.cost.fetch_add(cost, Ordering::Relaxed);
    }

    /// Worker-side accounting: how many of this tenant's buffers went to
    /// the free-ring in one batch publish.
    pub(crate) fn add_recycled(&self, recycled: u64) {
        if recycled > 0 {
            self.recycled.fetch_add(recycled, Ordering::Relaxed);
        }
    }

    /// Dispatcher-side accounting: packets shed because the tenant's cost
    /// budget was exhausted.
    pub(crate) fn add_over_budget(&self, shed: u64) {
        if shed > 0 {
            self.rejected_over_budget.fetch_add(shed, Ordering::Relaxed);
        }
    }

    /// Packets accepted into the ring but not yet processed — the
    /// dispatcher's ring-quota occupancy estimate. Both reads are relaxed;
    /// a stale `processed` only overstates the backlog, so the estimate
    /// errs towards admitting less.
    pub(crate) fn backlog_relaxed(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed).saturating_sub(self.processed.load(Ordering::Relaxed))
    }

    /// Relaxed read of the processed counter — the dispatcher's budget
    /// true-up prices the base cost of processed packets from it.
    pub(crate) fn processed_relaxed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Relaxed read of the charged cost — the dispatcher's budget true-up
    /// debits the surcharge (cost beyond the base already charged at
    /// admission) against the tenant's token bucket.
    pub(crate) fn cost_relaxed(&self) -> u64 {
        self.cost.load(Ordering::Relaxed)
    }

    /// Samples this cell's counters.
    pub fn sample(&self) -> ShardSnapshot {
        ShardSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            processed: self.processed.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            local_delivered: self.local_delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            rejected_over_budget: self.rejected_over_budget.load(Ordering::Relaxed),
            cost: self.cost.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time sample of one counter cell (or a sum of cells).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Packets accepted into the shard's descriptor ring since pool start.
    pub enqueued: u64,
    /// Packets rejected by a full ring (backpressure) since pool start.
    pub rejected: u64,
    /// Packets processed by the worker.
    pub processed: u64,
    /// Forward verdicts.
    pub forwarded: u64,
    /// Local-delivery verdicts.
    pub local_delivered: u64,
    /// Drop verdicts.
    pub dropped: u64,
    /// Batches (tenant runs) executed.
    pub batches: u64,
    /// Packet buffers recycled back to the dispatcher's arena.
    pub recycled: u64,
    /// Packets shed at admission by an exhausted cost budget (distinct
    /// from `rejected`, which counts ring-full and quota sheds).
    pub rejected_over_budget: u64,
    /// Cost-model units charged for processed work.
    pub cost: u64,
}

impl ShardSnapshot {
    /// Adds another sample cell-by-cell (summing tenants into the global
    /// per-shard view, or shards into a tenant total).
    pub fn accumulate(&mut self, other: &ShardSnapshot) {
        *self = self.combine(other, |a, b| a + b);
    }

    /// What changed since `earlier`, a sample of the same cells taken
    /// before this one (counters only grow) — how a shard computes its
    /// flush-barrier deltas.
    pub(crate) fn since(&self, earlier: &ShardSnapshot) -> ShardSnapshot {
        self.combine(earlier, |now, then| now - then)
    }

    fn combine(&self, other: &ShardSnapshot, op: impl Fn(u64, u64) -> u64) -> ShardSnapshot {
        ShardSnapshot {
            enqueued: op(self.enqueued, other.enqueued),
            rejected: op(self.rejected, other.rejected),
            processed: op(self.processed, other.processed),
            forwarded: op(self.forwarded, other.forwarded),
            local_delivered: op(self.local_delivered, other.local_delivered),
            dropped: op(self.dropped, other.dropped),
            batches: op(self.batches, other.batches),
            recycled: op(self.recycled, other.recycled),
            rejected_over_budget: op(self.rejected_over_budget, other.rejected_over_budget),
            cost: op(self.cost, other.cost),
        }
    }
}

impl std::iter::Sum for ShardSnapshot {
    fn sum<I: Iterator<Item = ShardSnapshot>>(cells: I) -> ShardSnapshot {
        cells.fold(ShardSnapshot::default(), |total, cell| total.combine(&cell, |a, b| a + b))
    }
}

/// The live counter row of one tenant: one [`ShardCounters`] cell per
/// shard. The dispatcher and the workers hold direct `Arc`s to the rows of
/// the tenants they serve — updating a cell never takes a lock.
#[derive(Debug)]
pub struct TenantCounters {
    shards: Box<[ShardCounters]>,
}

impl TenantCounters {
    fn new(workers: u32) -> Self {
        TenantCounters { shards: (0..workers).map(|_| ShardCounters::default()).collect() }
    }

    /// This tenant's cell on `shard`.
    pub fn shard(&self, shard: u32) -> &ShardCounters {
        &self.shards[shard as usize]
    }

    /// Samples every shard cell of this tenant, in shard index order.
    pub fn sample(&self) -> TenantSnapshot {
        TenantSnapshot { shards: self.shards.iter().map(ShardCounters::sample).collect() }
    }
}

/// A point-in-time sample of one tenant's row, in shard index order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Per-shard samples, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl TenantSnapshot {
    /// This tenant's totals across all shards.
    pub fn totals(&self) -> ShardSnapshot {
        self.shards.iter().copied().sum()
    }
}

/// A consistent-at-quiescence sample of the whole pool: the per-tenant
/// rows plus the aggregated per-shard view (each `shards[q]` is the sum of
/// every tenant's cell on shard `q`, so the tenant rows always sum exactly
/// to the global view by construction). See the
/// [module docs](self) for what "consistent" means while traffic moves.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Per-tenant rows, indexed by tenant id.
    pub tenants: Vec<TenantSnapshot>,
    /// Aggregated per-shard samples (summed over tenants), indexed by
    /// shard id.
    pub shards: Vec<ShardSnapshot>,
    /// Where each shard thread landed, indexed by shard id: the core it
    /// pinned to (if [`PoolConfig::pinning`](crate::PoolConfig::pinning)
    /// asked for one and `sched_setaffinity` succeeded) and that core's
    /// NUMA node. Benches record this so multi-shard rows can prove they
    /// ran on real, distinct cores.
    pub placement: Vec<PlacementSnapshot>,
}

/// One shard thread's observed placement (see [`PoolSnapshot::placement`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlacementSnapshot {
    /// The core the shard thread successfully pinned itself to, `None`
    /// when unpinned (policy `None`, or the pin failed).
    pub pinned_core: Option<u32>,
    /// The pinned core's NUMA node, where sysfs exposes one.
    pub numa_node: Option<u32>,
}

impl PoolSnapshot {
    /// Sums a counter over every shard.
    fn total(&self, field: impl Fn(&ShardSnapshot) -> u64) -> u64 {
        self.shards.iter().map(field).sum()
    }

    /// Pool-wide totals as one cell.
    pub fn totals(&self) -> ShardSnapshot {
        self.shards.iter().copied().sum()
    }

    /// Total packets accepted across all shards and tenants.
    pub fn enqueued(&self) -> u64 {
        self.total(|s| s.enqueued)
    }

    /// Total packets rejected (backpressure) across all shards.
    pub fn rejected(&self) -> u64 {
        self.total(|s| s.rejected)
    }

    /// Total packets processed across all shards.
    pub fn processed(&self) -> u64 {
        self.total(|s| s.processed)
    }

    /// Total forward verdicts across all shards.
    pub fn forwarded(&self) -> u64 {
        self.total(|s| s.forwarded)
    }

    /// Total local deliveries across all shards.
    pub fn local_delivered(&self) -> u64 {
        self.total(|s| s.local_delivered)
    }

    /// Total drop verdicts across all shards.
    pub fn dropped(&self) -> u64 {
        self.total(|s| s.dropped)
    }

    /// Total buffers recycled through the free-rings.
    pub fn recycled(&self) -> u64 {
        self.total(|s| s.recycled)
    }

    /// Total packets shed at admission by exhausted cost budgets.
    pub fn rejected_over_budget(&self) -> u64 {
        self.total(|s| s.rejected_over_budget)
    }

    /// Total cost-model units charged across all shards.
    pub fn cost(&self) -> u64 {
        self.total(|s| s.cost)
    }

    /// Packets accepted but not yet processed at sample time — the live
    /// backlog estimate a load-shedding controller would watch.
    pub fn in_flight(&self) -> u64 {
        self.enqueued().saturating_sub(self.processed())
    }
}

/// The pool's live counter block: one [`TenantCounters`] row per tenant.
/// Held behind an `Arc` by the pool, its workers, and any number of metric
/// readers ([`WorkerPool::counters`](crate::WorkerPool::counters) hands
/// out clones). The lock guards only the row *list* (taken on tenant
/// registration and on snapshot); the rows themselves are lock-free.
#[derive(Debug)]
pub struct PoolCounters {
    workers: u32,
    tenants: RwLock<Vec<Arc<TenantCounters>>>,
    /// Per-shard placement cells, written once by each worker thread at
    /// spawn (after its pin attempt) and sampled into
    /// [`PoolSnapshot::placement`]. `u32::MAX` encodes "none".
    placement: Box<[ShardPlacementCell]>,
    /// OS threads the owning pool has spawned.
    threads_spawned: AtomicU64,
}

#[derive(Debug)]
struct ShardPlacementCell {
    pinned_core: AtomicU64,
    numa_node: AtomicU64,
}

/// Sentinel for "no core / no node" in the placement cells.
const PLACEMENT_NONE: u64 = u64::MAX;

impl ShardPlacementCell {
    fn new() -> Self {
        ShardPlacementCell {
            pinned_core: AtomicU64::new(PLACEMENT_NONE),
            numa_node: AtomicU64::new(PLACEMENT_NONE),
        }
    }

    fn sample(&self) -> PlacementSnapshot {
        let decode = |v: u64| if v == PLACEMENT_NONE { None } else { Some(v as u32) };
        PlacementSnapshot {
            pinned_core: decode(self.pinned_core.load(Ordering::Relaxed)),
            numa_node: decode(self.numa_node.load(Ordering::Relaxed)),
        }
    }
}

impl PoolCounters {
    /// A counter block with one (default) tenant row.
    pub(crate) fn new(workers: u32) -> Self {
        PoolCounters {
            workers,
            tenants: RwLock::new(vec![Arc::new(TenantCounters::new(workers))]),
            placement: (0..workers).map(|_| ShardPlacementCell::new()).collect(),
            threads_spawned: AtomicU64::new(0),
        }
    }

    /// OS threads the owning pool has spawned over its life: one per shard
    /// at construction, never again. Per pool, so concurrent pools in one
    /// process cannot disturb each other's count, and readable after
    /// shutdown through a retained `Arc`.
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    pub(crate) fn count_thread_spawn(&self) {
        self.threads_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records shard `shard`'s observed placement — called once by the
    /// worker thread itself, right after its pin attempt.
    pub(crate) fn record_placement(&self, shard: u32, core: Option<u32>, numa: Option<u32>) {
        let cell = &self.placement[shard as usize];
        let encode = |v: Option<u32>| v.map_or(PLACEMENT_NONE, u64::from);
        cell.pinned_core.store(encode(core), Ordering::Relaxed);
        cell.numa_node.store(encode(numa), Ordering::Relaxed);
    }

    /// Appends a fresh tenant row and returns it (the pool hands the `Arc`
    /// to the dispatcher and, over the control channel, to every worker).
    pub(crate) fn add_tenant(&self) -> Arc<TenantCounters> {
        let row = Arc::new(TenantCounters::new(self.workers));
        self.tenants.write().expect("counter registry lock").push(Arc::clone(&row));
        row
    }

    /// Number of shards each tenant row covers.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Number of registered tenant rows.
    pub fn tenants(&self) -> usize {
        self.tenants.read().expect("counter registry lock").len()
    }

    /// One tenant's live counter row.
    pub fn tenant(&self, tenant: TenantId) -> Arc<TenantCounters> {
        Arc::clone(&self.tenants.read().expect("counter registry lock")[tenant.index()])
    }

    /// Samples every tenant row, barrier-free, and aggregates the global
    /// per-shard view. Tenant and shard indices match registration order.
    pub fn snapshot(&self) -> PoolSnapshot {
        let rows = self.tenants.read().expect("counter registry lock");
        let tenants: Vec<TenantSnapshot> = rows.iter().map(|row| row.sample()).collect();
        drop(rows);
        let mut shards = vec![ShardSnapshot::default(); self.workers as usize];
        for tenant in &tenants {
            for (aggregate, cell) in shards.iter_mut().zip(&tenant.shards) {
                aggregate.accumulate(cell);
            }
        }
        let placement = self.placement.iter().map(|cell| cell.sample()).collect();
        PoolSnapshot { tenants, shards, placement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_both_sides() {
        let counters = PoolCounters::new(2);
        let row = counters.tenant(TenantId::DEFAULT);
        row.shard(0).add_ingress(10, 2);
        row.shard(1).add_ingress(5, 0);
        row.shard(0).add_batch(8, 1, 1, 10);
        row.shard(0).add_recycled(10);
        let snap = counters.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.shards[0].enqueued, 10);
        assert_eq!(snap.shards[0].rejected, 2);
        assert_eq!(snap.shards[0].processed, 10);
        assert_eq!(snap.shards[0].forwarded, 8);
        assert_eq!(snap.shards[0].recycled, 10);
        assert_eq!(snap.shards[1].enqueued, 5);
        assert_eq!(snap.enqueued(), 15);
        assert_eq!(snap.rejected(), 2);
        assert_eq!(snap.processed(), 10);
        assert_eq!(snap.in_flight(), 5);
        assert_eq!(snap.tenants[0].totals().enqueued, 15);
    }

    #[test]
    fn tenant_rows_sum_to_the_aggregated_shards() {
        let counters = PoolCounters::new(2);
        let second = counters.add_tenant();
        assert_eq!(counters.tenants(), 2);
        counters.tenant(TenantId::DEFAULT).shard(0).add_ingress(7, 1);
        second.shard(0).add_ingress(3, 0);
        second.shard(1).add_ingress(2, 2);
        let snap = counters.snapshot();
        for shard in 0..2 {
            let mut summed = ShardSnapshot::default();
            for tenant in &snap.tenants {
                summed.accumulate(&tenant.shards[shard]);
            }
            assert_eq!(summed, snap.shards[shard], "shard {shard}");
        }
        assert_eq!(snap.enqueued(), 12);
        assert_eq!(snap.rejected(), 3);
        assert_eq!(snap.tenants[1].totals().enqueued, 5);
    }

    #[test]
    fn in_flight_saturates() {
        let counters = PoolCounters::new(1);
        counters.tenant(TenantId::DEFAULT).shard(0).add_batch(3, 0, 0, 3);
        // Processed can transiently exceed enqueued in a torn mid-traffic
        // sample; the backlog estimate must not wrap.
        assert_eq!(counters.snapshot().in_flight(), 0);
    }
}
