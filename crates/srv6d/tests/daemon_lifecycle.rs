//! Daemon lifecycle coverage: loopback end-to-end accounting, config
//! reload diffs under load, graceful drain, and the stats/control
//! socket — the same `Srv6Daemon` code the binary runs, driven over real
//! loopback UDP or the deterministic in-memory backend.

use netpkt::packet::build_ipv6_udp_packet;
use netpkt::sockio::{send_batch, FrameBatch, PacketRx, UdpRx, UdpTx};
use srv6d::{Config, MemBackend, Srv6Daemon, UdpBackend};
use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// One IPv6/UDP frame of flow `flow` towards `dst`.
fn frame_to(dst: &str, flow: u32) -> Vec<u8> {
    build_ipv6_udp_packet(
        addr(&format!("2001:db8::{:x}", flow + 1)),
        addr(dst),
        (1024 + flow % 40_000) as u16,
        5001,
        &[0u8; 32],
        64,
    )
    .data()
    .to_vec()
}

/// Services the daemon until the named tenant slot has processed
/// `expected` packets, or panics after a timeout.
fn service_until_processed(daemon: &mut Srv6Daemon, slot: usize, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        daemon.service();
        let processed = daemon.pool().counters().snapshot().tenants[slot].totals().processed;
        if processed >= expected {
            return;
        }
        assert!(Instant::now() < deadline, "timed out at {processed}/{expected} processed");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The acceptance-criteria path: real loopback UDP in, batched ingest
/// through the rings, batched UDP out — with exact `PoolCounters`
/// accounting and a mint-flat recycling arena in steady state.
#[test]
fn loopback_end_to_end_counts_every_frame() {
    const N: usize = 512;
    let config = Config::parse(
        "[daemon]\nworkers = 2\nbatch-size = 32\nqueue-depth = 2048\nrx-burst = 64\n\
         [tenant edge]\nlocal = fc00::1\nlisten = [::1]:41000\npeer = 1 [::1]:41100\nroute = ::/0 dev 1",
    )
    .expect("valid config");

    // The peer capture socket must exist before the daemon connects to it.
    let mut capture = UdpRx::bind("[::1]:41100").expect("bind capture");
    let mut daemon = Srv6Daemon::start(config, Box::new(UdpBackend)).expect("daemon starts");

    // Two RX queues: frames alternate between the bound ports. Sends,
    // daemon service passes and egress reads interleave in small bursts
    // so no loopback socket buffer ever has to absorb a whole phase.
    let mut q0 = UdpTx::connect("[::1]:41000").expect("connect queue 0");
    let mut q1 = UdpTx::connect("[::1]:41001").expect("connect queue 1");
    let frames: Vec<Vec<u8>> = (0..N as u32).map(|f| frame_to("2001:db8:f::1", f)).collect();
    let mut batch = FrameBatch::new(64, 2048);
    let mut run_phase = |daemon: &mut Srv6Daemon, capture: &mut UdpRx, q0: &mut UdpTx, q1: &mut UdpTx| {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = 0;
        for burst in frames.chunks(64) {
            let (a, b) = burst.split_at(burst.len() / 2);
            assert_eq!(send_batch(q0, a.iter().map(Vec::as_slice)).unwrap(), a.len());
            assert_eq!(send_batch(q1, b.iter().map(Vec::as_slice)).unwrap(), b.len());
            daemon.service();
            batch.clear();
            received += capture.fill(&mut batch).expect("capture fill");
        }
        while received < N {
            daemon.service();
            batch.clear();
            let got = capture.fill(&mut batch).expect("capture fill");
            received += got;
            assert!(Instant::now() < deadline, "egress timed out at {received}/{N}");
            if got == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        assert_eq!(received, N, "every forwarded packet came out of the egress socket");
    };

    // Warmup pass: the first N frames mint the arena and size every buffer.
    run_phase(&mut daemon, &mut capture, &mut q0, &mut q1);
    let minted = daemon.pool().buf_pool().allocations();

    // Steady state: the same load again must not mint a single buffer —
    // the mint-flat gate extended across the socket ingest boundary.
    run_phase(&mut daemon, &mut capture, &mut q0, &mut q1);
    assert_eq!(
        daemon.pool().buf_pool().allocations(),
        minted,
        "steady-state socket ingest minted fresh buffers instead of recycling"
    );

    // Exact accounting: every frame accepted, processed and forwarded.
    let totals = daemon.pool().counters().snapshot().tenants[0].totals();
    assert_eq!(totals.enqueued, 2 * N as u64);
    assert_eq!(totals.processed, 2 * N as u64);
    assert_eq!(totals.forwarded, 2 * N as u64);
    assert_eq!(totals.rejected, 0);
    assert_eq!(totals.dropped, 0);

    // Graceful drain: final counters exact, intake stopped.
    let report = daemon.drain();
    let edge = &report.tenants[0];
    assert_eq!(edge.name, "edge");
    assert!(edge.active);
    assert_eq!(edge.rx_frames, 2 * N as u64);
    assert_eq!(edge.tx_frames, 2 * N as u64);
    assert_eq!(edge.tx_drops, 0);
    assert_eq!(edge.totals.processed, 2 * N as u64);
    assert_eq!(report.drain.counters.in_flight(), 0, "the drain barrier left packets in flight");
}

const RELOAD_BASE: &str = "[daemon]\nworkers = 1\nbatch-size = 16\nqueue-depth = 1024\n\
    [tenant keep]\nlocal = fc00::1\nlisten = [::1]:42000\npeer = 1 [::1]:42100\nroute = ::/0 dev 1\n\
    [tenant change]\nlocal = fc00::2\nlisten = [::1]:42010\npeer = 1 [::1]:42110\n\
    route = 2001:db8:a::/48 dev 1\n\
    [tenant gone]\nlocal = fc00::3\nlisten = [::1]:42020\npeer = 1 [::1]:42120\nroute = ::/0 dev 1";

const RELOAD_NEXT: &str = "[daemon]\nworkers = 1\nbatch-size = 16\nqueue-depth = 1024\n\
    [tenant keep]\nlocal = fc00::1\nlisten = [::1]:42000\npeer = 1 [::1]:42100\nroute = ::/0 dev 1\n\
    [tenant change]\nlocal = fc00::2\nlisten = [::1]:42010\npeer = 1 [::1]:42110\n\
    route = 2001:db8:a::/48 dev 1\nroute = 2001:db8:b::/48 dev 1\n\
    [tenant newt]\nlocal = fc00::4\nlisten = [::1]:42030\npeer = 1 [::1]:42130\nroute = ::/0 dev 1";

/// The reload acceptance path: a route is added, a tenant removed and a
/// tenant added while traffic flows — and the untouched tenant accounts
/// for every single frame it was sent.
#[test]
fn reload_diff_under_load_preserves_untouched_tenants() {
    const K: u64 = 200;
    let mem = MemBackend::new(4096);
    let mut daemon =
        Srv6Daemon::start(Config::parse(RELOAD_BASE).unwrap(), Box::new(mem.clone())).expect("starts");

    let inject = |mem: &MemBackend, tenant: &str, dst: &str, count: u64| {
        for flow in 0..count {
            assert!(mem.inject(tenant, 0, &frame_to(dst, flow as u32)), "injection backpressured");
        }
    };

    // Phase 1: all three tenants forward. `change` drops traffic to the
    // not-yet-routed 2001:db8:b::/48.
    inject(&mem, "keep", "2001:db8:f::1", K);
    inject(&mem, "change", "2001:db8:a::1", K);
    inject(&mem, "change", "2001:db8:b::1", K);
    inject(&mem, "gone", "2001:db8:f::1", K);
    service_until_processed(&mut daemon, 0, K);
    service_until_processed(&mut daemon, 1, 2 * K);
    service_until_processed(&mut daemon, 2, K);
    let change_before = daemon.pool().counters().snapshot().tenants[1].totals();
    assert_eq!(change_before.forwarded, K, "a-prefix traffic forwarded");
    assert_eq!(change_before.dropped, K, "b-prefix traffic has no route yet");

    // Load is in flight on the untouched tenant while the reload lands.
    inject(&mem, "keep", "2001:db8:f::1", K);
    let report = daemon.reload(Config::parse(RELOAD_NEXT).unwrap()).expect("reload applies");
    assert_eq!(report.routes_changed, vec!["change".to_string()]);
    assert_eq!(report.removed, vec!["gone".to_string()]);
    assert_eq!(report.added, vec!["newt".to_string()]);
    assert_eq!(report.rebuilt, Vec::<String>::new());
    assert_eq!(report.unchanged, 1);
    inject(&mem, "keep", "2001:db8:f::1", K);

    // The untouched tenant lost nothing: every frame sent before, during
    // and after the reload is accepted, processed and forwarded.
    service_until_processed(&mut daemon, 0, 3 * K);
    let keep = daemon.pool().counters().snapshot().tenants[0].totals();
    assert_eq!(keep.enqueued, 3 * K);
    assert_eq!(keep.processed, 3 * K);
    assert_eq!(keep.forwarded, 3 * K);
    assert_eq!(keep.rejected, 0);
    assert_eq!(keep.dropped, 0);
    assert_eq!(mem.egress_backlog("keep", 1), 3 * K as usize, "all forwarded frames were emitted");

    // The route diff took effect live: b-prefix traffic now forwards.
    inject(&mem, "change", "2001:db8:b::1", K);
    service_until_processed(&mut daemon, 1, 3 * K);
    let change = daemon.pool().counters().snapshot().tenants[1].totals();
    assert_eq!(change.forwarded, 2 * K, "the added route forwards what used to drop");
    assert_eq!(change.dropped, K, "no new drops after the route landed");

    // The added tenant serves; the removed tenant is quiesced (its slot
    // and counters stay, its sockets are closed).
    inject(&mem, "newt", "2001:db8:f::1", K);
    service_until_processed(&mut daemon, 3, K);
    assert!(mem.inject("gone", 0, &frame_to("2001:db8:f::1", 0)), "old link still exists");
    for _ in 0..5 {
        daemon.service();
    }
    let gone = daemon.pool().counters().snapshot().tenants[2].totals();
    assert_eq!(gone.processed, K, "a retired tenant processes nothing more");

    let report = daemon.drain();
    assert_eq!(report.tenants.len(), 4);
    assert!(!report.tenants[2].active, "removed tenant reported as retired");
    assert_eq!(report.tenants[0].totals.processed, 3 * K);
    assert_eq!(report.drain.counters.in_flight(), 0);
}

/// Drain-on-shutdown: intake stops, the flush barrier runs, and the
/// reported per-tenant counters are final and exact.
#[test]
fn drain_stops_intake_and_reports_final_counters() {
    const N: u64 = 300;
    let mem = MemBackend::new(2048);
    let config = Config::parse(
        "[daemon]\nworkers = 2\nbatch-size = 32\nqueue-depth = 1024\n\
         [tenant solo]\nlocal = fc00::1\nlisten = [::1]:43000\npeer = 1 [::1]:43100\nroute = ::/0 dev 1",
    )
    .unwrap();
    let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("starts");

    for flow in 0..N {
        assert!(mem.inject("solo", (flow % 2) as u32, &frame_to("2001:db8:f::1", flow as u32)));
    }
    // Read everything off the sockets, then hand over to the drain while
    // the rings may still hold work — the barrier must finish it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut read = 0;
    while read < N as usize {
        read += daemon.service().rx_frames;
        assert!(Instant::now() < deadline, "intake timed out at {read}/{N}");
    }

    let report = daemon.drain();
    let solo = &report.tenants[0];
    assert_eq!(solo.rx_frames, N, "every injected frame was read before the drain");
    assert_eq!(solo.totals.enqueued, N);
    assert_eq!(solo.totals.processed, N, "the drain barrier processed the full backlog");
    assert_eq!(solo.totals.forwarded, N);
    assert_eq!(solo.totals.rejected, 0);
    assert_eq!(solo.tx_frames, N, "every forwarded packet was emitted");
    assert_eq!(solo.tx_drops, 0);
    assert_eq!(report.drain.counters.in_flight(), 0, "nothing left in flight after the barrier");
    assert_eq!(mem.egress_backlog("solo", 1), N as usize);
    // The per-shard lifetime view agrees with the per-tenant accounting.
    let shard_sum: u64 = report.drain.counters.shards.iter().map(|s| s.processed).sum();
    assert_eq!(shard_sum, N);
}

/// The stats socket serves Prometheus text and accepts control verbs.
#[test]
fn stats_socket_serves_metrics_and_control() {
    let socket = std::env::temp_dir().join(format!("srv6d-test-{}.sock", std::process::id()));
    let mem = MemBackend::new(256);
    let config = Config::parse(&format!(
        "[daemon]\nworkers = 1\nstats-socket = {}\n\
         [tenant edge]\nlocal = fc00::1\nlisten = [::1]:44000\npeer = 1 [::1]:44100\nroute = ::/0 dev 1",
        socket.display()
    ))
    .unwrap();
    let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("starts");
    let shared = daemon.shared();

    assert!(mem.inject("edge", 0, &frame_to("2001:db8:f::1", 1)));
    service_until_processed(&mut daemon, 0, 1);

    assert_eq!(srv6d::control(&socket, "ping").expect("ping"), "ok\n");
    let metrics = srv6d::control(&socket, "metrics").expect("scrape");
    assert!(metrics.contains("srv6d_tenant_active{tenant=\"edge\",slot=\"0\"} 1"), "{metrics}");
    assert!(metrics.contains("srv6d_processed_total{tenant=\"edge\",slot=\"0\",shard=\"0\"} 1"), "{metrics}");
    assert!(metrics.contains("srv6d_rx_frames_total{tenant=\"edge\",slot=\"0\"} 1"), "{metrics}");

    assert!(srv6d::control(&socket, "reload").expect("reload").starts_with("ok"));
    assert!(shared.flags.reload.swap(false, std::sync::atomic::Ordering::Relaxed));
    assert!(srv6d::control(&socket, "drain").expect("drain").starts_with("ok"));
    assert!(shared.flags.stop.load(std::sync::atomic::Ordering::Relaxed));

    daemon.drain();
    assert!(!socket.exists(), "stats socket file removed on drain");
}

/// Pulls the value of the metric line starting with `prefix`.
fn metric_value(metrics: &str, prefix: &str) -> f64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{metrics}"));
    line.rsplit(' ').next().unwrap().parse().expect("numeric metric value")
}

/// The derived gauges: `srv6d_cost_rate` differentiates the cost counter
/// over the scrape window, `srv6d_budget_headroom` subtracts it from the
/// configured budget, and the placement gauges report each shard's
/// pin/NUMA state (-1 sentinels when unpinned, as in this unpinned run).
#[test]
fn metrics_expose_cost_rates_and_placement() {
    let mem = MemBackend::new(512);
    let config = Config::parse(
        "[daemon]\nworkers = 2\n\
         [tenant edge]\nlocal = fc00::1\nlisten = [::1]:44200\npeer = 1 [::1]:44300\n\
         budget = 1000000\nroute = ::/0 dev 1",
    )
    .unwrap();
    let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("starts");
    let shared = daemon.shared();

    // First scrape opens the rate window: no history yet, rate is 0.
    let first = shared.render_metrics();
    assert_eq!(metric_value(&first, "srv6d_cost_rate{tenant=\"edge\",slot=\"0\"}"), 0.0);

    for flow in 0..64 {
        assert!(mem.inject("edge", 0, &frame_to("2001:db8:f::1", flow)));
    }
    service_until_processed(&mut daemon, 0, 64);
    std::thread::sleep(Duration::from_millis(20));

    let metrics = shared.render_metrics();
    let rate = metric_value(&metrics, "srv6d_cost_rate{tenant=\"edge\",slot=\"0\"}");
    assert!(rate > 0.0, "cost accrued this window must show as a positive rate: {metrics}");
    let headroom = metric_value(&metrics, "srv6d_budget_headroom{tenant=\"edge\",slot=\"0\"}");
    assert!(headroom < 1_000_000.0, "headroom = budget - rate: {metrics}");
    assert!((headroom - (1_000_000.0 - rate)).abs() < 1e-6, "{headroom} vs {rate}");

    // No `pin =` key: both shards report the -1 sentinels.
    for shard in 0..2 {
        assert_eq!(metric_value(&metrics, &format!("srv6d_shard_pinned_core{{shard=\"{shard}\"}}")), -1.0);
        assert_eq!(metric_value(&metrics, &format!("srv6d_shard_numa_node{{shard=\"{shard}\"}}")), -1.0);
    }
    daemon.drain();
}
