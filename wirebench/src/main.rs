//! wirebench — one wire-to-wire and per-layer benchmark for srv6d, the
//! worker pool and End.BPF.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload fwd_fib100k --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path wirebench/Cargo.toml -- --self-test
//! ```
//!
//! A run builds the workload's seeded input, brings the system up several
//! times (set-up time is the median), then measures a closed loop
//! (throughput) and two open loops at frozen light and heavy rates
//! (latency from each frame's due time to egress). Every egress frame is
//! checked against the interpreter oracle afterwards. The last stdout line
//! is one JSON object: `correct`, `attempted` (frames offered), `failed`
//! (frames missing, refused or wrong, plus stray egress frames) and the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics.

mod drive;
mod layers;
mod oracle;
mod trace;
mod workload;

use drive::{bring_up, Fault, LoadGen};
use ebpf_vm::program::ExecTier;
use seg6_core::DropReason;
use std::time::Duration;
use trace::Tracer;
use workload::Kind;

/// Frozen open-loop rates in frames per second, per workload, from the
/// closed-loop throughput measured at the commit that introduced the
/// benchmark on the host in `README.md`. Light is ~10% of it, but at most
/// ~65k/s: one poll pass costs ~10 us, and above ~100k/s frames start to
/// share passes, where p50 jumps between runs as the host's speed swings.
/// Heavy is 30-33%, clear of that step on `fwd_fib100k` (~37%) and of the
/// open loop's knee, which sits below the closed loop's throughput
/// because the open loop hands over smaller bursts. `README.md` has the
/// measurements.
fn rates(kind: Kind) -> (f64, f64) {
    match kind {
        Kind::FwdFib100k => (52_000.0, 160_000.0),
        Kind::BpfInplace => (60_000.0, 500_000.0),
        Kind::BpfResize => (65_000.0, 200_000.0),
    }
}

/// Processes per run. Back-to-back processes on the same input differed
/// by up to ~20% in throughput and latency while staying steady within
/// themselves (a per-process effect, most likely memory layout); a run
/// takes the median of its metrics over this many processes, each
/// measuring an equal share of the time.
const PARTS: usize = 5;
/// Set-ups per process; the process reports their median.
const SETUP_REPS: usize = 3;
/// Measurement rounds per process; each metric is the median over rounds.
const ROUNDS: usize = 10;
/// Frames and passes of the per-layer replays.
const REPLAY_FRAMES: u64 = 8192;
const REPLAY_PASSES: usize = 3;
/// Spans kept in memory for the trace file (~100 bytes each on disk).
const SPAN_CAP: usize = 50_000;

/// Frames a run of `seconds` is expected to offer at most, for the digest
/// table's up-front reservation: far above any rate one worker reaches.
fn frame_budget(seconds: f64) -> usize {
    ((seconds + 2.0) * 5e6) as usize
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Measure in this process (set on the per-part child processes).
    part: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: wirebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       wirebench --self-test",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Option<Args> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut part = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => trace = Some(value == "1"),
            "--part" => part = value == "1",
            _ => return None,
        }
    }
    Some(Args { kind: kind?, seed: seed?, seconds: seconds?, trace: trace?, part })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    read_file("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_fingerprint() -> String {
    let cpu = read_file("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = read_file("/proc/sys/kernel/osrelease");
    format!("cpu=\"{cpu}\" nproc={nproc} kernel={} rustc=\"{}\"", kernel.trim(), env!("WIREBENCH_RUSTC"))
}

const DROP_REASONS: [(DropReason, &str); 9] = [
    (DropReason::Malformed, "malformed"),
    (DropReason::NoSrh, "no_srh"),
    (DropReason::SegmentsLeftZero, "segments_left_zero"),
    (DropReason::DecapFailed, "decap_failed"),
    (DropReason::BpfDrop, "bpf_drop"),
    (DropReason::BpfError, "bpf_error"),
    (DropReason::SrhValidationFailed, "srh_validation_failed"),
    (DropReason::NoRoute, "no_route"),
    (DropReason::HopLimitExceeded, "hop_limit_exceeded"),
];

/// The traced closed-loop slices of a run, summed.
#[derive(Default)]
struct Rounds {
    pps: Vec<f64>,
    delivered: u64,
    elapsed: Duration,
    busy_pumps: u64,
    tx_drops: u64,
}

impl Rounds {
    fn add(&mut self, c: drive::Closed) {
        self.pps.push(c.pps);
        self.delivered += c.delivered;
        self.elapsed += c.elapsed;
        self.busy_pumps += c.busy_pumps;
        self.tx_drops += c.tx_drops;
    }
}

/// Metrics in print order.
struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), if value.is_finite() { value } else { 0.0 }, unit.to_string()));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--self-test") {
        std::process::exit(self_test());
    }
    let args = parse_args().unwrap_or_else(|| usage());
    if args.trace || args.part {
        run(&args);
    } else {
        run_parts(&args);
    }
}

/// One parsed result line of a part process.
struct PartResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Parses the result line this program prints (a fixed shape, so a small
/// scanner does).
fn parse_result(line: &str) -> Option<PartResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let end = line[at..].find([',', '}'])?;
        Some(&line[at..at + end])
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\":{")? + 11..];
    for entry in body.split("},").filter(|e| e.contains("\"value\":")) {
        let name = entry.split('"').nth(1)?.to_string();
        let value = entry.split("\"value\":").nth(1)?.split(',').next()?.parse().ok()?;
        let unit = entry.split("\"unit\":\"").nth(1)?.split('"').next()?.to_string();
        metrics.push((name, value, unit));
    }
    Some(PartResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Runs `PARTS` measuring processes one after another, each for an equal
/// share of the time on the same seeded input, and reports each metric's
/// median over them. Any part failing to report fails the run.
fn run_parts(args: &Args) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("wirebench: cannot locate own executable: {e}");
        std::process::exit(1)
    });
    let mut parts = Vec::with_capacity(PARTS);
    for i in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.kind.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string(), "--trace", "0", "--part", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .unwrap_or_else(|e| {
                eprintln!("wirebench: cannot start part {i}: {e}");
                std::process::exit(1)
            });
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("[part {i}] {line}");
        }
        match (out.status.success(), parse_result(last)) {
            (true, Some(result)) => parts.push(result),
            _ => {
                eprintln!("wirebench: part {i} failed ({})", out.status);
                std::process::exit(1)
            }
        }
    }
    let mut m = Metrics(Vec::new());
    for (name, _, unit) in &parts[0].metrics {
        let values: Vec<f64> = parts
            .iter()
            .filter_map(|p| p.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v))
            .collect();
        m.put(name.clone(), median(&values), unit);
    }
    let correct = parts.iter().all(|p| p.correct);
    let attempted: u64 = parts.iter().map(|p| p.attempted).sum();
    let failed: u64 = parts.iter().map(|p| p.failed).sum();
    println!("fail_ratio={}", failed as f64 / attempted.max(1) as f64);
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        m.json()
    );
}

fn run(args: &Args) {
    let kind = args.kind;
    let seconds = args.seconds;
    let (light_pps, heavy_pps) = rates(kind);
    println!("host: {}", host_fingerprint());
    let input = workload::input(kind, args.seed);
    println!(
        "workload {}: seed={} fib_routes={} flows={} templates={} payload={} dst_repeat_ratio={:.4} \
         programs=[{}] window={} light={light_pps}/s heavy={heavy_pps}/s workers=1",
        kind.name(),
        args.seed,
        input.routes.len(),
        input.flow_count(),
        input.templates.len(),
        input.payload_mix,
        input.dst_repeat_ratio(),
        input.programs.join(", "),
        kind.window(),
    );
    println!("why: {}", kind.why());

    // Set-up: from in-memory config (or programs) to the first frame out,
    // several times; the last instance serves the measured phases.
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut start_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let setup = bring_up(kind, &input, 1024);
        let mut load = LoadGen::new(&input, setup.sut, kind.window(), Fault::None, frame_budget(seconds));
        load.first_packet();
        setup_s.push(setup.began.elapsed().as_secs_f64());
        parse_ms.push(setup.parse_ns as f64 / 1e6);
        start_ms.push(setup.start_ns as f64 / 1e6);
        load_ms.push(setup.load_ns as f64 / 1e6);
        kept = Some((load, setup.built));
    }
    let (mut load, built) = kept.expect("at least one set-up");

    // Measurement: ROUNDS rounds, each a closed-loop slice and a light and
    // a heavy open-loop slice (plus a traced closed-loop slice in a traced
    // run). Interleaving spreads every metric's samples over the whole
    // run, so a slow stretch of the host hits all of them alike; each
    // metric is the median over rounds.
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    load.closed_loop(Duration::from_secs_f64(seconds * 0.05), None);
    let allocs0 = load.sut.pool().buf_pool().allocations();
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut closed_pps = Vec::new();
    let mut traced = Rounds::default();
    let mut light = drive::Open::default();
    let mut heavy = drive::Open::default();
    let closed_share = if args.trace { 0.20 } else { 0.40 };
    for _ in 0..ROUNDS {
        closed_pps.push(load.closed_loop(slice(closed_share), None).pps);
        if args.trace {
            traced.add(load.closed_loop(slice(0.20), Some(&mut tracer)));
        }
        load.open_loop(light_pps, slice(0.25), &mut light);
        load.open_loop(heavy_pps, slice(0.30), &mut heavy);
    }
    light.finish();
    heavy.finish();
    let allocations = load.sut.pool().buf_pool().allocations() - allocs0;
    // The checker's per-frame records grow with the frames offered, so a
    // faster system would read as a fatter one: take them out.
    let records = load.checker.digests.len() * 8
        + (light.all.len() + light.late.len() + heavy.all.len() + heavy.late.len()) * 4;
    let rss_mb = peak_rss_mb() - records as f64 / (1024.0 * 1024.0);
    let rejected = load.sut.pool().rejected();
    let over_budget = load.sut.pool().rejected_over_budget();

    // The oracle: a fresh datapath, every program on the interpreter.
    let mut oracle_dp = match load.sut.daemon() {
        Some(daemon) => workload::datapath_from_config(daemon.config()),
        None => workload::build_pool_datapath(kind, &input, Some(ExecTier::Interp)).dp,
    };
    let (verdicts, oracle_stats) =
        oracle::verify(&input, load.next_seq, &load.checker, &load.refused, &mut oracle_dp);
    let attempted = load.next_seq;
    let failed = verdicts.failed();
    let fail_ratio = failed as f64 / attempted as f64;
    let mut correct = failed == 0;

    let throughput = median(&closed_pps);
    println!(
        "closed loop, window {}: {throughput:.0} pkt/s (median of rounds {:?})",
        kind.window(),
        closed_pps.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    for (name, open, rate) in [("light", &light, light_pps), ("heavy", &heavy, heavy_pps)] {
        println!(
            "open loop {name} @ {rate}/s: {} samples, p50 {:.2} us, p90 {:.2} us (median of rounds); \
             tail.lat_p99_us.{name}={:.2} tail.lat_p999_us.{name}={:.2} harness.gen_late_p99_us.{name}={:.2} \
             gen_late_max_us={:.1} rounds_p50={:?} rounds_p90={:?}",
            open.all.len(),
            median(&open.p50_us),
            median(&open.p90_us),
            drive::pct(&open.all, 0.99) / 1e3,
            drive::pct(&open.all, 0.999) / 1e3,
            drive::pct(&open.late, 0.99) / 1e3,
            open.late.last().map_or(0.0, |&v| f64::from(v) / 1e3),
            open.p50_us,
            open.p90_us,
        );
    }
    println!(
        "oracle: offered={attempted} matched={} dropped={} missing={} wrong={} refused={} extra={} \
         lost_in_flight={} not_forwarded={} fail_ratio={fail_ratio}",
        verdicts.matched,
        verdicts.dropped,
        verdicts.missing,
        verdicts.wrong,
        verdicts.refused,
        verdicts.extra,
        load.lost,
        load.not_forwarded
    );

    let mut m = Metrics(Vec::new());
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("throughput_pps", throughput, "1/s");
        m.put("lat_p50_us.light", median(&light.p50_us), "us");
        m.put("lat_p90_us.light", median(&light.p90_us), "us");
        m.put("lat_p50_us.heavy", median(&heavy.p50_us), "us");
        m.put("lat_p90_us.heavy", median(&heavy.p90_us), "us");
        m.put("peak_rss_mb", rss_mb, "MiB");
    } else {
        let daemon = load.sut.daemon().is_some();
        // Per-layer replays on the same seeded frames.
        let (mut dp, end_bpf) = match load.sut.daemon() {
            Some(d) => (workload::datapath_from_config(d.config()), Default::default()),
            None => {
                let b = workload::build_pool_datapath(kind, &input, None);
                (b.dp, b.end_bpf)
            }
        };
        let replay = layers::replay(&input, &mut dp, &end_bpf, REPLAY_FRAMES, REPLAY_PASSES, &mut tracer);
        let pool_only = daemon.then(|| {
            layers::pool_replay(&input, &dp, REPLAY_FRAMES, drive::BURST, REPLAY_PASSES, &mut tracer)
        });
        let per = |name: &str| tracer.per_item(name);
        let (ingest_ns, flush_ns, spawn_ms) = match pool_only {
            Some(p) => (p.ingest_ns, p.flush_ns, p.spawn_ms),
            None => (per("seg6_runtime.enqueue_bytes_all"), per("seg6_runtime.flush"), median(&start_ms)),
        };
        let service_ns = per("srv6d.service");
        let busy = traced.busy_pumps.max(1) as f64;
        let per_pump =
            if daemon { tracer.total("srv6d.service").1 } else { tracer.total("seg6_runtime.flush").1 };
        let gen_ns = per("harness.gen");
        let inject_ns = gen_ns + per("harness.inject");
        let egress_ns = per("harness.drain_egress") + per("harness.check");
        let e2e_ns = traced.elapsed.as_nanos() as f64 / traced.delivered.max(1) as f64;
        let srv6d_self = if daemon { service_ns - ingest_ns - flush_ns } else { 0.0 };
        let handoff_ns = flush_ns - replay.process_ns;
        let gap = e2e_ns - (inject_ns + srv6d_self + ingest_ns + replay.process_ns + handoff_ns + egress_ns);

        // Layer times that only some workloads have stay out of the result
        // line, where a constant 0 would read as a frozen time; they are
        // printed below with the rest.
        let mut only = Metrics(Vec::new());
        m.put("netpkt.parse_ns", replay.parse_ns, "ns");
        m.put("netpkt.rss_hash_ns", replay.rss_hash_ns, "ns");
        m.put("seg6_core.fib_lookup_ns", replay.fib_lookup_ns, "ns");
        m.put("seg6_core.process_ns", replay.process_ns, "ns");
        m.put("seg6_core.process_self_ns", replay.process_self_ns, "ns");
        only.put("seg6_core.end_bpf_ns", replay.end_bpf_ns, "ns");
        only.put("seg6_core.static_end_ns", replay.static_end_ns, "ns");
        only.put("seg6_core.end_bpf_wrapper_self_ns", replay.end_bpf_ns - replay.exec_end_ns, "ns");
        only.put("seg6_core.lwt_bpf_ns", replay.lwt_bpf_ns, "ns");
        only.put("seg6_core.lwt_bpf_wrapper_self_ns", replay.lwt_bpf_ns - replay.exec_lwt_ns, "ns");
        for (reason, name) in DROP_REASONS {
            m.put(format!("seg6_core.drops.{name}"), oracle_stats.dropped_for(reason) as f64, "count");
        }
        m.put("seg6_core.dst_repeat_ratio", input.dst_repeat_ratio(), "ratio");
        only.put("ebpf_vm.exec_ns", replay.exec_ns, "ns");
        only.put("ebpf_vm.load_ms", median(&load_ms), "ms");
        let progs = built.as_ref().map_or(&[][..], |b| &b.progs[..]);
        let natives: Vec<_> = progs.iter().filter_map(|p| p.native().ok().flatten()).collect();
        m.put(
            "ebpf_vm.native_code_bytes",
            natives.iter().map(|n| n.code_len()).sum::<usize>() as f64,
            "bytes",
        );
        m.put("ebpf_vm.spills", natives.iter().map(|n| n.debug_info().spills).sum::<u32>() as f64, "count");
        m.put(
            "ebpf_vm.elided_checks",
            natives.iter().map(|n| n.debug_info().elided_checks).sum::<u32>() as f64,
            "count",
        );
        m.put(
            "ebpf_vm.inlined_helpers",
            natives.iter().map(|n| n.debug_info().inlined_helpers).sum::<u32>() as f64,
            "count",
        );
        m.put("seg6_runtime.ingest_ns", ingest_ns, "ns");
        m.put("seg6_runtime.flush_wait_ns", flush_ns, "ns");
        m.put("seg6_runtime.handoff_ns", handoff_ns, "ns");
        m.put("seg6_runtime.pkts_per_flush", per_pump as f64 / busy, "count");
        m.put("seg6_runtime.spawn_ms", spawn_ms, "ms");
        m.put("seg6_runtime.rejected", rejected as f64, "count");
        m.put("seg6_runtime.rejected_over_budget", over_budget as f64, "count");
        m.put("seg6_runtime.arena_allocations", allocations as f64, "count");
        only.put("srv6d.service_ns", service_ns, "ns");
        only.put("srv6d.self_ns", srv6d_self, "ns");
        m.put("srv6d.rx_per_pass", if daemon { per_pump as f64 / busy } else { 0.0 }, "count");
        m.put("srv6d.tx_drops", traced.tx_drops as f64, "count");
        only.put("srv6d.config_parse_ms", median(&parse_ms), "ms");
        only.put("srv6d.start_ms", if daemon { median(&start_ms) } else { 0.0 }, "ms");
        m.put("harness.inject_ns", inject_ns, "ns");
        m.put("harness.egress_ns", egress_ns, "ns");
        m.put("harness.check_ns", replay.check_ns, "ns");
        let late_p99 = drive::pct(&light.late, 0.99).max(drive::pct(&heavy.late, 0.99)) / 1e3;
        m.put("harness.gen_late_p99_us", late_p99, "us");
        m.put("harness.trace_overhead", throughput / median(&traced.pps), "ratio");
        m.put("harness.fail_ratio", fail_ratio, "ratio");
        m.put("trace.e2e_ns", e2e_ns, "ns");
        m.put("trace.gap_ns", gap, "ns");

        let problems = tracer.check();
        for p in problems.iter().take(5) {
            println!("span check: {p}");
        }
        correct &= problems.is_empty();
        let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("trace-{}.jsonl", kind.name()));
        match tracer.write(&path) {
            Ok(()) => println!(
                "trace: {} spans kept ({} past the cap) in {}; span check {}",
                tracer.kept(),
                tracer.dropped(),
                path.display(),
                if problems.is_empty() { "ok" } else { "FAILED" }
            ),
            Err(e) => println!("trace: not written ({e})"),
        }
        for (name, value, unit) in m.0.iter().chain(&only.0) {
            println!("  {name} = {value:.3} {unit}");
        }
    }
    drop(load);
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        m.json()
    );
}

/// The benchmark checks its own checker: each injected fault must raise
/// the failure count, a clean run and a frame the datapath drops by
/// design must not, and the span checker must catch a child outside its
/// parent. Returns the process exit code.
fn self_test() -> i32 {
    let kind = Kind::BpfInplace;
    let input = workload::input(kind, 7);
    let run = |input: &workload::Input, fault: Fault, queue_depth: usize| {
        let setup = bring_up(kind, input, queue_depth);
        let mut load = LoadGen::new(input, setup.sut, kind.window(), fault, frame_budget(1.0));
        load.first_packet();
        load.closed_loop(Duration::from_millis(300), None);
        let mut oracle_dp = workload::build_pool_datapath(kind, input, Some(ExecTier::Interp)).dp;
        let (v, stats) = oracle::verify(input, load.next_seq, &load.checker, &load.refused, &mut oracle_dp);
        (v.failed() as f64 / load.next_seq as f64, v, stats)
    };
    let mut ok = true;
    let mut expect = |what: &str, pass: bool, detail: String| {
        println!("self-test {what}: {} ({detail})", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    let (clean, ..) = run(&input, Fault::None, 1024);
    expect("clean run has fail_ratio 0", clean == 0.0, format!("fail_ratio={clean}"));
    let (corrupt, ..) = run(&input, Fault::CorruptByte, 1024);
    expect("one corrupted egress byte fails", corrupt > 0.0, format!("fail_ratio={corrupt}"));
    let (lost, ..) = run(&input, Fault::DropFrame, 1024);
    expect("one dropped egress frame fails", lost > 0.0, format!("fail_ratio={lost}"));
    let (full, ..) = run(&input, Fault::None, 16);
    expect("an over-full ring fails", full > 0.0, format!("fail_ratio={full}"));
    // One template (not frame 0's, which ends set-up) swapped for a frame
    // no route covers: the system and the oracle both drop it.
    let mut with_drop = workload::input(kind, 7);
    let victim = (with_drop.order[0] as usize + 1) % with_drop.templates.len();
    with_drop.templates[victim] = workload::unrouted_frame();
    let (ratio, v, stats) = run(&with_drop, Fault::None, 1024);
    let no_route = stats.dropped_for(DropReason::NoRoute);
    expect(
        "a frame dropped by design passes",
        ratio == 0.0 && v.dropped > 0 && no_route == v.dropped,
        format!("fail_ratio={ratio} dropped={} no_route={no_route}", v.dropped),
    );

    // Spans of a real traced loop and replay are well nested ...
    let setup = bring_up(kind, &input, 1024);
    let mut load = LoadGen::new(&input, setup.sut, kind.window(), Fault::None, frame_budget(1.0));
    load.first_packet();
    let mut tracer = Tracer::new(SPAN_CAP);
    load.closed_loop(Duration::from_millis(200), Some(&mut tracer));
    drop(load);
    let mut b = workload::build_pool_datapath(kind, &input, None);
    layers::replay(&input, &mut b.dp, &b.end_bpf, 1024, 1, &mut tracer);
    let problems = tracer.check();
    expect(
        "spans nest with non-negative self time",
        problems.is_empty(),
        format!("{} problems", problems.len()),
    );
    // ... and a child outside its parent is caught.
    let mut bad = Tracer::new(16);
    let parent = bad.record("parent", 100, 200, trace::ROOT, 0, 1);
    bad.record("child", 150, 250, parent, 0, 1);
    expect("a child outside its parent is caught", !bad.check().is_empty(), "synthetic".into());
    if ok {
        0
    } else {
        1
    }
}
