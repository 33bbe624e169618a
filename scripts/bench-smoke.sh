#!/usr/bin/env bash
# Smoke-runs the runtime scaling bench with tiny iteration counts and
# snapshots the rows into a BENCH_*.json file at the repo root, so every
# commit leaves a machine-readable perf data point.
#
# Usage:
#   scripts/bench-smoke.sh [output.json]
#
# Environment:
#   SMOKE_MS  measurement window per bench row, in milliseconds (default 30)
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE_MS="${SMOKE_MS:-30}"
OUT="${1:-BENCH_runtime_scaling.json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# One timestamp for the whole invocation, stamped into every row by the
# criterion shim (BENCH_UTC) and into the snapshot header below.
BENCH_UTC="$(date -u +%FT%TZ)"

# The criterion shim reads three variables: CRITERION_SMOKE_MS shrinks
# every warm-up/measurement window, CRITERION_JSON adds one BENCH_JSON
# line per bench row, and BENCH_UTC tags each row with this run's
# wall-clock time.
CRITERION_SMOKE_MS="$SMOKE_MS" CRITERION_JSON=1 BENCH_UTC="$BENCH_UTC" \
    cargo bench --bench runtime_scaling >"$raw" 2>&1 || {
    cat "$raw" >&2
    echo "bench run failed" >&2
    exit 1
}

grep -v '^BENCH_JSON ' "$raw"

rows="$(grep '^BENCH_JSON ' "$raw" | sed 's/^BENCH_JSON //' | paste -sd, -)"
if [ -z "$rows" ]; then
    echo "no BENCH_JSON rows captured" >&2
    exit 1
fi

# Regression gates: these rows must be present in every snapshot — the
# FIB scaling group (trie vs. linear scan at 10 / 1k / 100k routes), the
# ingestion-transport group (mpsc per-packet send vs. SPSC ring burst
# enqueue across the shard/burst sweep), and the tenancy group (one
# shared multi-tenant pool vs. pool-per-node across the tenant/shard
# sweep, plus the noisy-neighbor pair comparing arrival-order against
# QoS-scheduled admission under an 3:1 flood).
for row in fib_scale/trie_10 fib_scale/trie_100k fib_scale/linear_100k \
    ring_ingest/mpsc_send_1w ring_ingest/ring_burst_1w_b32 \
    ring_ingest/mpsc_send_8w ring_ingest/ring_burst_8w_b256 \
    tenant_scaling/shared_1t_1w tenant_scaling/per_node_1t_1w \
    tenant_scaling/shared_4t_4w tenant_scaling/per_node_4t_4w \
    tenant_scaling/noisy_fifo_1w tenant_scaling/noisy_qos_1w \
    srv6d_io/mem_ingest_1w srv6d_io/udp_loopback_1w \
    srv6d_io/mmsg_loopback_1w srv6d_io/udp_loopback_1w_syscalls \
    srv6d_io/mmsg_loopback_1w_syscalls \
    jit_speedup/srh_walk_interp jit_speedup/srh_walk_microop \
    jit_speedup/srh_walk_native \
    jit_speedup/end_dp_interp jit_speedup/end_dp_native \
    jit_speedup/end_x_dp_interp jit_speedup/end_x_dp_native \
    jit_speedup/end_t_dp_interp jit_speedup/end_t_dp_native \
    jit_speedup/end_scan_dp_interp jit_speedup/end_scan_dp_native; do
    if ! printf '%s' "$rows" | grep -q "\"$row\""; then
        echo "missing bench row $row in snapshot" >&2
        exit 1
    fi
done

# Execution-tier ratio gate: the native tier must beat the interpreter by
# at least MIN_JIT_SPEEDUP× on the compute-heavy VM-level row. On hosts
# without an x86-64 backend the native tier falls back to the micro-op
# interpreter; set MIN_JIT_SPEEDUP (and the MIN_DP_* knobs below)
# accordingly there.
MIN_JIT_SPEEDUP="${MIN_JIT_SPEEDUP:-3.0}"
row_ns() {
    # One object per line (split on '}'), so a row's name and its
    # ns_per_iter stay together.
    printf '%s' "$rows" | tr '}' '\n' | grep "\"$1\"" | \
        grep -o '"ns_per_iter":[0-9.]*' | head -n1 | cut -d: -f2
}
interp_ns="$(row_ns jit_speedup/srh_walk_interp || true)"
native_ns="$(row_ns jit_speedup/srh_walk_native || true)"
if [ -z "$interp_ns" ] || [ -z "$native_ns" ]; then
    echo "could not extract jit_speedup srh_walk timings" >&2
    exit 1
fi
awk -v i="$interp_ns" -v n="$native_ns" -v min="$MIN_JIT_SPEEDUP" 'BEGIN {
    ratio = i / n
    printf "jit_speedup gate: native %.1fx interpreter (minimum %.1fx)\n", ratio, min
    if (ratio < min) {
        printf "native tier too slow: %.1fx < %.1fx\n", ratio, min > "/dev/stderr"
        exit 1
    }
}'

# Datapath ratio gates: the same comparison end-to-end through the full
# datapath (SID lookup, SRH advance, context build, program run, route
# lookup). The native tier must clear MIN_DP_SPEEDUP× on the row whose
# program does substantial per-packet work: the End.BPF telemetry scan
# (end_scan_dp, ~10x on an idle host). The shipped End/End.X/End.T
# programs are a dozen instructions each — shared per-packet datapath
# work dominates both tiers, their honest ratios sit between ~1.0 and
# ~1.3 and swing by ±0.15 run-to-run on a shared host — so instead of
# gating inside the noise band they carry a MIN_DP_FLOOR non-regression
# floor that still catches a native tier that makes the datapath slower.
MIN_DP_SPEEDUP="${MIN_DP_SPEEDUP:-1.15}"
MIN_DP_FLOOR="${MIN_DP_FLOOR:-0.80}"
dp_gate() {
    name="$1" min="$2" kind="$3"
    i="$(row_ns "jit_speedup/${name}_interp" || true)"
    n="$(row_ns "jit_speedup/${name}_native" || true)"
    if [ -z "$i" ] || [ -z "$n" ]; then
        echo "could not extract jit_speedup $name timings" >&2
        exit 1
    fi
    awk -v i="$i" -v n="$n" -v min="$min" -v name="$name" -v kind="$kind" 'BEGIN {
        ratio = i / n
        printf "jit_speedup gate: %s native %.2fx interpreter (%s %.2fx)\n", name, ratio, kind, min
        if (ratio < min) {
            printf "%s native tier below the %s: %.2fx < %.2fx\n", name, kind, ratio, min > "/dev/stderr"
            exit 1
        }
    }'
}
dp_gate end_scan_dp "$MIN_DP_SPEEDUP" minimum
dp_gate end_dp "$MIN_DP_FLOOR" floor
dp_gate end_x_dp "$MIN_DP_FLOOR" floor
dp_gate end_t_dp "$MIN_DP_FLOOR" floor

# Socket-backend ratio gate: recvmmsg/sendmmsg must move the same
# traffic in at least MIN_MMSG_SYSCALL_SAVING× fewer syscalls than the
# per-datagram std backend. The syscall counts come from the daemon's
# own counters (see srv6d_io in the bench), so unlike wall-clock this
# gate is deterministic even on a loaded 1-core host.
MIN_MMSG_SYSCALL_SAVING="${MIN_MMSG_SYSCALL_SAVING:-1.3}"
udp_syscalls="$(row_ns srv6d_io/udp_loopback_1w_syscalls || true)"
mmsg_syscalls="$(row_ns srv6d_io/mmsg_loopback_1w_syscalls || true)"
if [ -z "$udp_syscalls" ] || [ -z "$mmsg_syscalls" ]; then
    echo "could not extract srv6d_io syscall rates" >&2
    exit 1
fi
awk -v u="$udp_syscalls" -v m="$mmsg_syscalls" -v min="$MIN_MMSG_SYSCALL_SAVING" 'BEGIN {
    ratio = u / m
    printf "srv6d_io gate: mmsg moves a kframe in %.1fx fewer syscalls than std (minimum %.1fx)\n", \
        ratio, min
    if (ratio < min) {
        printf "mmsg backend saves too few syscalls: %.1fx < %.1fx\n", ratio, min > "/dev/stderr"
        exit 1
    }
}'

# Provenance comes from the bench process itself: every row carries the
# parallelism it actually saw; surface the first row's value in the
# header (nproc is only the fallback for old rows without the field).
cores="$(printf '%s' "$rows" | grep -o '"host_parallelism":[0-9]*' | head -n1 | cut -d: -f2)"
[ -n "$cores" ] || cores="$(nproc 2>/dev/null || echo 1)"
cat >"$OUT" <<JSON
{
  "bench": "runtime_scaling",
  "smoke_ms": $SMOKE_MS,
  "host_parallelism": $cores,
  "git_rev": "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)",
  "timestamp": "$BENCH_UTC",
  "rows": [$rows]
}
JSON

echo "wrote $OUT ($(grep -o '"name"' "$OUT" | wc -l) rows)"
