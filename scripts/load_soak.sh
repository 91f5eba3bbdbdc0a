#!/usr/bin/env bash
# Load-replay soak for the ccmx engine and serve daemon.
#
# Two passes over the same seeded traffic stream:
#   1. in-process — `ccmx bench load` drives the engine directly and
#      records per-kind latency SLOs plus the batched-kernel speedups.
#   2. daemon     — the identical stream replays against a live
#      2-worker `ccmx serve` over its Unix socket.
#
# Assertions: both passes exit ok (zero errors, zero timeouts, batch
# kernels agree with scalar), both emit a well-formed schema-v3
# BENCH_load.json (finite, ordered p50 <= p95 <= p99; positive qps;
# speedup rows present), and — the point of the exercise — the two
# answers digests are IDENTICAL: the daemon returned bit-for-bit the
# answers the in-process engine computed, so the wire path introduced
# zero wrong answers.
#
# Agreement alone cannot catch a changed PRNG stream or kernel answer:
# it moves both passes together.  With EXPECT_DIGEST, the shared digest
# must also equal that recorded value.
#
# The stream is a pure function of (SEED, REQUESTS), so a failure
# reproduces by re-running with the same arguments.  Defaults are
# sized for a CI smoke (<1 min); raise REQUESTS for a nightly soak.
#
# usage: scripts/load_soak.sh [SEED] [REQUESTS] [EXPECT_DIGEST]

set -euo pipefail

SEED="${1:-20260809}"
REQUESTS="${2:-150}"
EXPECT_DIGEST="${3:-}"

cd "$(dirname "$0")/.."
CCMX=_build/default/bin/ccmx.exe
command -v dune >/dev/null && dune build bin/ccmx.exe
[ -x "$CCMX" ] || { echo "load_soak: $CCMX not built" >&2; exit 1; }

workdir=$(mktemp -d /tmp/ccmx-load.XXXXXX)
daemon=""
# On failure, keep the daemon log at a stable path for CI's artifact
# upload; only a clean pass deletes everything.
cleanup() {
  status=$?
  kill $daemon 2>/dev/null || true
  if [ "$status" -ne 0 ] && [ -f "$workdir/daemon.log" ]; then
    cp -f "$workdir/daemon.log" /tmp/ccmx-load-daemon.log || true
    echo "load_soak: daemon log preserved at /tmp/ccmx-load-daemon.log" >&2
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT
sock="$workdir/ccmx.sock"

# ---------------------------------------------------------------- pass 1
echo "== pass 1: in-process replay (seed $SEED, $REQUESTS requests) =="
"$CCMX" bench load --seed "$SEED" --count "$REQUESTS" --jobs 2 \
  --json "$workdir/local"

# ---------------------------------------------------------------- pass 2
echo "== pass 2: daemon replay (2 workers) =="
( exec "$CCMX" serve --socket "$sock" --workers 2 \
    --request-timeout 10 2>"$workdir/daemon.log" ) &
daemon=$!
"$CCMX" bench load --seed "$SEED" --count "$REQUESTS" --jobs 2 \
  --socket "$sock" --json "$workdir/daemon"
kill -TERM "$daemon"
wait "$daemon" || { echo "daemon exited nonzero" >&2; exit 1; }
daemon=""

# ---------------------------------------------------------------- verify
python3 - "$workdir/local/BENCH_load.json" "$workdir/daemon/BENCH_load.json" \
  "$EXPECT_DIGEST" <<'EOF'
import json, math, sys

def load(path):
    with open(path) as fh:
        return json.load(fh)

def slo_rows(art):
    return [r for r in art["rows"] if isinstance(r, dict) and "qps" in r]

def speedup_rows(art):
    return [r for r in art["rows"] if isinstance(r, dict) and "speedup" in r]

def check(art, label):
    assert art["status"] == "ok", f"{label}: status {art['status']}: {art.get('error')}"
    rows = slo_rows(art)
    assert any(r["function"] == "all" for r in rows), f"{label}: no 'all' SLO row"
    for r in rows:
        name = f"{label}/{r['function']}"
        assert r["errors"] == 0 and r["timeouts"] == 0, \
            f"{name}: {r['errors']} errors, {r['timeouts']} timeouts"
        assert r["ok"] == r["requests"], f"{name}: ok != requests"
        p50, p95, p99 = r["p50_ms"], r["p95_ms"], r["p99_ms"]
        for k, v in (("p50", p50), ("p95", p95), ("p99", p99), ("qps", r["qps"])):
            assert isinstance(v, (int, float)) and math.isfinite(v), \
                f"{name}: {k} not finite: {v!r}"
        assert 0 <= p50 <= p95 <= p99, f"{name}: percentiles unordered {p50}/{p95}/{p99}"
        assert r["qps"] > 0, f"{name}: non-positive qps"
    sp = speedup_rows(art)
    names = {r["function"] for r in sp}
    assert "rank_batch_16x16" in names and "singular_batch_8x8" in names, \
        f"{label}: speedup rows missing: {names}"
    for r in sp:
        assert r["agree"] is True, f"{label}/{r['function']}: batch != scalar"
    fits = art["fits"]
    assert fits["qps"] > 0 and math.isfinite(fits["qps"])
    return fits["answers_digest"]

local, daemon = load(sys.argv[1]), load(sys.argv[2])
dl = check(local, "local")
dd = check(daemon, "daemon")
assert dl == dd, f"answer digests diverge: local {dl} != daemon {dd}"
expect = sys.argv[3]
assert not expect or dl == expect, \
    f"answers digest {dl} != recorded {expect}: the answers changed"
print(f"load soak ok: digests agree ({dl}), "
      f"local {local['fits']['qps']:.0f} qps, daemon {daemon['fits']['qps']:.0f} qps")
EOF

echo "load soak passed (seed $SEED, $REQUESTS requests)"
