#!/usr/bin/env python3
"""Perf-regression gate over bench JSON artifacts.

Compares a PR's BENCH_*.json artifacts against the merge-base's and
fails on:

  * wall-clock regression beyond --wall-tolerance (default 30%), only
    when both runs measured the same workload (identical row-name sets
    and job counts) and the baseline wall is above --wall-floor — a
    changed instance list or a 3 ms wall is noise, not a regression;
  * ANY increase in a deterministic search-work counter
    (``exact_cc.nodes`` in metrics.counters when the workload is
    identical, and per-row ``nodes``/``search_nodes`` fields matched
    by name regardless).  Node counts are exact and jobs-invariant, so
    even a +1 increase is a real search regression, not timer jitter.
    Stealing-driver counters (``exact_cc.steal_*``, per-row
    ``steal_nodes``) are schedule-dependent and never gated;
  * throughput collapse in the load-replay artifact (``load``): its
    ``fits.qps`` dropping more than --qps-tolerance (default 30%)
    below the baseline.  Wall clock is NOT compared for ``load`` —
    its wall is dominated by the fixed request count, so qps is the
    honest signal there.

Artifacts present on only one side are reported and skipped: the first
instrumented run has no baseline, and removed experiments have no PR
side.  Baselines without counters (older schema) skip the counter
check only.

If the baseline side could not be produced because the merge-base
itself failed to build, CI drops a ``BASE_BUILD_FAILED`` marker file
into BASE_DIR; the gate then exits 3 with a message naming the base
commit instead of mistaking the empty directory for "no artifacts".

Usage:
  perf_gate.py BASE_DIR PR_DIR [--wall-tolerance 0.30] [--wall-floor 0.05]
               [--qps-tolerance 0.30]

Exit status: 0 no regression, 1 regression, 2 usage/IO error,
3 merge-base build failed (no baseline to compare against).
"""

import argparse
import glob
import json
import os
import sys


def load_artifacts(dirname):
    arts = {}
    for path in sorted(glob.glob(os.path.join(dirname, "BENCH_*.json"))):
        with open(path) as fh:
            art = json.load(fh)
        exp = art.get("experiment") or os.path.basename(path)
        # The differential fuzzer ("check") is a correctness tier, not a
        # benchmark: its wall clock scales with --count/--budget and its
        # counters track fuzzed cases, so it is never perf-gated.  The
        # serve daemon's smoke artifacts ("serve") are likewise
        # cache-warmth checks whose timings depend on daemon scheduling,
        # not kernel speed.
        if exp.startswith("check") or exp.startswith("serve"):
            continue
        arts[exp] = art
    return arts


def row_names(art):
    names = []
    for row in art.get("rows") or []:
        if isinstance(row, dict):
            names.append(row.get("function") or row.get("bench") or "?")
    return sorted(names)


def row_nodes(art):
    """Deterministic per-row node counts, keyed by row name."""
    out = {}
    for row in art.get("rows") or []:
        if not isinstance(row, dict):
            continue
        name = row.get("function") or row.get("bench")
        nodes = row.get("search_nodes", row.get("nodes"))
        if name is not None and isinstance(nodes, int):
            out[name] = nodes
    return out


def counter(art, key):
    metrics = art.get("metrics") or {}
    counters = metrics.get("counters") or {}
    value = counters.get(key)
    return value if isinstance(value, int) else None


def fit(art, key):
    fits = art.get("fits") or {}
    value = fits.get(key)
    return value if isinstance(value, (int, float)) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base_dir")
    parser.add_argument("pr_dir")
    parser.add_argument("--wall-tolerance", type=float, default=0.30,
                        help="allowed fractional wall-clock increase")
    parser.add_argument("--wall-floor", type=float, default=0.05,
                        help="skip wall comparison below this baseline (s)")
    parser.add_argument("--qps-tolerance", type=float, default=0.30,
                        help="allowed fractional load-replay qps drop")
    args = parser.parse_args()

    marker = os.path.join(args.base_dir, "BASE_BUILD_FAILED")
    if os.path.exists(marker):
        with open(marker) as fh:
            detail = fh.read().strip()
        print("error: merge-base failed to build — no baseline artifacts "
              "to gate against.", file=sys.stderr)
        if detail:
            print(f"  {detail}", file=sys.stderr)
        print("  This is a problem with the base commit, not this PR; "
              "fix the base (or rebase) and re-run.", file=sys.stderr)
        return 3

    base = load_artifacts(args.base_dir)
    pr = load_artifacts(args.pr_dir)
    if not pr:
        print(f"error: no BENCH_*.json artifacts in {args.pr_dir}",
              file=sys.stderr)
        return 2

    failures = []
    for exp in sorted(set(base) | set(pr)):
        if exp not in base:
            print(f"[{exp}] new on PR side, no baseline — skipping")
            continue
        if exp not in pr:
            print(f"[{exp}] present only in baseline — skipping")
            continue
        b, p = base[exp], pr[exp]
        if b.get("status") != "ok" or p.get("status") != "ok":
            print(f"[{exp}] non-ok status (base={b.get('status')}, "
                  f"pr={p.get('status')}) — skipping comparisons")
            continue

        same_workload = (row_names(b) == row_names(p)
                         and b.get("jobs") == p.get("jobs"))

        # Load replay: throughput floor on fits.qps, wall not compared
        # (the run processes a fixed request count, so wall is 1/qps and
        # would double-count the same signal with a looser tolerance).
        if exp == "load":
            bq, pq = fit(b, "qps"), fit(p, "qps")
            if not same_workload:
                print(f"[{exp}] workload changed (rows or jobs differ) — "
                      "qps comparison skipped")
            elif bq is None or pq is None:
                print(f"[{exp}] fits.qps absent on "
                      f"{'base' if bq is None else 'pr'} side — qps check "
                      "skipped")
            elif bq <= 0.0:
                print(f"[{exp}] non-positive baseline qps — skipped")
            else:
                ratio = pq / bq
                verdict = "FAIL" if ratio < 1.0 - args.qps_tolerance else "ok"
                print(f"[{exp}] qps {bq:.1f} -> {pq:.1f} "
                      f"({(ratio - 1.0) * 100.0:+.1f}%) {verdict}")
                if verdict == "FAIL":
                    failures.append(
                        f"{exp}: throughput {bq:.1f} -> {pq:.1f} qps drops "
                        f"more than {args.qps_tolerance * 100.0:.0f}%")
            continue

        # Wall clock: only comparable when the workload is identical.
        bw, pw = b.get("wall_s"), p.get("wall_s")
        if not same_workload:
            print(f"[{exp}] workload changed (rows or jobs differ) — "
                  "wall comparison skipped")
        elif not (isinstance(bw, (int, float)) and isinstance(pw, (int, float))):
            print(f"[{exp}] missing wall_s — wall comparison skipped")
        elif bw < args.wall_floor:
            print(f"[{exp}] baseline wall {bw:.3f}s below floor — skipped")
        else:
            ratio = pw / bw
            verdict = "FAIL" if ratio > 1.0 + args.wall_tolerance else "ok"
            print(f"[{exp}] wall {bw:.3f}s -> {pw:.3f}s "
                  f"({(ratio - 1.0) * 100.0:+.1f}%) {verdict}")
            if verdict == "FAIL":
                failures.append(
                    f"{exp}: wall-clock {bw:.3f}s -> {pw:.3f}s exceeds "
                    f"+{args.wall_tolerance * 100.0:.0f}% tolerance")

        # Search-node counters: deterministic, any increase fails — but
        # only on an identical workload.  The counter sums nodes over
        # every instance in the run, so a changed instance list moves
        # it for reasons that are not a search regression (the per-row
        # check below still compares every instance present on both
        # sides by name).  Stealing-driver counters (exact_cc.steal_*)
        # are schedule-dependent and never gated.
        bn, pn = counter(b, "exact_cc.nodes"), counter(p, "exact_cc.nodes")
        if not same_workload:
            print(f"[{exp}] workload changed — exact_cc.nodes total "
                  "skipped (per-row nodes still checked)")
        elif bn is None or pn is None:
            print(f"[{exp}] exact_cc.nodes counter absent on "
                  f"{'base' if bn is None else 'pr'} side — counter check "
                  "skipped")
        else:
            verdict = "FAIL" if pn > bn else "ok"
            print(f"[{exp}] exact_cc.nodes {bn} -> {pn} {verdict}")
            if verdict == "FAIL":
                failures.append(f"{exp}: exact_cc.nodes grew {bn} -> {pn}")

        br, prw = row_nodes(b), row_nodes(p)
        for name in sorted(set(br) & set(prw)):
            if prw[name] > br[name]:
                print(f"[{exp}] row '{name}' nodes {br[name]} -> "
                      f"{prw[name]} FAIL")
                failures.append(
                    f"{exp}/{name}: nodes grew {br[name]} -> {prw[name]}")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
