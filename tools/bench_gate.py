#!/usr/bin/env python3
"""parpde-bench-gate: regression gate over the checked-in bench baselines.

Compares a freshly produced BENCH_rollout.json / BENCH_quant.json against the
snapshots in bench/baselines/ and fails (exit 1) when a key figure regressed.

Two kinds of fields are gated differently:

  ratios     quant speedup, health overhead, error budgets, allocation
             counts. These are machine-portable
             (both sides of each ratio ran on the same machine), so they are
             gated everywhere, including CI.
  absolute   p50/mean step milliseconds. Only meaningful against a baseline
             recorded on the same machine — CI runners are too noisy — so
             the throughput gate (>20% regression on mean step time) only
             runs under --absolute.

Ratios are still shape-dependent (a tiny grid hides less halo latency behind
less compute), so the gate refuses to compare runs whose bench flags differ
from the baseline's. The checked-in baselines are recorded at the CI
perf-smoke shape (grid=64, steps=8, warmup=2, threads=1); regenerate with

  bench_rollout_latency --grid=64 --steps=8 --warmup=2 --backend=fp32
  tools/bench_gate.py --update

When a BENCH_recovery.json (bench_recovery) sits next to the other files it
is gated too — self-referentially against the lease budget embedded in the
run itself plus exact structural outcomes (one recovery, bit-identical
frames, nothing left degraded), so it needs no checked-in baseline.
BENCH_serving.json (bench_serving) works the same way: exact structural
outcomes (coalesced-vs-solo bit identity on both backends, zero rejections,
zero buffer regrowths, real coalescing at concurrency 8) plus a coalesced
throughput floor conditioned on the machine-capability figure the run
itself measured (see gate_serving).

Usage:
  tools/bench_gate.py [--baseline-dir bench/baselines]
                      [--rollout BENCH_rollout.json] [--quant BENCH_quant.json]
                      [--recovery BENCH_recovery.json]
                      [--serving BENCH_serving.json]
                      [--absolute] [--tolerance 0.20]
  tools/bench_gate.py --update   rewrite the baselines from the given files
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def partition(doc: dict, tasks: int, ranks: int) -> dict:
    for p in doc.get("partitions", []):
        if p.get("tasks") == tasks and p.get("ranks") == ranks:
            return p
    raise KeyError(
        f"no {tasks}-task, {ranks}-rank partition in BENCH_rollout.json"
    )


class Gate:
    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.failures: list = []
        self.checked = 0

    def ratio_floor(self, label: str, current: float, baseline: float):
        """A ratio (bigger is better) may not drop more than tolerance below
        the baseline."""
        self.checked += 1
        floor = baseline * (1.0 - self.tolerance)
        if current < floor:
            self.failures.append(
                f"{label}: {current:.4f} fell below {floor:.4f} "
                f"(baseline {baseline:.4f} - {self.tolerance * 100:.0f}%)"
            )

    def ceiling(self, label: str, current: float, limit: float):
        """An absolute cost (smaller is better) against a fixed limit."""
        self.checked += 1
        if current > limit:
            self.failures.append(f"{label}: {current:.4f} exceeds {limit:.4f}")

    def exact(self, label: str, current, expected):
        self.checked += 1
        if current != expected:
            self.failures.append(f"{label}: {current!r}, expected {expected!r}")

    def time_regression(self, label: str, current: float, baseline: float):
        """Mean step time (smaller is better) may not grow more than
        tolerance over the baseline. --absolute only."""
        self.checked += 1
        limit = baseline * (1.0 + self.tolerance)
        if current > limit:
            self.failures.append(
                f"{label}: {current:.4f} ms exceeds {limit:.4f} ms "
                f"(baseline {baseline:.4f} + {self.tolerance * 100:.0f}%)"
            )


def shape_matches(gate: Gate, label: str, current: dict, baseline: dict,
                  keys: tuple) -> bool:
    """Comparing ratios across different bench shapes is meaningless; demand
    identical flags and point at --update when they drifted."""
    mismatched = [
        f"{k}: {current.get(k)!r} vs baseline {baseline.get(k)!r}"
        for k in keys
        if current.get(k) != baseline.get(k)
    ]
    if mismatched:
        gate.failures.append(
            f"{label}: bench shape differs from baseline "
            f"({'; '.join(mismatched)}) — rerun with the baseline's flags or "
            "refresh the snapshots with --update"
        )
        return False
    return True


def gate_rollout(gate: Gate, current: dict, baseline: dict, absolute: bool):
    if not shape_matches(
        gate,
        "rollout",
        current,
        baseline,
        ("grid", "steps", "warmup", "threads", "record_every", "backend"),
    ):
        return
    for tasks, ranks in ((4, 4), (16, 16), (16, 4)):
        try:
            cur = partition(current, tasks, ranks)
            base = partition(baseline, tasks, ranks)
        except KeyError as e:
            gate.failures.append(str(e))
            continue
        label = f"rollout[{tasks} tasks on {ranks} ranks]"
        gate.exact(
            f"{label}.steady_state_allocs", cur.get("steady_state_allocs"), 0
        )
        if absolute:
            gate.time_regression(
                f"{label}.mean_ms",
                cur.get("mean_ms", 0.0),
                base.get("mean_ms", 0.0),
            )
    # The always-on health monitor's acceptance bound is < 2% locally; CI
    # gates a looser 25% because sub-ms step times on shared runners put a
    # few percent of noise on every run.
    limit = 2.0 if absolute else 25.0
    gate.ceiling(
        "rollout.health_overhead_pct",
        current.get("health_overhead_pct", 0.0),
        limit,
    )


def gate_quant(gate: Gate, current: dict, baseline: dict, absolute: bool):
    if not shape_matches(
        gate,
        "quant",
        current,
        baseline,
        ("grid", "steps", "warmup", "threads", "ranks", "engine"),
    ):
        return
    gate.ratio_floor(
        "quant.speedup", current.get("speedup", 0.0), baseline.get("speedup", 0.0)
    )
    gate.ceiling(
        "quant.max_rel_l2",
        current.get("max_rel_l2", 1.0),
        current.get("error_budget", 5e-2),
    )
    gate.exact("quant.within_budget", current.get("within_budget"), True)
    if absolute:
        gate.time_regression(
            "quant.int8.mean_ms",
            current.get("int8", {}).get("mean_ms", 0.0),
            baseline.get("int8", {}).get("mean_ms", 0.0),
        )


def gate_recovery(gate: Gate, current: dict):
    """BENCH_recovery.json is self-gating: the structural outcomes are exact
    (one recovery, at least one adopted task, nothing left degraded, frames
    bit-identical), and the detection latency is bounded by the lease budget
    the run itself embedded — no baseline snapshot needed, so the gate stays
    machine-portable."""
    gate.exact("recovery.recoveries", current.get("recoveries"), 1)
    gate.exact("recovery.failed_ranks", current.get("failed_ranks"), 1)
    gate.exact("recovery.degraded_after", current.get("degraded_after"), 0)
    gate.exact("recovery.bit_identical", current.get("bit_identical"), True)
    if current.get("adopted_tasks", 0) < 1:
        gate.checked += 1
        gate.failures.append(
            f"recovery.adopted_tasks: {current.get('adopted_tasks')!r}, "
            "expected >= 1"
        )
    else:
        gate.checked += 1
    # Survivors burn the full lease budget before declaring the death; allow
    # 3x for scheduler noise on shared runners, never less than a second.
    budget_s = current.get("lease_budget_ms", 0.0) / 1e3
    gate.ceiling(
        "recovery.detection_seconds",
        current.get("detection_seconds", 0.0),
        max(1.0, 3.0 * budget_s),
    )
    # Rebalance + adoption + rollback is pure local work; it must stay well
    # under one lease budget or recovery starts racing the failure detector.
    gate.ceiling(
        "recovery.rebalance_seconds",
        current.get("rebalance_seconds", 0.0),
        max(1.0, budget_s),
    )


def gate_serving(gate: Gate, current: dict):
    """BENCH_serving.json is self-gating, like recovery: the structural
    outcomes are exact (bit-identical coalesced trajectories on both
    backends, zero rejected requests in an unsaturated queue, zero buffer
    regrowths, real coalescing at concurrency 8), and the throughput floor is
    conditioned on the machine-capability figure the run itself measured.

    batch_amortization is the plan-level per-sample speedup of one wide
    run_batched over max_batch solo runs — the ceiling coalescing can reach
    on this machine. On hosts where serving-width GEMMs already saturate the
    cores it sits near 1.0 and the floor degrades to "must not materially
    lose" (0.7x); on hosts with genuine wide-GEMM headroom the floor scales
    up to the 1.5x acceptance target (docs/serving.md, "Measured reality")."""
    backends = current.get("backends", [])
    if len(backends) < 2:
        gate.checked += 1
        gate.failures.append(
            f"serving.backends: {len(backends)} entries, expected fp32 + int8"
        )
        return
    for b in backends:
        name = b.get("backend", "?")
        label = f"serving[{name}]"
        gate.exact(f"{label}.bit_identical", b.get("bit_identical"), True)
        gate.exact(f"{label}.growth_events", b.get("growth_events"), 0)
        sweep = b.get("sweep", [])
        for entry in sweep:
            conc = entry.get("concurrency")
            for mode in ("serial", "coalesced"):
                gate.exact(
                    f"{label}.conc{conc}.{mode}.rejected",
                    entry.get(mode, {}).get("rejected"),
                    0,
                )
        at8 = next(
            (e for e in sweep if e.get("concurrency") == 8), None
        )
        if at8 is None:
            gate.checked += 1
            gate.failures.append(f"{label}: no concurrency-8 sweep entry")
            continue
        coalesced = at8.get("coalesced", {})
        # Coalescing must actually happen under 8 saturating sessions: some
        # dispatch carried >= 2 requests and the average batch is > 1.
        occupancy = coalesced.get("occupancy", [])
        gate.checked += 1
        if not any(n > 0 for n in occupancy[2:]):
            gate.failures.append(
                f"{label}.conc8.occupancy: no dispatch coalesced >= 2 "
                f"requests ({occupancy})"
            )
        gate.checked += 1
        if coalesced.get("mean_batch", 0.0) <= 1.0:
            gate.failures.append(
                f"{label}.conc8.mean_batch: "
                f"{coalesced.get('mean_batch')!r}, expected > 1.0"
            )
        # Latency sanity on both dispatch modes.
        for mode in ("serial", "coalesced"):
            stats = at8.get(mode, {})
            gate.checked += 1
            if not 0.0 < stats.get("p50_ms", 0.0) <= stats.get("p99_ms", 0.0):
                gate.failures.append(
                    f"{label}.conc8.{mode}: p50 {stats.get('p50_ms')!r} / "
                    f"p99 {stats.get('p99_ms')!r} not ordered positive"
                )
        amortization = b.get("batch_amortization", 0.0)
        floor = min(1.5, max(0.7, 0.75 * amortization))
        gate.checked += 1
        speedup = at8.get("speedup", 0.0)
        if speedup < floor:
            gate.failures.append(
                f"{label}.conc8.speedup: {speedup:.4f} below {floor:.4f} "
                f"(machine batch_amortization {amortization:.4f})"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--baseline-dir", default=os.path.join(root, "bench", "baselines")
    )
    parser.add_argument("--rollout", default="BENCH_rollout.json")
    parser.add_argument("--quant", default="BENCH_quant.json")
    parser.add_argument(
        "--recovery",
        default="BENCH_recovery.json",
        help="elastic recovery bench output; gated (self-referentially, no "
        "baseline) only when the file exists",
    )
    parser.add_argument(
        "--serving",
        default="BENCH_serving.json",
        help="serving bench output; gated (self-referentially, no baseline) "
        "only when the file exists",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression (0.20 = 20%%)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate absolute step times (same-machine baselines only)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline snapshots from the given bench files",
    )
    args = parser.parse_args()

    pairs = [
        (args.rollout, os.path.join(args.baseline_dir, "BENCH_rollout.json")),
        (args.quant, os.path.join(args.baseline_dir, "BENCH_quant.json")),
    ]

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for src, dst in pairs:
            doc = load(src)
            with open(dst, "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"baseline updated: {dst}")
        return 0

    gate = Gate(args.tolerance)
    gate_rollout(gate, load(args.rollout), load(pairs[0][1]), args.absolute)
    gate_quant(gate, load(args.quant), load(pairs[1][1]), args.absolute)
    if os.path.exists(args.recovery):
        gate_recovery(gate, load(args.recovery))
    if os.path.exists(args.serving):
        gate_serving(gate, load(args.serving))

    if gate.failures:
        print("bench_gate FAILED:", file=sys.stderr)
        for failure in gate.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"bench_gate passed: {gate.checked} figure(s) within "
        f"{args.tolerance * 100:.0f}% of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
