#!/usr/bin/env python3
"""Repository benchmark: paper reproduction, 32k-node scale run and
small-system engine run (see perfbench/README.md).

Builds mcs_bench (Release) from the checkout, runs one workload or
all of them, checks the simulated outputs against perfbench/pins.json,
prints every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the per-layer ones.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload scale_32k --seed 7 --seconds 20
    python3 perfbench/run.py --workload paper_repro --trace 1
    python3 perfbench/run.py --print-pins         # outputs in pins.json form

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build), working files to .bench_work.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["paper_repro", "scale_32k", "small_hetero"]
DEFAULT_SEED = 20060814
RUN_TIMEOUT_S = 170

# End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics that are exact counts and must repeat between runs.
EXACT_LAYER_COUNTS = [
    "sim.simulator.events", "sim.simulator.worms", "sim.simulator.generated",
    "sim.event_queue.depth_max", "sim.engine.waiting_max",
    "sim.layout.route_hit_frac", "sim.layout.route_memo_bytes",
    "exp.result_cache.bytes", "exp.result_cache.hit_frac",
    "exp.checkpoint.bytes",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build mcs_bench; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no mcs sources next to perfbench/; "
                         "run from a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "mcs_bench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "mcs_bench"


def run_bench(program, workload, seed, seconds, trace):
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scenario-dir", str(ROOT / "scenarios"),
           "--work-dir", str(ROOT / ".bench_work" / workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: mcs_bench failed on {workload} "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def check(raw, pin):
    """Per-iteration failure reasons: errors, broken invariants, outputs
    that differ from the pin (or, for an unpinned seed, from the first
    completed iteration: same seed, same outputs)."""
    iterations = raw["iterations"]
    reference = pin["outputs"] if pin else next(
        (it["outputs"] for it in iterations if not it["error"]), None)
    reasons = []
    for it in iterations:
        why = []
        if it["error"]:
            why.append("error: " + it["error"])
        why += it["violations"]
        if not it["error"] and it["outputs"] != reference:
            why.append(f"outputs {it['outputs']} != expected {reference}")
        reasons.append(why)
    if pin and raw["layers"]:
        for name, value in pin.get("layer_counts", {}).items():
            if raw["layers"].get(name) != value:
                reasons[0].append(f"layer count {name}={raw['layers'].get(name)}"
                                  f" != pinned {value}")
    return reasons


def evaluate(raw, pin, trace, per_layer_units):
    reasons = check(raw, pin)
    attempted = len(reasons)
    failed = sum(1 for r in reasons if r)
    ok_its = [it for it in raw["iterations"]
              if not it["traced"] and not it["error"]]
    if not ok_its:
        raise SystemExit(f"perfbench: every {raw['workload']} iteration "
                         f"failed: {raw['iterations'][0]['error']}")
    if trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit in per_layer_units.items()}
    else:
        values = {
            "wall_s": statistics.median(it["wall_s"] for it in ok_its),
            "cpu_s": statistics.median(it["cpu_s"] for it in ok_its),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, reasons


def report(workload, raw, result, reasons, pinned):
    its = [it for it in raw["iterations"]
           if not it["traced"] and not it["error"]]
    print(f"== {workload}  seed {raw['seed']}  threads {raw['threads']}  "
          f"build {raw['build_type']}  outputs "
          f"{'pinned' if pinned else 'unpinned (determinism + invariants)'}")
    for name, m in result["metrics"].items():
        extra = ""
        if name in ("wall_s", "cpu_s"):
            vals = sorted(it[name] for it in its)
            extra = f"   median of {len(vals)}, range {vals[0]:.4f}..{vals[-1]:.4f}"
        elif name == "setup_s":
            extra = f"   median of {len(raw['setup_s'])}"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{extra}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:>16.6g} fraction   "
          f"{result['failed']} of {result['attempted']} runs")
    if raw["layers"]:
        layers = raw["layers"]
        print(f"  tracing overhead: traced wall {layers['trace.traced_wall_s']:.4f} s"
              f" vs untraced median {layers['trace.untraced_wall_s']:.4f} s"
              f" (ratio {layers['trace.overhead_ratio']:.4f})")
    for i, why in enumerate(reasons):
        for w in why:
            print(f"  FAILED run {i}: {w}")


def pin_record(raw):
    record = {"outputs": raw["iterations"][0]["outputs"]}
    if raw["layers"]:
        record["layer_counts"] = {
            k: v for k, v in raw["layers"].items() if k in EXACT_LAYER_COUNTS}
    return record


def main():
    spec = bench_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--print-pins", action="store_true",
                    help="print this run's outputs in pins.json form")
    ap.add_argument("--out", help="append one JSON record per workload here "
                    "(input of perfbench/compare.py)")
    args = ap.parse_args()

    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(BENCH_DIR / "pins.json") as f:
        pins = json.load(f)
    program = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    new_pins = {}
    for workload in workloads:
        raw = run_bench(program, workload, args.seed, args.seconds,
                         args.trace)
        pin = pins.get(str(args.seed), {}).get(workload)
        result, reasons = evaluate(raw, pin, args.trace, per_layer_units)
        report(workload, raw, result, reasons, pin is not None)
        results[workload] = result
        new_pins[workload] = pin_record(raw)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": args.seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
    if args.print_pins:
        print(json.dumps({str(args.seed): new_pins}, indent=2))

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
