"""Benchmark for sgc, the exact circular chromatic number solver.

One run of one workload, from the repository root:

    python3 bench/run.py --workload chi_random --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
`end_to_end` metrics of BENCHMARK.json, `--trace 1` its `per_layer` metrics,
taken from passes with span wrappers rebound into sgc's modules (see
spans.py) and alternated with untraced passes of the same inputs.

Every metric of every workload, untraced and traced, as tables:

    python3 bench/run.py --report --seed 1 --seconds 20

`--smoke` shrinks every workload so that a run takes seconds.

A run imports sgc from `src/` of the checkout and nothing else; without it
the run exits with status 2 and prints no result.  Set-up (import,
construction, input generation, rendering) is repeated SETUPS times and
reported as the median.  Passes over the same inputs repeat while the next
one is expected to end within `--seconds`; there is always at least one.
Every pass must spend the same search nodes on every instance, or the run
is marked incorrect.

Reported seconds are calibrated to a reference interpreter speed (see
clock.py), which takes out most of the host's speed swings; the raw
seconds are in the `detail` line and in the report.  Per-layer seconds are
perf_counter self times scaled by the traced passes' calibration.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from clock import SpeedClock
from spans import Tracer, per_layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 9
P90_MIN_INSTANCES = 100  # p90 needs ten samples beyond it
EXTRA_UNITS = {"verdict_s_p90": "s", "wall_raw_s": "s", "verdict_raw_s_p50": "s",
               "setup_raw_s": "s"}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fresh_sgc():
    """Import sgc from src/ anew, so that each set-up pays for the import."""
    if not (SRC / "sgc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sgc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "sgc" or k.startswith("sgc.")]:
        del sys.modules[name]
    sgc = importlib.import_module("sgc")
    if Path(sgc.__file__).resolve().parent != (SRC / "sgc").resolve():
        raise ImportError(f"sgc imported from {sgc.__file__}, not from {SRC}")
    return sgc


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail for the report)."""
    wl = WORKLOADS[name](smoke)

    setup_tracer = Tracer() if trace else None
    pass_tracer = Tracer() if trace else None
    setups = []  # (start, end)
    untraced, traced = [], []  # (start, end, outcomes) per pass
    with SpeedClock() as clock:
        for _ in range(SETUPS):
            t0 = perf_counter()
            sgc = fresh_sgc()
            with setup_tracer.installed(sgc) if trace else nullcontext():
                inputs = wl.setup(sgc, seed, setup_tracer)
            setups.append((t0, perf_counter()))

        start = perf_counter()
        longest = 0.0
        while True:
            tracing = trace and len(traced) < len(untraced)
            t0 = perf_counter()
            with pass_tracer.installed(sgc) if tracing else nullcontext():
                outs = wl.run_pass(sgc, inputs)
            t1 = perf_counter()
            (traced if tracing else untraced).append((t0, t1, outs))
            longest = max(longest, t1 - t0)
            if (traced or not trace) and t1 - start + longest > seconds:
                break

    passes = untraced + traced
    first = untraced[0][2]
    wrong = [msg for *_, outs in passes for o in outs for msg in o.wrong]
    errors = [msg for *_, outs in passes for o in outs for msg in o.errors]
    node_lists = {tuple(o.nodes for o in outs) for *_, outs in passes}
    if len(node_lists) > 1:
        wrong.append("search nodes differ between passes over the same inputs")

    def timings(spans):  # calibrated and raw seconds of (start, end) pairs
        spans = list(spans)
        return ([clock.calibrated(a, b) for a, b in spans], [clock.raw(a, b) for a, b in spans])

    wall, wall_raw = timings((a, b) for a, b, _ in untraced)
    verdict, verdict_raw = timings((o.start, o.end) for *_, outs in untraced for o in outs)
    setup, setup_raw = timings(setups)
    metrics = {
        "wall_s": statistics.median(wall),
        "verdict_s_p50": statistics.median(verdict),
        "nodes": sum(o.nodes for o in first),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_frac": sum(o.decided for o in first) / len(first),
        "failed_frac": sum(o.failed for o in first) / len(first),
        "wall_raw_s": statistics.median(wall_raw),
        "verdict_raw_s_p50": statistics.median(verdict_raw),
        "setup_raw_s": statistics.median(setup_raw),
    }
    if len(first) >= P90_MIN_INSTANCES:
        metrics["verdict_s_p90"] = statistics.quantiles(verdict, n=10)[-1]
    if trace:
        traced_wall, traced_raw = timings((a, b) for a, b, _ in traced)
        metrics.update(per_layer_metrics(setup_tracer, SETUPS, sum(setup) / sum(setup_raw),
                                         pass_tracer, len(traced), sum(traced_wall) / sum(traced_raw)))
        metrics["trace.overhead_s"] = statistics.median(traced_wall) - metrics["wall_s"]

    spec = contract()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    reported = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not wrong,
        "attempted": sum(len(outs) for *_, outs in passes),
        "failed": sum(o.failed for *_, outs in passes for o in outs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    detail = {
        "workload": name, "seed": seed, "trace": trace, "passes": len(passes),
        "instances": len(first), "host": host(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "nodes_per_instance": [o.nodes for o in first],
        "rejected": sum(o.rejected for o in first),
        "wrong": wrong[:5], "errors": sorted(set(errors))[:5],
    }
    return result, detail


def report(seed: int, seconds: float, smoke: bool) -> int:
    """Run every workload untraced and traced in child processes; print tables."""
    ok = True
    rows, layer_rows, notes = [], [], []
    for name in WORKLOADS:
        details = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            detail = next((json.loads(l[len("detail "):]) for l in lines
                           if l.startswith("detail ")), None)
            if proc.returncode != 0 or detail is None:
                print(f"{name} --trace {trace} failed with status {proc.returncode}:\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok &= result["correct"]
            details.append((detail, result))
        (d0, r0), (d1, _) = details
        spec = contract()
        for m in spec["end_to_end"]:
            rows.append((name, m["name"], d0["metrics"][m["name"]]))
        for key in ("decided_frac", "failed_frac", "verdict_s_p90", "wall_raw_s",
                    "verdict_raw_s_p50", "setup_raw_s"):
            if key in d0["metrics"]:
                rows.append((name, key, d0["metrics"][key]))
        for m in spec["per_layer"]:
            layer_rows.append((name, m["name"], d1["metrics"][m["name"]]))
        same = d0["nodes_per_instance"] == d1["nodes_per_instance"]
        ok &= same
        notes.append(f"{name}: attempted {r0['attempted']}, failed {r0['failed']} "
                     f"({d0['rejected'] * d0['passes']} by cert_value rejections); "
                     f"nodes identical in the untraced and traced run: {'yes' if same else 'NO'}; "
                     f"passes {d0['passes']} untraced, {d1['passes']} traced run")
        notes.extend(f"{name}:   {msg}" for msg in d0["wrong"] + d0["errors"])

    h = host()
    print(f"host: {h['cpu']}, nproc {h['nproc']}, Python {h['python']}; "
          f"seed {seed}, {seconds} s per run{' (smoke sizes)' if smoke else ''}")
    for title, table in (("end-to-end, untraced run", rows), ("per-layer, traced run", layer_rows)):
        print(f"\n{title}")
        for wl, metric, v in table:
            print(f"  {wl:<15} {metric:<36} {v['value']:>16.6g} {v['unit']}")
    print()
    print("\n".join(notes))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="every workload, both runs, as tables")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = ap.parse_args(argv)
    try:
        fresh_sgc()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot import sgc: {exc}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        ap.error("give --workload or --report")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    h = detail["host"]
    print(f"host: {h['cpu']}, nproc {h['nproc']}, Python {h['python']}")
    for msg in detail["wrong"] + detail["errors"]:
        print(f"check: {msg}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
