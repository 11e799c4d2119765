#!/usr/bin/env python3
"""Print every chi_c outcome on the benchmark's chi_random corpus, and a digest.

For each seed, the corpus is built by `bench/workloads.ChiRandom` (the same
graphs, relabelling, switching and edge order as the benchmark run with that
seed) and each graph goes through `chi_c` under the benchmark's per-graph
node budget.  One line per graph gives the value and the largest refuted
rung, or for an undecided graph its bracket and the undecided rung, then
the witness (p/q and its colors) and the nodes spent.  The last line is the
sha256 of all lines before it, so two checkouts give the same outcomes
exactly when they print the same digest:

    PYTHONPATH=src python3 scripts/outcome_digest.py --seeds 1 2

`--smoke` takes the benchmark's smoke-size corpus (12 graphs per seed).
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import sgc  # noqa: E402
from workloads import ChiRandom  # noqa: E402


def outcome(g, max_nodes: int) -> str:
    """One graph's chi_c outcome under a fresh budget of max_nodes."""
    S = sgc.solver
    budget = S.SolveBudget(max_nodes=max_nodes)
    try:
        res = S.chi_c(g, budget=budget)
    except S.ChiUndecided as exc:
        verdict = f"bracket ({exc.lower}, {exc.upper}] undecided {exc.undecided}"
        w = exc.witness
    else:
        verdict = f"value {res.value} refuted {res.refuted}"
        w = res.witness
    shown = "none" if w is None else f"{w.p}/{w.q} {','.join(map(str, w.colors))}"
    return f"{verdict} witness {shown} nodes {budget.nodes}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--smoke", action="store_true", help="the 12-graph smoke corpus")
    args = ap.parse_args()

    workload = ChiRandom(smoke=args.smoke)
    digest = hashlib.sha256()
    for seed in args.seeds:
        for i, inst in enumerate(workload.setup(sgc, seed)):
            g = sgc.io_cli.parse_sg(inst.text)
            line = f"seed {seed} #{i} {outcome(g, workload.max_nodes)}"
            digest.update(line.encode() + b"\n")
            print(line)
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
