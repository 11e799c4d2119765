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

`--against OLD.txt` compares each graph with the output of an earlier run
(another checkout, the same seeds) instead of printing the lines.  It prints
one line for each graph whose verdict or witness moved, then per seed the
nodes spent on both sides and how many graphs are identical, differ in their
nodes only, are newly decided or newly undecided, or have a moved bracket
(undecided on both sides, the two brackets overlapping).  It exits 1 when a graph decided on both sides
changes its value, refuted rung or witness, when a newly decided value
lies outside the old bracket (or a newly undecided bracket misses the old
value), or when a graph undecided on both sides has two disjoint brackets:

    PYTHONPATH=src python3 scripts/outcome_digest.py --seeds 1 2 > old.txt  # old checkout
    PYTHONPATH=src python3 scripts/outcome_digest.py --seeds 1 2 --against old.txt

`--relations` prints, instead of chi_c outcomes, the terminal relations the
verdict-only searches decide: `solver._relation`'s offset mask and nodes
for `wenger_tilde` at its apex pair (8, 9) and for `k4_omega`'s repeated
piece at its terminals (0, 1), at each rung of RUNGS: 28/6, 74/16, 46/10,
32/7, 18/4, 40/9, 44/10 and 48/11, from 14/3 down, where most separations
are refuted, then 108/23 and 248/53 just above 14/3, where every separation
has a coloring (with `--smoke`, 28/6 and 18/4 only).  So the digest prices
both kinds of rung.  With `--against` it prints each relation whose mask
moved, each one whose mask stayed but whose nodes moved (so trades between
rungs show), each one the old output lacks (not compared), and a tally of
the rest, and exits 1 when any mask moved.
"""

import argparse
import hashlib
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import sgc  # noqa: E402
from workloads import ChiRandom  # noqa: E402

KINDS = ("identical", "nodes-only", "newly-decided", "newly-undecided", "bracket-moved",
         "changed")
RUNGS = ((28, 6), (74, 16), (46, 10), (32, 7), (18, 4), (40, 9), (44, 10), (48, 11),
         (108, 23), (248, 53))
SMOKE_RUNGS = ((28, 6), (18, 4))


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


def relations(rungs) -> list[str]:
    """One line per relation at each rung: its subject, mask (hex) and nodes."""
    S, C = sgc.solver, sgc.constructions
    subjects = (("wenger_tilde 8,9", C.wenger_tilde(), 8, 9),
                ("k4_omega-piece 0,1", C.k4_omega()._pieces[3][0], 0, 1))
    lines = []
    for p, q in rungs:
        for name, g, u, v in subjects:
            budget = S.SolveBudget()
            mask = S._relation(g, u, v, p, q, budget)
            lines.append(f"relation {name} at {p}/{q} mask {mask:x} nodes {budget.nodes}")
    return lines


def compare_relations(old_lines: list[str], new_lines: list[str]) -> tuple[list[str], bool]:
    """The --against report of relation lines: each moved mask, each mask
    kept at another node count and each subject the old lines lack, then,
    over the subjects on both sides, the nodes on each side and the count
    identical, nodes-only and changed."""
    old = dict(line.rsplit(" mask ", 1) for line in old_lines)
    report, counts, nodes = [], Counter(), Counter()
    for line in new_lines:
        subject, now = line.rsplit(" mask ", 1)
        if subject not in old:
            report.append(f"{subject} is not in the old output")
            continue
        was_mask, was_spent = old[subject].split(" nodes ")
        mask, spent = now.split(" nodes ")
        nodes["old"] += int(was_spent)
        nodes["new"] += int(spent)
        moved = ("changed" if mask != was_mask else
                 "identical" if spent == was_spent else "nodes-only")
        counts[moved] += 1
        if moved == "changed":
            report.append(f"{subject} changed: mask {was_mask} -> {mask}")
        elif moved == "nodes-only":
            report.append(f"{subject} nodes {was_spent} -> {spent}")
    tally = " ".join(f"{k} {counts[k]}" for k in ("identical", "nodes-only", "changed"))
    report.append(f"relations nodes {nodes['old']} -> {nodes['new']} {tally}")
    return report, counts["changed"] > 0


def split(line: str) -> tuple[str, str, str, int]:
    """(graph, verdict, witness, nodes) of one outcome line; graph is
    'seed S #i'."""
    head, nodes = line.rsplit(" nodes ", 1)
    head, witness = head.split(" witness ", 1)
    seed, s, i, verdict = head.split(" ", 3)
    return f"{seed} {s} {i}", verdict, witness, int(nodes)


def _read(verdict: str) -> Fraction | tuple[Fraction, Fraction]:
    """A verdict's value, or its bracket (lower, upper)."""
    words = verdict.split()
    if words[0] == "value":
        return Fraction(words[1])
    return Fraction(words[1].strip("(,")), Fraction(words[2].rstrip("]"))


def kind(was: tuple[str, str], now: tuple[str, str]) -> str:
    """How a graph's (verdict, witness) moved from was to now, one of KINDS
    but nodes-only: 'changed' when the two sides contradict each other."""
    if was == now:
        return "identical"
    a, b = _read(was[0]), _read(now[0])
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return "changed"
    if isinstance(b, Fraction):
        return "newly-decided" if a[0] < b <= a[1] else "changed"
    if isinstance(a, Fraction):
        return "newly-undecided" if b[0] < a <= b[1] else "changed"
    # Both hold the value, so two brackets (lo, hi] that share no point
    # cannot both be right.
    return "bracket-moved" if max(a[0], b[0]) < min(a[1], b[1]) else "changed"


def compare(old_lines: list[str], new_lines: list[str]) -> tuple[list[str], bool]:
    """The --against report of new_lines against old_lines (outcome lines,
    without the sha256 line), and whether any graph changed."""
    old = {graph: rest for graph, *rest in map(split, old_lines)}
    report, counts, nodes = [], Counter(), Counter()
    for graph, verdict, witness, spent in map(split, new_lines):
        if graph not in old:
            raise SystemExit(f"{graph} is not in the old output")
        was_verdict, was_witness, was_spent = old[graph]
        seed = graph.rsplit(" ", 1)[0]
        nodes[seed, "old"] += was_spent
        nodes[seed, "new"] += spent
        moved = kind((was_verdict, was_witness), (verdict, witness))
        if moved == "identical" and was_spent != spent:
            moved = "nodes-only"
        counts[seed, moved] += 1
        if moved not in ("identical", "nodes-only"):
            report.append(f"{graph} {moved}: {was_verdict} witness {was_witness} "
                          f"-> {verdict} witness {witness}")
    for seed in dict.fromkeys(seed for seed, _ in nodes):
        tally = " ".join(f"{k} {counts[seed, k]}" for k in KINDS)
        report.append(f"{seed} nodes {nodes[seed, 'old']} -> {nodes[seed, 'new']} {tally}")
    return report, any(k == "changed" and c for (_, k), c in counts.items())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--smoke", action="store_true", help="the 12-graph smoke corpus")
    ap.add_argument("--against", metavar="OLD.txt",
                    help="compare with an earlier run's output instead of printing it")
    ap.add_argument("--relations", action="store_true",
                    help="the verdict-only terminal relations instead of chi_c outcomes")
    args = ap.parse_args()

    if args.relations:
        lines = relations(SMOKE_RUNGS if args.smoke else RUNGS)
        head, diff = r"relation ", compare_relations
    else:
        workload = ChiRandom(smoke=args.smoke)
        lines = []
        for seed in args.seeds:
            for i, inst in enumerate(workload.setup(sgc, seed)):
                g = sgc.io_cli.parse_sg(inst.text)
                lines.append(f"seed {seed} #{i} {outcome(g, workload.max_nodes)}")
        head, diff = r"seed \d+ #\d+ ", compare
    if args.against:
        old = [line for line in Path(args.against).read_text().splitlines()
               if re.match(head, line)]
        report, changed = diff(old, lines)
        print("\n".join(report))
        return 1 if changed else 0
    body = "".join(line + "\n" for line in lines)
    print(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
