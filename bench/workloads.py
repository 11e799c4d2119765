"""The benchmark's workloads and the checks it applies to sgc's output.

Each workload builds its inputs in `setup` (constructions or seeded random
graphs, rendered to .sg text) and hands them to sgc through
`io_cli.parse_sg` in `run_pass`.  A pass returns one Outcome per instance.

The checks share no code with sgc: witnesses are tested edge by edge with
the benchmark's own circle arithmetic, and the candidate ladder is
enumerated here with Fraction.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from spans import CONSTRUCTIONS


@dataclass
class Outcome:
    """One instance: from input handed over to checked verdict (perf_counter
    stamps), search nodes spent and verdict state."""

    start: float
    end: float = 0.0
    nodes: int = 0
    decided: bool = False
    wrong: list[str] = field(default_factory=list)  # output that failed a check
    errors: list[str] = field(default_factory=list)  # raised unexpectedly
    rejected: bool = False  # cert_value refused the solver's tight cycle

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.errors)


@dataclass
class Instance:
    text: str  # .sg text handed to sgc
    n: int
    edges: list[tuple[int, int, str]]  # the same graph, kept by the benchmark


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _instance(sgc, g) -> Instance:
    edges = [(e.u, e.v, e.sign.symbol) for e in g.edges]
    return Instance(sgc.io_cli.render_sg(g), g.n, edges)


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def broken_edges(edges, p, q, colors) -> list[int]:
    """Indices of edges an integer (p,q)-coloring violates.

    A positive edge needs its endpoints q or more steps apart around the
    p-cycle; a negative edge needs that of one endpoint and the point
    opposite the other.  p and the points are ints, or Fractions on the
    circle of circumference p with q = 1.
    """
    half = p / 2 if isinstance(p, Fraction) else p // 2
    bad = []
    for i, (u, v, sign) in enumerate(edges):
        gap = colors[u] - colors[v] if sign == "+" else colors[u] - colors[v] - half
        gap %= p
        if min(gap, p - gap) < q:
            bad.append(i)
    return bad


def rung_between(n: int, lo: Fraction, hi: Fraction) -> Fraction | None:
    """A value p/q with even p <= 2n strictly between lo and hi, if any."""
    for p in range(2, 2 * n + 1, 2):
        q = p // hi + 1  # smallest q with p/q < hi
        if Fraction(p, q) > lo:
            return Fraction(p, q)
    return None


def _check_witness(edges, n, w, wrong, what):
    if w is None:
        wrong.append(f"{what}: no witness")
        return
    if len(w.colors) != n or any(not 0 <= c < w.p for c in w.colors):
        wrong.append(f"{what}: malformed witness")
        return
    bad = broken_edges(edges, w.p, w.q, w.colors)
    if bad:
        wrong.append(f"{what}: witness {w.p}/{w.q} breaks edge {bad[0]}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _FixedInstance:
    """One named construction, one search call under a node budget."""

    def setup(self, sgc, seed, tracer=None):
        with _span(tracer, CONSTRUCTIONS):
            g = self.build(sgc)
        return [_instance(sgc, g)]

    def run_pass(self, sgc, inputs):
        (inst,) = inputs
        out = Outcome(perf_counter())
        budget = sgc.solver.SolveBudget(max_nodes=self.max_nodes)
        try:
            verdict = self.solve(sgc, sgc.io_cli.parse_sg(inst.text), budget)
        except sgc.solver.BudgetExhausted:
            pass
        except Exception as exc:  # counted against failed_frac
            out.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            out.decided = True
            self.check(verdict, out)
        out.nodes = budget.nodes
        out.end = perf_counter()
        return [out]


class ZsetApex(_FixedInstance):
    """z_set(Indicator(wenger_tilde(), 8, 9), 18, 4): ten pinned feasible_pq
    calls on a fixed, refutation-bound instance; the seed plays no part."""

    name = "zset_apex"
    expected = tuple(range(3, 10))

    def __init__(self, smoke: bool):
        self.max_nodes = 3000 if smoke else None

    def build(self, sgc):
        return sgc.constructions.wenger_tilde()

    def solve(self, sgc, g, budget):
        ind = sgc.indicators.Indicator(g, 8, 9)
        return sgc.indicators.z_set(ind, 18, 4, budget=budget).members()

    def check(self, members, out):
        if members != self.expected:
            out.wrong.append(f"Z-set members {members} != {self.expected}")


class K4Omega(_FixedInstance):
    """feasible_pq(k4_omega(), 18, 4) under a fixed node budget; a verdict,
    if one comes, must be None (chi_c of k4_omega is 14/3 > 18/4).  The
    seed plays no part.  The budget leaves room for a decomposition that
    settles the gadget's Z-set once (2.38M nodes today) and then the small
    quotient problem."""

    name = "k4_omega_18_4"

    def __init__(self, smoke: bool):
        self.max_nodes = 3000 if smoke else 3_000_000

    def build(self, sgc):
        return sgc.constructions.k4_omega()

    def solve(self, sgc, g, budget):
        return sgc.solver.feasible_pq(g, 18, 4, budget=budget)

    def check(self, found, out):
        if found is not None:
            out.wrong.append("k4_omega reported (18,4)-colorable")


class ChiRandom:
    """Random signed multigraphs through the `sgc chi --certify` path.

    The graphs come from a fixed stream (CORPUS_SEED): n uniform in 12..40,
    m uniform in 2n..3n, 3% negative loops, parallel edges as they fall.
    The run's seed draws, for every graph, a vertex relabelling, a switching
    and an edge order.  Runs therefore see different inputs with the same
    mix of hard and easy graphs; with fresh graphs per seed, the summed time
    of 150 graphs differed by a third between seeds.
    """

    name = "chi_random"
    CORPUS_SEED = 20_101_125
    max_nodes = 300  # per instance, shared by all of its chi_c probes

    def __init__(self, smoke: bool):
        self.size = 12 if smoke else 500

    def _corpus(self):
        rng = random.Random(self.CORPUS_SEED)
        for _ in range(self.size):
            n = rng.randint(12, 40)
            edges = []
            for _ in range(rng.randint(2 * n, 3 * n)):
                u = rng.randrange(n)
                if rng.random() < 0.03:
                    edges.append((u, u, "-"))
                    continue
                v = rng.randrange(n - 1)
                edges.append((u, v + (v >= u), rng.choice("+-")))
            yield n, edges

    def setup(self, sgc, seed, tracer=None):
        rng = random.Random(seed)
        graphs = []
        with _span(tracer, CONSTRUCTIONS):
            for n, edges in self._corpus():
                perm = list(range(n))
                rng.shuffle(perm)
                flip = [rng.random() < 0.5 for _ in range(n)]
                shown = [(perm[u], perm[v], s if flip[u] == flip[v] else "+-"[s == "+"])
                         for u, v, s in edges]
                rng.shuffle(shown)
                graphs.append(sgc.core.SignedGraph.from_triples(n, shown))
        return [_instance(sgc, g) for g in graphs]

    def run_pass(self, sgc, inputs):
        return [self._one(sgc, inst) for inst in inputs]

    def _one(self, sgc, inst: Instance) -> Outcome:
        S, io = sgc.solver, sgc.io_cli
        out = Outcome(perf_counter())
        budget = S.SolveBudget(max_nodes=self.max_nodes)
        try:
            g = io.parse_sg(inst.text)
            try:
                res = S.chi_c(g, budget=budget)
            except S.ChiUndecided as exc:
                _check_witness(inst.edges, inst.n, exc.witness, out.wrong, "undecided bracket")
                if exc.witness is not None and Fraction(exc.witness.p, exc.witness.q) != exc.upper:
                    out.wrong.append("bracket upper side differs from its witness")
                if not exc.lower < exc.upper:
                    out.wrong.append(f"empty bracket ({exc.lower}, {exc.upper}]")
            else:
                out.decided = True
                self._certify(sgc, inst, g, res, out)
        except Exception as exc:  # counted against failed_frac, run continues
            out.errors.append(f"{type(exc).__name__}: {exc}")
        out.nodes = budget.nodes
        out.end = perf_counter()
        return out

    def _certify(self, sgc, inst, g, res, out):
        C, io = sgc.certificates, sgc.io_cli
        w = res.witness
        _check_witness(inst.edges, inst.n, w, out.wrong, "chi_c")
        if out.wrong:
            return
        value = Fraction(w.p, w.q)
        if res.value != value:
            out.wrong.append(f"chi_c {res.value} != witness {w.p}/{w.q}")
        lo = res.refuted if res.refuted is not None else Fraction(2)
        if res.refuted is None and value != 2:
            out.wrong.append(f"chi_c {value} > 2 with nothing refuted")
        gap = rung_between(inst.n, lo, value)
        if gap is not None:
            out.wrong.append(f"ladder rung {gap} lies between refuted {lo} and {value}")
        if io.parse_coloring(io.render_coloring(w), g.n) != w:
            out.wrong.append("coloring text round trip changed the witness")

        rc = C.RationalColoring.from_coloring(w)
        cycle = C.find_tight_cycle(C.tight_digraph(g, rc))
        if cycle is None:
            out.errors.append("optimal witness has no tight cycle")
        else:
            try:
                cert = C.cert_value(g, rc, cycle)
            except C.CorruptCertificateError as exc:
                out.rejected = True
                out.errors.append(f"cert_value: {exc}")
            else:
                if cert.r != value:
                    out.wrong.append(f"cert_value certifies {cert.r}, chi_c is {value}")

        # Scaled to (2p, 2q-1) every constraint has slack, so refine must
        # return a smaller circle that is still at least chi_c.
        r = Fraction(2 * w.p, 2 * w.q - 1)
        slack = C.RationalColoring(r, tuple(Fraction(2 * c, 2 * w.q - 1) for c in w.colors))
        ref = C.refine(g, slack)
        if not value <= ref.r < r:
            out.wrong.append(f"refine gave r={ref.r}, outside [{value}, {r})")
        elif broken_edges(inst.edges, ref.r, 1, ref.colors):
            out.wrong.append("refined coloring breaks an edge")


WORKLOADS = {w.name: w for w in (ZsetApex, ChiRandom, K4Omega)}
