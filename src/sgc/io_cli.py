"""Text formats and the command-line interface.

Graph files (.sg) are line-oriented:

    # comment
    sg <n>
    e <u> <v> <+|->
    v <idx> <name>        (optional display name; parsed, validated, dropped)

Coloring files hold one (p,q)-coloring:

    coloring <p>/<q>
    <vertex> <color>      (every vertex exactly once)

Exit codes: 0 success/true, 1 parse or usage error, 2 infeasible/false,
3 budget exhausted, 4 capacity guard refused.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .arith import normalize_even
from .certificates import (NotRefinableError, RationalColoring, cert_value,
                           find_tight_cycle, refine, tight_digraph)
from .constructions import (big_gamma, circular_clique_signed, gamma,
                            gamma_prime, hat_clique, k4_omega, mini_gadget,
                            omega_d, outerplanar_F, signed_cycle, spal5,
                            wenger, wenger_tilde)
from .core import (NEG, POS, CapacityError, Edge, SignedGraph, StructuralMismatchError,
                   UncolorableError, girth_types, switching_equivalent)
from .indicators import Indicator, ShapeError, z_set
from .solver import (BudgetExhausted, ChiUndecided, Coloring, SolveBudget,
                     _validate_coloring, _validate_pq, chi_c, chi_s, verify_coloring)

__all__ = ["ParseError", "parse_coloring", "parse_sg", "render_coloring", "render_sg"]


class ParseError(ValueError):
    """Malformed .sg or coloring text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str):
    """(line number, tokens) for each line of text that is neither blank nor
    a '#' comment, numbered from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield lineno, parts


def _digits(token: str) -> int | None:
    """The integer token holds, written as an optional '-' and ASCII digits
    (no '+', '_', spaces or other scripts' digits), or None.  Every integer
    the CLI reads, from a file, an option, SGC_BUDGET or a gen parameter,
    is read by this rule."""
    try:
        if token.isascii() and token.removeprefix("-").isdigit():
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    return None


def _int(token: str, lineno: int, message: str) -> int:
    """The integer a text field holds (_digits), or a ParseError with message."""
    x = _digits(token)
    if x is None:
        raise ParseError(lineno, message)
    return x


def _arg_int(token: str) -> int:
    """argparse's type for an integer option (_digits)."""
    x = _digits(token)
    if x is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return x


def parse_sg(text: str) -> SignedGraph:
    """Parse the .sg format; raises ParseError with a line number."""
    records = _records(text)
    lineno, parts = next(records, (0, None))
    if parts is None:
        raise ParseError(1, "missing 'sg <n>' header")
    if parts[0] != "sg" or len(parts) != 2:
        raise ParseError(lineno, "expected header 'sg <n>'")
    n = _int(parts[1], lineno, f"bad vertex count {parts[1]!r}")
    if n < 0:
        raise ParseError(lineno, "vertex count must be nonnegative")
    edges = []
    for lineno, parts in records:
        if parts[0] == "e":
            if len(parts) != 4:
                raise ParseError(lineno, "expected 'e <u> <v> <+|->'")
            _, a, b, s = parts
            u, v = _digits(a), _digits(b)
            if u is None or v is None:
                raise ParseError(lineno, "edge endpoints must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"endpoint out of range 0..{n - 1}")
            if s != "+" and s != "-":
                raise ParseError(lineno, f"bad sign token {s!r} (want + or -)")
            edges.append(Edge(u, v, POS if s == "+" else NEG))
        elif parts[0] == "v":
            if len(parts) < 3:
                raise ParseError(lineno, "expected 'v <idx> <name>'")
            idx = _int(parts[1], lineno, "vertex index must be an integer")
            if not 0 <= idx < n:
                raise ParseError(lineno, f"vertex index out of range 0..{n - 1}")
            # names are I/O-level decoration only
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    return SignedGraph(n, tuple(edges))


def render_sg(g: SignedGraph) -> str:
    lines = [f"sg {g.n}"]
    lines.extend(f"e {e.u} {e.v} {e.sign.symbol}" for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse a coloring file for an n-vertex graph; must cover every vertex.
    The header's p and q must pass the solver's grid check (_validate_pq)."""
    records = _records(text)
    lineno, parts = next(records, (0, None))
    if parts is None:
        raise ParseError(1, "missing 'coloring <p>/<q>' header")
    if parts[0] != "coloring" or len(parts) != 2 or "/" not in parts[1]:
        raise ParseError(lineno, "expected header 'coloring <p>/<q>'")
    p, q = (_int(t, lineno, f"bad p/q {parts[1]!r}") for t in parts[1].split("/", 1))
    if min(p, q) < 1:
        raise ParseError(lineno, f"p and q must be at least 1, got {parts[1]!r}")
    try:
        _validate_pq(p, q)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    seen: dict[int, int] = {}
    for lineno, parts in records:
        if len(parts) != 2:
            raise ParseError(lineno, "expected '<vertex> <color>'")
        v, c = _digits(parts[0]), _digits(parts[1])
        if v is None or c is None:
            raise ParseError(lineno, "vertex and color must be integers")
        if not 0 <= v < n:
            raise ParseError(lineno, f"vertex {v} out of range 0..{n - 1}")
        if v in seen:
            raise ParseError(lineno, f"vertex {v} colored twice")
        if not 0 <= c < p:
            raise ParseError(lineno, f"color {c} out of range 0..{p - 1}")
        seen[v] = c
    if len(seen) < n:
        missing = [v for v in range(n) if v not in seen]
        raise ParseError(1, f"vertices without a color: {missing[:5]}")
    return Coloring(p, q, tuple(seen[v] for v in range(n)))


def render_coloring(c: Coloring) -> str:
    """The text parse_coloring reads back.  A coloring whose p or q fails the
    solver's grid check, or with a color that is not an int (a bool is not
    one) in 0..p-1, raises ValueError instead of being written."""
    _validate_coloring(c)
    lines = [f"coloring {c.p}/{c.q}"]
    lines.extend(f"{v} {x}" for v, x in enumerate(c.colors))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise _UsageError(message)


def fmt_value(x: Fraction) -> str:
    """Lowest-terms display, with the even normal form appended when distinct:
    from 2 up, that is when the numerator is odd, and the form doubles both."""
    low = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if x >= 2 and x.numerator % 2:
        return f"{low} ({2 * x.numerator}/{2 * x.denominator})"
    return low


def _parse_fraction(s: str) -> Fraction:
    """The rational --r gives, N or N/D, each side read as a file field is
    (_digits); anything else, or D = 0, is a usage error."""
    a, slash, b = s.partition("/")
    num, den = _digits(a), _digits(b) if slash else 1
    if num is None or not den:
        raise _UsageError(f"bad rational {s!r} (want N or N/D)")
    return Fraction(num, den)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _node_budget(nodes: int | None = None) -> SolveBudget | None:
    """A node budget of `nodes` (from --budget) when given, else of
    SGC_BUDGET when set, else None; a negative count is a usage error."""
    source = "--budget"
    if nodes is None:
        source, raw = "SGC_BUDGET", os.environ.get("SGC_BUDGET")
        if raw is None:
            return None
        nodes = _digits(raw)
        if nodes is None:
            raise _UsageError(f"SGC_BUDGET must be an integer, got {raw!r}")
    if nodes < 0:
        raise _UsageError(f"{source} must be nonnegative, got {nodes}")
    return SolveBudget(max_nodes=nodes)


def _cmd_chi(args) -> int:
    col_path = Path(args.file).with_suffix(".col")
    if col_path == Path(args.file):
        raise _UsageError(f"the witness would overwrite the input {args.file}; "
                          "name the graph file with another suffix")
    g = parse_sg(_read(args.file))
    result = chi_c(g, budget=_node_budget(args.budget))
    print(f"chi_c = {fmt_value(result.value)}")
    if result.witness is not None:
        col_path.write_text(render_coloring(result.witness), encoding="utf-8")
        print(f"witness: {col_path}")
    if args.certify:
        if result.witness is None:
            print("no certificate: graph has no edges")
        else:
            rc = RationalColoring.from_coloring(result.witness)
            cycle = find_tight_cycle(tight_digraph(g, rc))
            if cycle is None:
                raise RuntimeError("internal error: optimal coloring without a tight cycle")
            cert = cert_value(g, rc, cycle)
            verts = " -> ".join(str(a[0]) for a in cycle) + f" -> {cycle[0][0]}"
            print("certificate: tight cycle")
            print(f"  cycle: {verts}")
            print(f"  s = {cert.s} positive arcs, t = {cert.t} negative arcs, a = {cert.a}")
            print(f"  r = 2(s+t)/(2a+t) = {fmt_value(cert.r)}")
    return 0


def _load_coloring(args) -> tuple[SignedGraph, Coloring] | None:
    """The graph and coloring files of `check` and `refine`; None, after
    reporting it, when the coloring is not at the circle size --r."""
    g = parse_sg(_read(args.file))
    c = parse_coloring(_read(args.coloring), g.n)
    if Fraction(c.p, c.q) != _parse_fraction(args.r):
        print(f"coloring file is at {c.p}/{c.q}, not {args.r}", file=sys.stderr)
        return None
    return g, c


def _cmd_check(args) -> int:
    loaded = _load_coloring(args)
    if loaded is None:
        return 1
    g, c = loaded
    if verify_coloring(g, c):
        print("valid coloring")
        return 0
    print("invalid coloring")
    return 2


def _cmd_zset(args) -> int:
    g = parse_sg(_read(args.file))
    er = normalize_even(*_parse_fraction(args.r).as_integer_ratio())
    ind = Indicator(g, args.u, args.v)
    zs = z_set(ind, er.p, er.q, budget=_node_budget())
    print(f"Z-set at r = {fmt_value(er.value)} (grid {er.p}/{er.q}):")
    for d, ok in enumerate(zs.member):
        print(f"  d = {Fraction(d, er.q)} : {'yes' if ok else 'no'}")
    try:
        lo, hi = zs.as_interval()
    except ShapeError:
        print("not contiguous" if zs.members() else "empty set")
    else:
        print(f"interval: [{Fraction(lo, er.q)}, {Fraction(hi, er.q)}]")
    return 0


# name -> (its parameters, each an integer but the cycle's sign +|-, builder)
_GENERATORS: dict[str, tuple[str, Callable[..., SignedGraph]]] = {
    "cycle": ("LENGTH +|-", lambda l, s: signed_cycle(l, s == "-")),
    "clique": ("P Q", circular_clique_signed),
    "hat": ("P Q", hat_clique),
    "gamma": ("DEPTH", lambda i: gamma(i).graph),
    "gamma_prime": ("INDEX", gamma_prime),
    "spal5": ("", spal5),
    "F": ("", outerplanar_F),
    "omega": ("D", omega_d),
    "mini_gadget": ("", mini_gadget),
    "wenger": ("", wenger),
    "wenger_tilde": ("", wenger_tilde),
    "big_gamma": ("", lambda: big_gamma().graph),
    "k4_omega": ("", k4_omega),
}


def _cmd_gen(args) -> int:
    if args.name not in _GENERATORS:
        known = ", ".join(sorted(_GENERATORS))
        raise _UsageError(f"unknown construction {args.name!r}; known: {known}")
    params_help, fn = _GENERATORS[args.name]
    names = params_help.split()
    if len(args.params) != len(names):
        want = params_help or "no parameters"
        raise _UsageError(f"{args.name} takes {want}")
    if args.name == "cycle" and args.params[1] not in ("+", "-"):
        raise _UsageError("cycle sign must be + or -")
    params = []
    for name, token in zip(names, args.params):
        x = token if name == "+|-" else _digits(token)
        if x is None:
            raise _UsageError(f"{args.name} {name} must be an integer, got {token!r}")
        params.append(x)
    try:
        g = fn(*params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    text = render_sg(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_equiv(args) -> int:
    g1 = parse_sg(_read(args.file1))
    g2 = parse_sg(_read(args.file2))
    if switching_equivalent(g1, g2):
        print("switching equivalent")
        return 0
    print("not switching equivalent")
    return 2


def _cmd_girth(args) -> int:
    g = parse_sg(_read(args.file))
    table = girth_types(g)
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        val = table[key]
        print(f"g{key[0]}{key[1]} = {'inf' if val is None else val}")
    return 0


def _cmd_refine(args) -> int:
    loaded = _load_coloring(args)
    if loaded is None:
        return 1
    g, c = loaded
    rc = RationalColoring.from_coloring(c)
    try:
        out = refine(g, rc)
    except NotRefinableError:
        print("tight cycle present")
        return 2
    print(f"r0 = {out.r}")
    for v, x in enumerate(out.colors):
        print(f"v {v} {x}")
    return 0


def _cmd_chis(args) -> int:
    g = parse_sg(_read(args.file))
    value = chi_s(g, budget=_node_budget())
    print(f"chi_s = {fmt_value(value)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgc", description="circular chromatic numbers of signed graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", help="exact circular chromatic number")
    p.add_argument("file")
    p.add_argument("--certify", action="store_true",
                   help="print the witness's tight cycle and the value it pins")
    p.add_argument("--budget", type=_arg_int, default=None,
                   help="node budget (default: SGC_BUDGET)")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("check", help="verify a coloring file")
    p.add_argument("file")
    p.add_argument("--r", required=True, help="circle size p/q")
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("zset", help="feasible terminal separations of an indicator")
    p.add_argument("file")
    p.add_argument("--u", type=_arg_int, required=True)
    p.add_argument("--v", type=_arg_int, required=True)
    p.add_argument("--r", required=True, help="circle size p/q")
    p.set_defaults(func=_cmd_zset)

    p = sub.add_parser("gen", help="write a named construction")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("equiv", help="switching equivalence of two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("girth", help="shortest closed-walk lengths by parity type")
    p.add_argument("file")
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("refine", help="strictly shrink a coloring's circle if possible")
    p.add_argument("file")
    p.add_argument("--r", required=True, help="circle size p/q of the coloring file")
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("chis", help="max chi_c over signatures of a simple graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_chis)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"no such file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except UncolorableError as exc:
        print(f"uncolorable: {exc}", file=sys.stderr)
        return 2
    except ChiUndecided as exc:
        print(f"budget exhausted: chi_c in ({fmt_value(exc.lower)}, {fmt_value(exc.upper)}], "
              f"undecided at {exc.undecided} after {exc.nodes} nodes", file=sys.stderr)
        return 3
    except BudgetExhausted as exc:
        print(f"budget exhausted after {exc.nodes} nodes", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 4
    except StructuralMismatchError as exc:
        print(f"structural mismatch: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
