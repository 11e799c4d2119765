"""Round-trip, error, and golden-output tests for the text formats and CLI."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgc
from sgc import (
    Coloring,
    ParseError,
    outerplanar_F,
    parse_coloring,
    parse_sg,
    render_coloring,
    render_sg,
    signed_cycle,
    verify_coloring,
    wenger,
    wenger_tilde,
)
from sgc.io_cli import fmt_value, main

import gen
import oracles


# Tokens and lines that the fast path of parse_sg and parse_coloring must
# hand to the per-token checks: signed, other scripts' digits, a superscript
# (isdigit() but not ASCII), more digits than int() converts, leading zeros
# on either side of the fast path's length limit, bad signs and directives.
ODD_TOKENS = ["-0", "+1", "-1", "\u0663", "\u00b2", "1" * 5000, "0" * 4999 + "1", "00",
              "0" * 17 + "1", "0" * 18 + "1", "9" * 20, "1_0", "x", "", "+", "-", "*",
              "++", "e", "v", "#", "sg"]
ODD_LINES = ["", "   ", "# comment", "#", "\x0c", "v 0 name", "v 1 two names", "v 99 x",
             "v", "e 0 0 -", "e 1 0 +", "coloring 4/1", "sg 3", "0 0", "1 3"]


def parsed(fn, *args):
    """fn's result, or the line and text of the ParseError it raised."""
    try:
        return fn(*args)
    except ParseError as exc:
        return exc.line, str(exc)


@st.composite
def mutated(draw, text, numbers):
    """text with up to four edits (a token replaced, dropped or added, a
    line inserted or deleted), then joined by a random line break."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):  # the header (at 0) one time in ten
        at = draw(st.integers(min(1, len(lines)), len(lines))) if draw(st.integers(0, 9)) else 0
        kind = draw(st.sampled_from(["token"] * 4 + ["drop", "add", "insert", "delete"]))
        if kind == "insert" or at == len(lines):
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        elif kind == "delete":
            del lines[at]
        else:
            tokens = lines[at].split() or [""]
            i = draw(st.integers(0, len(tokens) - 1))
            new = draw(st.sampled_from(ODD_TOKENS + numbers))
            if kind == "token":
                tokens[i] = new
            elif kind == "drop":
                del tokens[i]
            else:
                tokens.insert(i, new)
            lines[at] = draw(st.sampled_from([" ", "\t", "  "])).join(tokens)
    sep = draw(st.sampled_from(["\n", "\r\n", "\x0c", "\r"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


class TestParseSg:
    @settings(max_examples=150, deadline=None)
    @given(graph=gen.signed_graphs(max_n=6, max_m=10, min_n=1))
    def test_round_trip(self, graph):
        assert parse_sg(render_sg(graph)) == graph

    def test_comments_blanks_and_names_are_tolerated(self):
        text = "# a comment\n\nsg 2\nv 0 left\nv 1 right with spaces\ne 0 1 -\n\n"
        g = parse_sg(text)
        assert g.n == 2 and g.m == 1
        assert g.edges[0].sign.symbol == "-"

    def test_leading_zeros_are_digits(self):
        assert parse_sg("sg 03\ne 00 2 -\nv 01 x") == parse_sg("sg 3\ne 0 2 -")

    @settings(max_examples=400, deadline=None)
    @given(graph=gen.signed_graphs(max_n=12, max_m=16, positive_loops=True), data=st.data())
    def test_same_result_as_the_per_token_parser(self, graph, data):
        # parse_sg's fast path must neither accept nor reject anything the
        # per-token reader it sits in front of does not, on any line.
        n = graph.n
        numbers = [str(k) for k in (n - 1, n, n + 1, 10 ** 20)]
        text = data.draw(mutated(render_sg(graph), numbers))
        got = parsed(parse_sg, text)
        assert got == parsed(oracles.oracle_parse_sg, text)
        if not isinstance(got, tuple):
            assert type(got.edges) is tuple

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "missing 'sg <n>' header"),
            ("graph 3", 1, "expected header"),
            ("sg x", 1, "bad vertex count"),
            ("sg -1", 1, "must be nonnegative"),
            # Integers are an optional '-' and ASCII digits, nothing else.
            ("sg 1_0\ne 0 9 +", 1, "bad vertex count '1_0'"),
            ("sg +3", 1, "bad vertex count '+3'"),
            ("sg \uff13", 1, "bad vertex count"),
            ("sg \u0661\u0660", 1, "bad vertex count"),
            ("sg -", 1, "bad vertex count '-'"),
            ("sg 2\ne 0 \u0661 +", 2, "endpoints must be integers"),
            ("sg 2\nv \u0660 x", 2, "index must be an integer"),
            ("sg 2\ne 0 1", 2, "expected 'e <u> <v> <+|->'"),
            ("sg 2\ne a b +", 2, "endpoints must be integers"),
            ("sg 2\ne 0 5 +", 2, "endpoint out of range 0..1"),
            ("sg 2\ne 0 1 ?", 2, "bad sign token"),
            ("sg 2\nv 0", 2, "expected 'v <idx> <name>'"),
            ("sg 2\nv x name", 2, "index must be an integer"),
            ("sg 2\nv 7 name", 2, "index out of range"),
            ("sg 2\nq 0 1", 2, "unknown directive"),
            ("# only comments\n\n# more", 1, "missing 'sg <n>' header"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as info:
            parse_sg(text)
        assert info.value.line == line
        assert fragment in str(info.value)


class TestParseColoring:
    @settings(max_examples=150, deadline=None)
    @given(grid=gen.grids(max_p=10), data=st.data())
    def test_round_trip(self, grid, data):
        p, q = grid
        n = data.draw(st.integers(1, 6))
        colors = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
        c = Coloring(p, q, colors)
        assert parse_coloring(render_coloring(c), n) == c

    @pytest.mark.parametrize("c", [
        Coloring(4, 1, (True, 2.0)),   # a bool and a float
        Coloring(4, 1, (False, True)),
        Coloring(4, 1, (7, 1.5)),
        Coloring(4, 1, (7, 1)),        # out of range
        Coloring(4, 1, (0, -1)),
        Coloring(4, 1, (0, "1")),
        Coloring(3, 1, (0, 1)),        # odd p
        Coloring(4, 3, (0, 1)),        # q > p/2
        Coloring(4, 0, (0, 1)),
        Coloring(4, True, (0, 2)),
        Coloring(4.0, 1, (0, 2)),
    ])
    def test_render_refuses_what_parse_would_reject(self, c):
        # render_coloring(Coloring(4, 1, (True, 2.0))) used to return
        # 'coloring 4/1\n0 True\n1 2.0\n'.
        with pytest.raises(ValueError):
            render_coloring(c)

    @settings(max_examples=400, deadline=None)
    @given(grid=gen.grids(max_p=12), data=st.data())
    def test_same_result_as_the_per_token_parser(self, grid, data):
        p, q = grid
        n = data.draw(st.integers(0, 8))
        colors = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
        numbers = [str(k) for k in (n - 1, n, p - 1, p, 10 ** 20)]
        text = data.draw(mutated(render_coloring(Coloring(p, q, colors)), numbers))
        reader_n = data.draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)]))
        assert (parsed(parse_coloring, text, reader_n)
                == parsed(oracles.oracle_parse_coloring, text, reader_n))

    def test_vertex_order_in_file_is_free(self):
        c = parse_coloring("coloring 8/3\n1 5\n0 2\n", 2)
        assert c == Coloring(8, 3, (2, 5))

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "missing 'coloring <p>/<q>' header"),
            ("colouring 8/3", 1, "expected header"),
            ("coloring 8", 1, "expected header"),
            ("coloring a/b", 1, "bad p/q"),
            ("coloring 8_0/3\n0 1\n1 2", 1, "bad p/q '8_0/3'"),
            ("coloring 8/3\n1 \u0663\n0 1", 2, "must be integers"),
            ("coloring 8/3\n0 1 2", 2, "expected '<vertex> <color>'"),
            ("coloring 8/3\nx 1", 2, "must be integers"),
            ("coloring 8/3\n9 1", 2, "vertex 9 out of range"),
            ("coloring 8/3\n0 1\n0 2", 3, "colored twice"),
            ("coloring 8/3\n0 8", 2, "color 8 out of range"),
            ("coloring 8/3\n0 1", 1, "vertices without a color: [1]"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as info:
            parse_coloring(text, 2)
        assert info.value.line == line
        assert fragment in str(info.value)


class TestFmtValue:
    @pytest.mark.parametrize(
        "value,shown",
        [
            (Fraction(1), "1"),
            (Fraction(2), "2"),
            (Fraction(3), "3 (6/2)"),
            (Fraction(4), "4"),
            (Fraction(8, 3), "8/3"),
            (Fraction(10, 3), "10/3"),
            (Fraction(14, 3), "14/3"),
            (Fraction(16, 5), "16/5"),
            (Fraction(5, 2), "5/2 (10/4)"),
            (Fraction(7, 2), "7/2 (14/4)"),
        ],
    )
    def test_lowest_terms_with_even_form_when_distinct(self, value, shown):
        assert fmt_value(value) == shown


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.sg"
    path.write_text(render_sg(signed_cycle(4, negative=True)))
    return path


# The certificate path's inputs and golden output, shared by the in-process
# tests and the subprocess run under python -O.
NEG_A_SG = "sg 5\ne 0 1 -\ne 0 2 -\ne 0 3 +\ne 1 2 +\ne 1 3 -\ne 2 4 -\ne 3 4 -\n"
C4_CERTIFICATE = (
    "certificate: tight cycle\n"
    "  cycle: 0 -> 1 -> 2 -> 3 -> 0\n"
    "  s = 3 positive arcs, t = 1 negative arcs, a = 1\n"
    "  r = 2(s+t)/(2a+t) = 8/3\n"
)
NEG_A_CERTIFICATE = (
    "certificate: tight cycle\n"
    "  cycle: 0 -> 2 -> 4 -> 3 -> 1 -> 0\n"
    "  s = 0 positive arcs, t = 5 negative arcs, a = -1\n"
    "  r = 2(s+t)/(2a+t) = 10/3\n"
)
C4_LOOSE_COL = "coloring 12/3\n0 0\n1 4\n2 8\n3 11\n"
C4_REFINED = "r0 = 24/7\nv 0 0\nv 1 8/7\nv 2 16/7\nv 3 2/7\n"


class TestCliChi:
    def test_golden_outerplanar(self, run, tmp_path):
        src = tmp_path / "F.sg"
        src.write_text(render_sg(outerplanar_F()))
        code, out, err = run("chi", src)
        col = tmp_path / "F.col"
        assert (code, err) == (0, "")
        assert out == f"chi_c = 10/3\nwitness: {col}\n"
        witness = parse_coloring(col.read_text(), 6)
        assert (witness.p, witness.q) == (10, 3)
        assert verify_coloring(outerplanar_F(), witness)

    def test_golden_certificate(self, run, c4_file, tmp_path):
        code, out, err = run("chi", c4_file, "--certify")
        assert (code, err) == (0, "")
        assert out == f"chi_c = 8/3\nwitness: {tmp_path / 'c4.col'}\n" + C4_CERTIFICATE

    def test_golden_certificate_with_negative_a(self, run, tmp_path):
        src = tmp_path / "neg_a.sg"
        src.write_text(NEG_A_SG)
        code, out, err = run("chi", src, "--certify")
        assert (code, err) == (0, "")
        assert out == f"chi_c = 10/3\nwitness: {tmp_path / 'neg_a.col'}\n" + NEG_A_CERTIFICATE

    # -O strips asserts; the certificate path's guards, and the parser's
    # checks on malformed files, raise instead, so the output must come out
    # the same.
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_certificate_path_under_python_flags(self, tmp_path, flags):
        env = dict(os.environ, PYTHONPATH=str(Path(sgc.__file__).parent.parent))

        def run_m(*argv):
            done = subprocess.run([sys.executable, *flags, "-m", "sgc", *map(str, argv)],
                                  capture_output=True, text=True, cwd=tmp_path, env=env,
                                  timeout=60)
            return done.returncode, done.stdout, done.stderr

        c4 = tmp_path / "c4.sg"
        c4.write_text(render_sg(signed_cycle(4, negative=True)))
        neg_a = tmp_path / "neg_a.sg"
        neg_a.write_text(NEG_A_SG)
        loose = tmp_path / "loose.col"
        loose.write_text(C4_LOOSE_COL)
        assert run_m("chi", c4, "--certify") == (
            0, f"chi_c = 8/3\nwitness: {tmp_path / 'c4.col'}\n" + C4_CERTIFICATE, "")
        assert run_m("chi", neg_a, "--certify") == (
            0, f"chi_c = 10/3\nwitness: {tmp_path / 'neg_a.col'}\n" + NEG_A_CERTIFICATE, "")
        assert run_m("refine", c4, "--r", "4", "--coloring", loose) == (0, C4_REFINED, "")
        bad = tmp_path / "bad.sg"
        for text, error in [("sg 2\ne 0 1 +\ne 1 2 -\n", "line 3: endpoint out of range 0..1"),
                            ("sg 2\ne 0 1 *\n", "line 2: bad sign token '*' (want + or -)"),
                            (f"sg 2\ne 0 {'1' * 5000} +\n", "line 2: edge endpoints must be integers"),
                            ("sg 2\ne 0 \u00b2 +\n", "line 2: edge endpoints must be integers")]:
            bad.write_text(text, encoding="utf-8")
            assert run_m("chi", bad) == (1, "", f"parse error: {error}\n")

    def test_certify_without_edges(self, run, tmp_path):
        src = tmp_path / "empty.sg"
        src.write_text("sg 3\n")
        assert run("chi", src, "--certify") == (
            0, "chi_c = 1\nno certificate: graph has no edges\n", "")

    def test_unreadable_graph_path(self, run, tmp_path):
        code, out, err = run("chi", tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith(f"cannot open {tmp_path}: ") and err.count("\n") == 1

    def test_uncolorable_exit(self, run, tmp_path):
        src = tmp_path / "loop.sg"
        src.write_text("sg 1\ne 0 0 +\n")
        code, out, err = run("chi", src)
        assert code == 2
        assert err.startswith("uncolorable:")

    def test_budget_flag(self, run, tmp_path):
        src = tmp_path / "F.sg"
        src.write_text(render_sg(outerplanar_F()))
        # One node refutes 3; 10/3 needs a second.
        code, out, err = run("chi", src, "--budget", "1")
        assert code == 3
        assert err.startswith("budget exhausted: chi_c in (3 (6/2), 4], undecided at 10/3")
        code, out, err = run("chi", src, "--budget", "-5")
        assert (code, out) == (1, "")
        assert err == "usage error: --budget must be nonnegative, got -5\n"
        code, out, err = run("chi", src, "--budget", "0")
        assert code == 3
        assert err.startswith("budget exhausted: chi_c in (2, 4], undecided at 6/2")

    def test_budget_env(self, run, tmp_path, monkeypatch):
        src = tmp_path / "F.sg"
        src.write_text(render_sg(outerplanar_F()))
        monkeypatch.setenv("SGC_BUDGET", "1")
        code, out, err = run("chi", src)
        assert code == 3
        monkeypatch.setenv("SGC_BUDGET", "abc")
        code, out, err = run("chi", src)
        assert code == 1
        assert "SGC_BUDGET must be an integer" in err
        monkeypatch.setenv("SGC_BUDGET", "-3")
        for argv in (("chi", src), ("zset", src, "--u", 0, "--v", 1, "--r", 4),
                     ("chis", src)):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err == "usage error: SGC_BUDGET must be nonnegative, got -3\n"

    def test_witness_never_overwrites_the_input(self, run, tmp_path):
        src = tmp_path / "tri.col"
        text = "sg 3\ne 0 1 +\ne 1 2 +\ne 2 0 +\n"
        src.write_text(text)
        code, out, err = run("chi", src)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: the witness would overwrite the input")
        assert src.read_text() == text

    def test_missing_file(self, run):
        code, out, err = run("chi", "nope.sg")
        assert code == 1
        assert err == "no such file: nope.sg\n"

    def test_parse_error(self, run, tmp_path):
        src = tmp_path / "bad.sg"
        src.write_text("sg 2\ne 0 5 +\n")
        code, out, err = run("chi", src)
        assert code == 1
        assert err == "parse error: line 2: endpoint out of range 0..1\n"


class TestCliCheck:
    def test_valid_invalid_and_mismatch(self, run, c4_file, tmp_path):
        col = tmp_path / "c.col"
        col.write_text("coloring 8/3\n0 0\n1 3\n2 6\n3 1\n")
        assert run("check", c4_file, "--r", "8/3", "--coloring", col) == (
            0, "valid coloring\n", ""
        )
        col.write_text("coloring 8/3\n0 0\n1 1\n2 6\n3 1\n")
        assert run("check", c4_file, "--r", "8/3", "--coloring", col) == (
            2, "invalid coloring\n", ""
        )
        code, out, err = run("check", c4_file, "--r", "3", "--coloring", col)
        assert code == 1
        assert err == "coloring file is at 8/3, not 3\n"

    def test_bad_rational(self, run, c4_file, tmp_path):
        col = tmp_path / "c.col"
        col.write_text("coloring 8/3\n0 0\n1 3\n2 6\n3 1\n")
        code, out, err = run("check", c4_file, "--r", "x/y", "--coloring", col)
        assert code == 1
        assert "bad rational" in err

    # --r reads N and D as the file fields are read: an optional '-' and
    # ASCII digits, so no '_', no '+' and no other scripts' digits.
    @pytest.mark.parametrize("r", ["1_8/4", "+18/4", "18/+4", "\u0661\u0668/4", "18/\u0664",
                                   "\uff11\uff18/4", "18/0"])
    @pytest.mark.parametrize("command", ["zset", "check", "refine"])
    def test_rational_tokens_are_read_as_file_fields(self, run, c4_file, tmp_path, command, r):
        col = tmp_path / "c.col"
        col.write_text("coloring 18/4\n0 0\n1 5\n2 10\n3 1\n")
        where = ("--u", 0, "--v", 1) if command == "zset" else ("--coloring", col)
        assert run(command, c4_file, *where, "--r", r) == (
            1, "", f"usage error: bad rational {r!r} (want N or N/D)\n")

    @pytest.mark.parametrize("pq", ["3/0", "0/1", "-2/1"])
    def test_bad_coloring_header(self, run, c4_file, tmp_path, pq):
        col = tmp_path / "c.col"
        col.write_text(f"coloring {pq}\n0 0\n1 1\n2 0\n3 1\n")
        code, out, err = run("check", c4_file, "--r", "3", "--coloring", col)
        assert (code, out) == (1, "")
        assert err == f"parse error: line 1: p and q must be at least 1, got '{pq}'\n"


class TestCliZset:
    def test_golden_digon(self, run, tmp_path):
        src = tmp_path / "digon.sg"
        src.write_text(render_sg(signed_cycle(2, negative=True)))
        code, out, err = run("zset", src, "--u", "0", "--v", "1", "--r", "4")
        assert (code, err) == (0, "")
        assert out == (
            "Z-set at r = 4 (grid 4/1):\n"
            "  d = 0 : no\n"
            "  d = 1 : yes\n"
            "  d = 2 : no\n"
            "interval: [1, 1]\n"
        )

    def test_empty_set(self, run, tmp_path):
        src = tmp_path / "digon.sg"
        src.write_text(render_sg(signed_cycle(2, negative=True)))
        code, out, err = run("zset", src, "--u", "0", "--v", "1", "--r", "18/5")
        assert (code, err) == (0, "")
        assert out == (
            "Z-set at r = 18/5 (grid 18/5):\n"
            + "".join(f"  d = {Fraction(d, 5)} : no\n" for d in range(10))
            + "empty set\n"
        )

    def test_budget_exhausted(self, run, tmp_path, monkeypatch):
        src = tmp_path / "wenger_tilde.sg"
        src.write_text(render_sg(wenger_tilde()))
        monkeypatch.setenv("SGC_BUDGET", "10")
        assert run("zset", src, "--u", "8", "--v", "9", "--r", "18/4") == (
            3, "", "budget exhausted after 11 nodes\n")

    def test_golden_not_contiguous(self, run, tmp_path):
        # Vertex 2 sits one step from each terminal (a +- digon at 4/1 allows
        # offsets 1 and 3 only), so the terminals are 0 or 2 apart, never 1.
        src = tmp_path / "digons.sg"
        src.write_text("sg 3\ne 0 2 +\ne 0 2 -\ne 1 2 +\ne 1 2 -\n")
        code, out, err = run("zset", src, "--u", "0", "--v", "1", "--r", "4")
        assert (code, err) == (0, "")
        assert out == (
            "Z-set at r = 4 (grid 4/1):\n"
            "  d = 0 : yes\n"
            "  d = 1 : no\n"
            "  d = 2 : yes\n"
            "not contiguous\n"
        )


class TestCliGen:
    def test_stdout_mode_matches_renderer(self, run):
        code, out, err = run("gen", "wenger")
        assert (code, err) == (0, "")
        assert out == render_sg(wenger())

    def test_file_mode(self, run, tmp_path):
        dest = tmp_path / "w.sg"
        code, out, err = run("gen", "cycle", "5", "+", "-o", dest)
        assert (code, out) == (0, f"wrote {dest}\n")
        assert parse_sg(dest.read_text()) == signed_cycle(5, negative=False)

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("gen", "nope"), "unknown construction"),
            (("gen", "cycle", "4"), "cycle takes LENGTH +|-"),
            (("gen", "cycle", "4", "x"), "cycle sign must be + or -"),
            (("gen", "omega", "3"), "d must be even and at least 4"),
            (("gen", "clique", "14"), "clique takes P Q"),
            (("gen", "clique", "3", "1"), "p must be an even integer >= 2, got 3"),
            (("gen", "hat", "4", "3"), "need 1 <= q <= p/2, got q=3, p=4"),
        ],
    )
    def test_usage_errors(self, run, argv, fragment):
        code, out, err = run(*argv)
        assert code == 1
        assert err.startswith("usage error: ") and fragment in err


class TestCliEquiv:
    def test_three_outcomes(self, run, c4_file, tmp_path):
        pos = tmp_path / "c4pos.sg"
        pos.write_text(render_sg(signed_cycle(4, negative=False)))
        digon = tmp_path / "digon.sg"
        digon.write_text(render_sg(signed_cycle(2, negative=True)))
        assert run("equiv", c4_file, c4_file) == (0, "switching equivalent\n", "")
        assert run("equiv", c4_file, pos) == (2, "not switching equivalent\n", "")
        code, out, err = run("equiv", c4_file, digon)
        assert code == 1
        assert err.startswith("structural mismatch:")


class TestCliGirth:
    def test_golden(self, run, c4_file):
        assert run("girth", c4_file) == (
            0, "g00 = 2\ng01 = inf\ng10 = 4\ng11 = inf\n", ""
        )


class TestCliRefine:
    def test_golden_shrink(self, run, c4_file, tmp_path):
        col = tmp_path / "loose.col"
        col.write_text(C4_LOOSE_COL)
        code, out, err = run("refine", c4_file, "--r", "4", "--coloring", col)
        assert (code, err) == (0, "")
        assert out == C4_REFINED

    def test_optimal_refuses(self, run, c4_file, tmp_path):
        col = tmp_path / "opt.col"
        col.write_text("coloring 8/3\n0 0\n1 3\n2 6\n3 1\n")
        code, out, err = run("refine", c4_file, "--r", "8/3", "--coloring", col)
        assert (code, out) == (2, "tight cycle present\n")

    def test_grid_mismatch(self, run, c4_file, tmp_path):
        col = tmp_path / "opt.col"
        col.write_text("coloring 8/3\n0 0\n1 3\n2 6\n3 1\n")
        code, out, err = run("refine", c4_file, "--r", "4", "--coloring", col)
        assert code == 1
        assert err == "coloring file is at 8/3, not 4\n"


class TestCliChiS:
    def test_small_cycle(self, run, c4_file):
        assert run("chis", c4_file) == (0, "chi_s = 8/3\n", "")

    def test_capacity_guard(self, run, tmp_path):
        src = tmp_path / "k7.sg"
        edges = "".join(
            f"e {i} {j} +\n" for i in range(7) for j in range(i + 1, 7)
        )
        src.write_text("sg 7\n" + edges)
        code, out, err = run("chis", src)
        assert code == 4
        assert err.startswith("capacity guard:")

    def test_non_simple_rejected(self, run, tmp_path):
        src = tmp_path / "digon.sg"
        src.write_text(render_sg(signed_cycle(2, negative=True)))
        code, out, err = run("chis", src)
        assert code == 1
        assert err.startswith("error: underlying graph must be simple")



class TestCliIntegers:
    """Every integer the CLI reads, from an option, SGC_BUDGET or a gen
    parameter, is an optional '-' and ASCII digits, as in the files."""

    @pytest.mark.parametrize("token", ["1_0", "+2", "\u0661", "\uff16", " 3", "abc"])
    @pytest.mark.parametrize("argv,env,message", [
        (("chi", "G", "--budget", "T"), None, "argument --budget: invalid int value: {!r}"),
        (("chi", "G"), "T", "SGC_BUDGET must be an integer, got {!r}"),
        (("zset", "G", "--u", "T", "--v", 1, "--r", 4), None, "argument --u: invalid int value: {!r}"),
        (("zset", "G", "--u", 0, "--v", "T", "--r", 4), None, "argument --v: invalid int value: {!r}"),
        (("zset", "G", "--u", 0, "--v", 1, "--r", 4), "T", "SGC_BUDGET must be an integer, got {!r}"),
        (("chis", "G"), "T", "SGC_BUDGET must be an integer, got {!r}"),
        (("gen", "clique", "T", 2), None, "clique P must be an integer, got {!r}"),
        (("gen", "cycle", "T", "+"), None, "cycle LENGTH must be an integer, got {!r}"),
    ], ids=["chi-budget", "chi-env", "zset-u", "zset-v", "zset-env", "chis-env", "gen-clique",
            "gen-cycle"])
    def test_anything_else_is_a_usage_error(self, run, c4_file, monkeypatch,
                                            argv, env, message, token):
        # "G" stands for the graph file and "T" for the token under test.
        monkeypatch.delenv("SGC_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("SGC_BUDGET", token)
        argv = [{"G": c4_file, "T": token}.get(a, a) for a in argv]
        code, out, err = run(*argv)
        assert (code, out, err) == (1, "", f"usage error: {message.format(token)}\n")

    def test_leading_zeros_are_digits(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("SGC_BUDGET", "0001")
        code, out, err = run("gen", "cycle", "005", "+")
        assert (code, out, err) == (0, render_sg(signed_cycle(5, negative=False)), "")
        src = tmp_path / "F.sg"
        src.write_text(render_sg(outerplanar_F()))
        for argv in (("chi", src), ("chi", src, "--budget", "01")):
            code, out, err = run(*argv)
            assert code == 3 and err.startswith("budget exhausted: chi_c in (3 (6/2), 4]")


class TestCliUsage:
    def test_no_subcommand(self, run):
        code, out, err = run()
        assert code == 1
        assert err.startswith("usage error:")

    def test_unknown_subcommand(self, run):
        code, out, err = run("frobnicate")
        assert code == 1
        assert err.startswith("usage error:")

    def test_python_dash_m_sgc_runs_the_command(self, tmp_path):
        # From a checkout, with the package on PYTHONPATH and not installed.
        env = dict(os.environ, PYTHONPATH=str(Path(sgc.__file__).parent.parent))

        def run_m(*argv):
            return subprocess.run([sys.executable, "-m", "sgc", *argv], capture_output=True,
                                  text=True, cwd=tmp_path, env=env, timeout=60)

        done = run_m("gen", "wenger")
        assert (done.returncode, done.stdout, done.stderr) == (0, render_sg(wenger()), "")
        done = run_m()
        assert done.returncode == 1
        assert done.stderr.startswith("usage error:")
