"""Golden output of scripts/reproduce_values.py, the reproduction report; the
determinism, pinned digests and comparison mode of scripts/outcome_digest.py;
and the totals of scripts/code_size.py."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One line per value, with the seconds column removed.
GOLDEN = [
    '== cycle families ==',
    'chi_c of the negative cycle on 2 vertices                                   4',
    'chi_c of the positive cycle on 3 vertices                             3 (6/2)',
    'chi_c of the negative cycle on 3 vertices                                   2',
    'chi_c of the negative cycle on 4 vertices                                 8/3',
    'chi_c of the positive cycle on 5 vertices                          5/2 (10/4)',
    'chi_c of the negative cycle on 5 vertices                                   2',
    'chi_c of the negative cycle on 6 vertices                                12/5',
    'chi_c of the positive cycle on 7 vertices                          7/3 (14/6)',
    'chi_c of the negative cycle on 7 vertices                                   2',
    'chi_c of the negative cycle on 8 vertices                                16/7',
    'chi_c of the positive cycle on 9 vertices                          9/4 (18/8)',
    'chi_c of the negative cycle on 9 vertices                                   2',
    '== small named graphs ==',
    'outerplanar example                                                      10/3',
    'degree example d=4                                                          6',
    'digon                                                                       4',
    'signed circular clique 6/2                                            3 (6/2)',
    'signed circular clique 10/3                                              10/3',
    'pentagon pair embeds in clique 10/3 (shares its value)                   10/3',
    '== gadget compositions ==',
    'triangle with every edge replaced by the depth-2 ladder               3 (6/2)',
    'glued ladders feasible at 4 (grid 8/2)                                   True',
    'glued ladders feasible at 10/3                                          False',
    'depth-1 ladder separations at 18/5                         (0, 1, 2, 3, 4, 5, 6, 7, 8)',
    'depth-2 ladder separations at 18/5                         (2, 3, 4, 5, 6, 7, 8, 9)',
    'depth-3 ladder separations at 18/5                         (0, 1, 2, 3, 4, 5, 6)',
    'depth-4 ladder separations at 18/5                         (4, 5, 6, 7, 8, 9)',
    '== the 14/3 composition ==',
    'reference coloring of the expanded host checks at 28/6                   True',
    'reference coloring of the full composition checks at 28/6                True',
    'expanded-host apex separations at 18/4                     (3, 4, 5, 6, 7, 8, 9)',
    'full composition at 18/4 (3,000,000-node budget)           INFEASIBLE (proved) in 1602 nodes',
]


# The outcome digests: every value, refuted rung, witness, node count and
# relation mask they cover.  A change to any of these is declared, as node
# pins are.
SMOKE_DIGEST = "sha256 762d435a6d8b30263b509622a00c53d69537ee6715fd047d4764e128de2ece9c"
RELATIONS_SMOKE_DIGEST = "sha256 ab6aaedfdce251decea09cfa2c30cf150f34ff495aa91899b908b0789f5f9d46"
SEEDS_1_2_DIGEST = "sha256 976b2b03cf683d3fc606c1a42989e97610f3c2a2e69928bfedfe89fe915a675c"


# -O strips asserts; the package's output guards raise instead, so the
# report must come out the same.
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_reproduce_values_prints_every_headline_value(flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *flags, str(ROOT / "scripts" / "reproduce_values.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert re.sub(r"   \[\d+\.\d+s\]$", "", done.stdout, flags=re.M).splitlines() == GOLDEN


def test_outcome_digest_is_deterministic_and_digests_its_lines():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "outcome_digest.py"
    cmd = [sys.executable, str(script), "--smoke", "--seeds", "1", "2"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
            for _ in range(2)]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    *lines, last = runs[0].stdout.splitlines()
    assert len(lines) == 2 * 12  # the smoke corpus at each seed
    assert all(re.fullmatch(r"seed [12] #\d+ (value|bracket) .* witness \d+/\d+ [\d,]+ nodes \d+",
                            line) for line in lines)
    body = "".join(line + "\n" for line in lines)
    assert last == f"sha256 {hashlib.sha256(body.encode()).hexdigest()}"
    assert last == SMOKE_DIGEST


def test_outcome_digest_pins_the_whole_corpus_at_seeds_1_and_2():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "outcome_digest.py"),
                           "--seeds", "1", "2"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.splitlines()) == 2 * 500 + 1
    assert done.stdout.splitlines()[-1] == SEEDS_1_2_DIGEST


def test_outcome_digest_compares_against_an_old_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "outcome_digest.py"), "--smoke", "--seeds", "1"]
    plain = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    *lines, _ = plain.stdout.splitlines()
    total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)

    def against(old_lines):
        old = tmp_path / "old.txt"
        old.write_text("".join(line + "\n" for line in old_lines) + "sha256 0\n")
        done = subprocess.run([*cmd, "--against", str(old)], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.stderr == ""
        return done.returncode, done.stdout.splitlines()

    tally = "identical 12 nodes-only 0 newly-decided 0 newly-undecided 0 bracket-moved 0 changed 0"
    assert against(lines) == (0, [f"seed 1 nodes {total} -> {total} {tally}"])

    # Make the old side differ in each way: more nodes, another undecided
    # rung, an undecided bracket around the value found now, another value.
    old = list(lines)
    decided = [i for i, line in enumerate(lines) if re.search(r" refuted \d", line)]
    undecided = [i for i, line in enumerate(lines) if " bracket " in line]
    a, b, c = decided[:3]
    old[a] = re.sub(r"nodes (\d+)$", lambda m: f"nodes {int(m[1]) + 5}", old[a])
    old[b] = re.sub(r"value (\S+) refuted (\S+)", r"bracket (\2, \1] undecided \1", old[b])
    old[c] = re.sub(r"value \S+", "value 99", old[c])
    old[undecided[0]] = re.sub(r"undecided \S+", "undecided 1000", old[undecided[0]])
    code, report = against(old)
    assert code == 1
    assert sorted(line.split(":")[0] for line in report[:-1]) == sorted([
        f"seed 1 #{b} newly-decided", f"seed 1 #{c} changed",
        f"seed 1 #{undecided[0]} bracket-moved"])
    assert report[-1] == (f"seed 1 nodes {total + 5} -> {total} identical 8 nodes-only 1 "
                          "newly-decided 1 newly-undecided 0 bracket-moved 1 changed 1")


def test_outcome_digest_compares_relation_masks(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "outcome_digest.py"), "--relations", "--smoke"]
    plain = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert (plain.returncode, plain.stderr) == (0, "")
    *lines, last = plain.stdout.splitlines()
    assert [line.split(" mask ")[0] for line in lines] == [
        f"relation {subject} at {rung}" for rung in ("28/6", "18/4")
        for subject in ("wenger_tilde 8,9", "k4_omega-piece 0,1")]
    assert lines[2].endswith(" mask fff8 nodes 1718")  # apexes at 18/4: 3 <= d <= 15
    body = "".join(line + "\n" for line in lines)
    assert last == f"sha256 {hashlib.sha256(body.encode()).hexdigest()}"
    assert last == RELATIONS_SMOKE_DIGEST
    total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)

    def against(old_lines):
        old = tmp_path / "old.txt"
        old.write_text("".join(line + "\n" for line in old_lines) + "sha256 0\n")
        done = subprocess.run([*cmd, "--against", str(old)], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.stderr == ""
        return done.returncode, done.stdout.splitlines()

    assert against(lines) == (0, [f"relations nodes {total} -> {total} "
                                  "identical 4 nodes-only 0 changed 0"])
    old = list(lines)
    old[0] = re.sub(r"nodes (\d+)$", lambda m: f"nodes {int(m[1]) + 5}", old[0])
    old[3] = old[3].replace(" mask fff8 ", " mask fffc ")
    first = int(lines[0].rsplit(" ", 1)[1])
    assert against(old) == (1, [
        f"relation wenger_tilde 8,9 at 28/6 nodes {first + 5} -> {first}",
        "relation k4_omega-piece 0,1 at 18/4 changed: mask fffc -> fff8",
        f"relations nodes {total + 5} -> {total} identical 2 nodes-only 1 changed 1"])
    # A subject the old output lacks, such as a rung added since, is listed
    # and left out of the tally.
    assert against(lines[1:]) == (0, [
        "relation wenger_tilde 8,9 at 28/6 is not in the old output",
        f"relations nodes {total - first} -> {total - first} "
        "identical 3 nodes-only 0 changed 0"])


def test_code_size_totals_its_module_rows():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_size.py")],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted(path.name for path in (ROOT / "src" / "sgc").glob("*.py"))
    assert [name for name, *_ in rows] == modules
    assert [int(x) for x in total[1:]] == [sum(int(row[i]) for row in rows) for i in (1, 2)]
    assert total[0] == "total"
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
