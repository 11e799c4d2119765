"""Golden output of scripts/reproduce_values.py, the reproduction report."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
    'full composition at 18/4 (3,000,000-node budget)           INFEASIBLE (proved) in 16876 nodes',
]


def test_reproduce_values_prints_every_headline_value():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_values.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert re.sub(r"   \[\d+\.\d+s\]$", "", done.stdout, flags=re.M).splitlines() == GOLDEN
