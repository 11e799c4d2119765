#!/usr/bin/env python3
"""Recompute every headline value from scratch and print a small report.

Runs in well under a minute.  The last line decides the big clique
composition at circle size 18/4 under a 3,000,000-node budget and prints
the nodes it took.  The script takes no options.
"""

import argparse
import time
from fractions import Fraction

from sgc import (
    BudgetExhausted,
    Indicator,
    SolveBudget,
    chi_c,
    circular_clique_signed,
    feasible_pq,
    gamma,
    gamma_prime,
    k4_omega,
    k4_omega_coloring,
    omega_d,
    outerplanar_F,
    positive_clique,
    replace_edges,
    signed_cycle,
    spal5,
    verify_coloring,
    wenger_tilde,
    wenger_tilde_coloring,
    z_set,
)
from sgc.io_cli import fmt_value


def report(label: str, fn):
    start = time.monotonic()
    value = fn()
    print(f"{label:<58} {value!s:>18}   [{time.monotonic() - start:.2f}s]")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print("== cycle families ==")
    for k in range(1, 5):
        report(
            f"chi_c of the negative cycle on {2 * k} vertices",
            lambda k=k: fmt_value(chi_c(signed_cycle(2 * k, True)).value),
        )
        report(
            f"chi_c of the positive cycle on {2 * k + 1} vertices",
            lambda k=k: fmt_value(chi_c(signed_cycle(2 * k + 1, False)).value),
        )
        report(
            f"chi_c of the negative cycle on {2 * k + 1} vertices",
            lambda k=k: fmt_value(chi_c(signed_cycle(2 * k + 1, True)).value),
        )

    print("== small named graphs ==")
    report("outerplanar example", lambda: fmt_value(chi_c(outerplanar_F()).value))
    report("degree example d=4", lambda: fmt_value(chi_c(omega_d(4)).value))
    report("digon", lambda: fmt_value(chi_c(signed_cycle(2, True)).value))
    report(
        "signed circular clique 6/2",
        lambda: fmt_value(chi_c(circular_clique_signed(6, 2)).value),
    )
    report(
        "signed circular clique 10/3",
        lambda: fmt_value(chi_c(circular_clique_signed(10, 3)).value),
    )
    report(
        "pentagon pair embeds in clique 10/3 (shares its value)",
        lambda: fmt_value(chi_c(spal5()).value),
    )

    print("== gadget compositions ==")
    report(
        "triangle with every edge replaced by the depth-2 ladder",
        lambda: fmt_value(chi_c(replace_edges(positive_clique(3), gamma(2))).value),
    )
    report(
        "glued ladders feasible at 4 (grid 8/2)",
        lambda: feasible_pq(gamma_prime(2), 8, 2) is not None,
    )
    report(
        "glued ladders feasible at 10/3",
        lambda: feasible_pq(gamma_prime(2), 10, 3) is not None,
    )
    for i in range(1, 5):
        report(
            f"depth-{i} ladder separations at 18/5",
            lambda i=i: z_set(gamma(i), 18, 5).members(),
        )

    print("== the 14/3 composition ==")
    report(
        "reference coloring of the expanded host checks at 28/6",
        lambda: verify_coloring(wenger_tilde(), wenger_tilde_coloring(28, 6)),
    )
    report(
        "reference coloring of the full composition checks at 28/6",
        lambda: verify_coloring(k4_omega(), k4_omega_coloring(28, 6)),
    )
    report(
        "expanded-host apex separations at 18/4",
        lambda: z_set(Indicator(wenger_tilde(), 8, 9), 18, 4).members(),
    )

    def decide_18_4():
        budget = SolveBudget(max_nodes=3_000_000)
        try:
            witness = feasible_pq(k4_omega(), 18, 4, budget=budget)
        except BudgetExhausted as exc:
            return f"undecided after {exc.nodes} nodes"
        verdict = "INFEASIBLE (proved)" if witness is None else "FEASIBLE?!"
        return f"{verdict} in {budget.nodes} nodes"

    report("full composition at 18/4 (3,000,000-node budget)", decide_18_4)


if __name__ == "__main__":
    main()
