"""Path summary against path enumeration, heuristic by heuristic and for P*."""

from __future__ import annotations

from fractions import Fraction

from cardest.estimators import (ALL_CHOICES, HeuristicChoice, estimate_optimistic,
                                estimate_pstar)


def aggregate_paths(paths, choice: HeuristicChoice) -> tuple:
    """(value, considered paths, chosen path) of one 3x3 heuristic over a path
    list: the paths of the max or min hop count (every path for all-hops),
    then their max, min or arithmetic mean, ties going to the first extreme
    path in list order.  A reference that lists every path, for the
    library's one-pass path summary."""
    pool = list(paths)
    if choice.hop != "all-hops":
        pick = max if choice.hop == "max-hop" else min
        hops = pick(p.hops for p in pool)
        pool = [p for p in pool if p.hops == hops]
    if choice.aggr == "avg-aggr":
        return sum((p.estimate for p in pool), Fraction(0)) / len(pool), len(pool), None
    pick = max if choice.aggr == "max-aggr" else min   # both keep the first extreme
    best = pick(pool, key=lambda p: p.estimate)
    return best.estimate, len(pool), best


def pstar_paths(paths, true_count: int) -> tuple:
    """(value, considered paths, chosen path) of the path oracle P* over a
    path list: the first path in list order whose (q-error against
    `true_count`, estimate) is least.  A zero estimate has q-error 1 against
    truth 0 and is infinite against any other truth, and a non-zero estimate
    is infinite against truth 0.  A reference that lists every path, for the
    library's P* from the path summary."""
    pool = list(paths)

    def qerr(p) -> Fraction | float:
        if p.estimate == 0:
            return float("inf") if true_count else Fraction(1)
        if true_count == 0:
            return float("inf")
        return max(Fraction(true_count) / p.estimate, p.estimate / Fraction(true_count))

    best = min(pool, key=lambda p: (qerr(p), p.estimate))
    return best.estimate, len(pool), best


def summary_mismatches(summary, paths) -> list[str]:
    """The 3x3 heuristics whose value, path count or chosen path (edge for
    edge) read from `summary` differ from aggregating the listed `paths`."""
    out = []
    for choice in ALL_CHOICES:
        got = estimate_optimistic(None, None, "avg-degree", choice, summary=summary)
        want = aggregate_paths(paths, choice)
        if (got.exact, got.considered_paths, got.chosen_path) != want:
            out.append(f"{choice}: summary {got.exact} over {got.considered_paths} "
                       f"paths, enumeration {want[0]} over {want[1]}")
    return out


def pstar_mismatches(summary, paths, truths) -> list[str]:
    """The truths at which P* read from `summary` differs from the path-list
    P* over `paths` in value, path count or chosen path (edge for edge)."""
    out = []
    for truth in truths:
        got = estimate_pstar(None, None, "avg-degree", truth, summary=summary)
        want = pstar_paths(paths, truth)
        if (got.exact, got.considered_paths, got.chosen_path) != want:
            out.append(f"pstar at truth {truth}: summary {got.exact} over "
                       f"{got.considered_paths} paths, enumeration {want[0]} over {want[1]}")
    return out
