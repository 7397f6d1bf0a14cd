"""Path summary against path enumeration, heuristic by heuristic."""

from __future__ import annotations

from fractions import Fraction

from cardest.estimators import ALL_CHOICES, HeuristicChoice, estimate_optimistic


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
