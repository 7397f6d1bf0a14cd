"""Path summary against path enumeration, heuristic by heuristic."""

from __future__ import annotations

from cardest.estimators import ALL_CHOICES, estimate_optimistic


def summary_mismatches(summary, paths, q=None, cat=None, ceg_kind="avg-degree") -> list[str]:
    """The 3x3 heuristics whose value, path count or chosen path (edge for
    edge) read from `summary` differ from aggregating the listed `paths`."""
    out = []
    for choice in ALL_CHOICES:
        got = estimate_optimistic(q, cat, ceg_kind, choice, summary=summary)
        want = estimate_optimistic(q, cat, ceg_kind, choice, paths=paths)
        if (got.exact, got.considered_paths, got.chosen_path) != \
                (want.exact, want.considered_paths, want.chosen_path):
            out.append(f"{choice}: summary {got.exact} over {got.considered_paths} "
                       f"paths, enumeration {want.exact} over {want.considered_paths}")
    return out
