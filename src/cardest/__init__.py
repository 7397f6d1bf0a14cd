"""Summary-based cardinality estimation for subgraph/join queries."""

from .catalogue import Catalogue, QueryStats, build_catalogue, load, save
from .errors import CardestError
from .estgraph import (Ceg, CegEdge, PathEstimate, PathSummary, build_cover, build_maxdeg,
                       build_optimistic, enumerate_paths, min_weight_path, path_summary,
                       to_dot)
from .estimators import (ALL_CHOICES, Estimate, HeuristicChoice, estimate_molp,
                         estimate_optimistic, estimate_pstar)
from .evalharness import (MethodSpec, QErrorRecord, QErrorSummary, RunResult,
                          WorkloadItem, expand_methods, qerror, run_workload,
                          summarize)
from .graphstore import LabeledGraph, load_graph
from .oracle import MatchCount, count_hom, sample_label_paths
from .querymodel import (CycleSet, QueryGraph, connected_index_sets, cycles,
                         instantiate_template, parse_query)
from .sketch import SketchPlan, estimate_with_sketch, make_sketch

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
