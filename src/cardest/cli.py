"""Command-line entry point.

Subcommands: build-catalogue, estimate, gen-workload, oracle-count, eval.
A key=value config file can seed any flag; explicit flags win.  All
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import catalogue as cat_mod
from .errors import (CardestError, CatalogueFormatError, ConfigError,
                     GraphParseError, MissingStatisticError, PathOverflowError,
                     QueryParseError, QueryValidationError, SketchPlanError)
from .estgraph import build_maxdeg, build_optimistic, to_dot
from .estimators import KIND_CLOSING
from .evalharness import WorkloadItem, expand_methods, run_workload
from .graphstore import load_graph_file
from .oracle import count_hom
from .querymodel import (QueryGraph, connected_index_sets, instantiate_template, parse_query,
                         parse_query_file)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_USAGE = 2
EXIT_MISSING_STATS = 3
EXIT_PARSE = 4
EXIT_SKETCH = 5
EXIT_OVERFLOW = 6


class UsageError(CardestError):
    """A flag value the command cannot use (exit 2, like argparse's own errors)."""


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def parse_workload_text(text: str) -> list[WorkloadItem]:
    items: list[WorkloadItem] = []
    block: list[str] = []
    qid = template = None

    def flush():
        nonlocal block, qid, template
        if any(line.strip() and not line.strip().startswith("#") for line in block):
            query = parse_query("\n".join(block))
            name = qid if qid else f"q{len(items):04d}"
            items.append(WorkloadItem(name, template or "", query))
        block, qid, template = [], None, None

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("# id:"):
            qid = line[5:].strip()
        elif line.startswith("# template:"):
            template = line[11:].strip()
        else:
            block.append(raw)
    flush()
    return items


def load_workload_file(path: str) -> list[WorkloadItem]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_workload_text(handle.read())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cardest")
    parser.add_argument("--config", help="key=value file supplying default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=False)
        p.add_argument("--h", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--walk-budget", type=int, default=1000)
        p.add_argument("--sketch-k", type=int, default=1)
        p.add_argument("--methods", default="all")
        p.add_argument("--out")
        p.add_argument("--dump-ceg")

    p = sub.add_parser("build-catalogue", help="build and save a statistics catalogue")
    common(p)
    p.add_argument("--workload", help="workload file supplying the patterns")
    p.add_argument("--query", help="single query file supplying the patterns")
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("estimate", help="estimate one query with the chosen methods")
    common(p)
    p.add_argument("--query", required=True)
    p.add_argument("--catalogue", help="reuse a saved catalogue")

    p = sub.add_parser("gen-workload", help="instantiate a template into a workload")
    common(p)
    p.add_argument("--template", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--mode", choices=("uniform-labels", "edge-at-a-time"),
                   default="uniform-labels")
    p.add_argument("--time-limit", type=float, default=30.0,
                   help="seconds per edge-at-a-time instance; a safety stop only")

    p = sub.add_parser("oracle-count", help="exact answer count of one query")
    common(p)
    p.add_argument("--query", required=True)

    p = sub.add_parser("eval", help="run a workload and emit results CSV + summary JSON")
    common(p)
    p.add_argument("--workload", required=True)
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    if not args.config:
        return
    explicit = {a.split("=", 1)[0].lstrip("-").replace("_", "-")
                for a in argv if a.startswith("--")}
    for key, value in _read_config(args.config).items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or key in explicit:
            continue
        current = getattr(args, attr)
        if isinstance(current, bool):
            setattr(args, attr, value.lower() in ("1", "true", "yes"))
        elif isinstance(current, (int, float)):
            try:
                setattr(args, attr, type(current)(value))
            except ValueError:
                raise ConfigError(f"{args.config}: {key} needs a number, got {value!r}") from None
        else:
            setattr(args, attr, value)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv)
        return _dispatch(args)
    except UsageError as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphParseError, QueryParseError, QueryValidationError,
            CatalogueFormatError, ConfigError) as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MissingStatisticError as exc:
        print(f"error (statistics): {exc}", file=sys.stderr)
        return EXIT_MISSING_STATS
    except SketchPlanError as exc:
        print(f"error (sketch): {exc}", file=sys.stderr)
        return EXIT_SKETCH
    except PathOverflowError as exc:
        print(f"error (enumeration): {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except CardestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_OTHER


def _methods(args):
    try:
        return expand_methods(args.methods.split(","))
    except ValueError as exc:
        raise UsageError(f"--methods: {exc}") from None


def _need_graph(args):
    if not args.graph:
        raise ConfigError("--graph is required")
    return load_graph_file(args.graph)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "build-catalogue":
        return _cmd_build_catalogue(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "gen-workload":
        return _cmd_gen_workload(args)
    if args.command == "oracle-count":
        return _cmd_oracle_count(args)
    if args.command == "eval":
        return _cmd_eval(args)
    raise ConfigError(f"unknown command {args.command!r}")


def _cmd_build_catalogue(args) -> int:
    g = _need_graph(args)
    if args.exhaustive:
        workload = None
    elif args.workload:
        workload = [it.query for it in load_workload_file(args.workload)]
    elif args.query:
        workload = [parse_query_file(args.query)]
    else:
        raise ConfigError("need --workload, --query, or --exhaustive")
    cat = cat_mod.build_catalogue(g, workload, args.h, walk_budget=args.walk_budget,
                                  seed=args.seed, exhaustive=args.exhaustive)
    out = args.out or "catalogue.json"
    cat_mod.save(cat, out)
    print(f"catalogue: {len(cat.counts)} patterns, {len(cat.closing)} closing rates, "
          f"{cat.footprint_bytes()} bytes -> {out}")
    return EXIT_OK


def _estimate_query(args, g, query: QueryGraph):
    methods = _methods(args)
    if args.catalogue:
        catalogue = cat_mod.load(args.catalogue)
        catalogue.check_h(args.h)
        # missing patterns exit as missing statistics (3) before the graph check (4)
        stats = cat_mod.QueryStats(query, catalogue)
        for s in connected_index_sets(query, catalogue.h):
            stats.count(s)
        catalogue.check_graph(g)
    else:
        catalogue = cat_mod.build_catalogue(g, [query], args.h, walk_budget=args.walk_budget,
                                            seed=args.seed)
    result = run_workload(g, [WorkloadItem("q0000", "", query)], methods, h=args.h,
                          seed=args.seed, walk_budget=args.walk_budget,
                          sketch_k=args.sketch_k, catalogue=catalogue)
    return result, catalogue


def _cmd_estimate(args) -> int:
    g = _need_graph(args)
    query = parse_query_file(args.query)
    result, cat = _estimate_query(args, g, query)
    for record in result.records:
        if record.error:
            print(f"{record.method}\tERROR\t{record.error}")
        else:
            print(f"{record.method}\t{record.estimate:.6g}\ttrue={record.true_count}"
                  f"\tqerror={float(record.qerror) if record.qerror else 'inf'}")
    if args.dump_ceg:
        base, ext = os.path.splitext(args.dump_ceg)
        with open(args.dump_ceg, "w", encoding="utf-8") as handle:
            handle.write(to_dot(build_optimistic(query, cat)))
        with open(f"{base}.maxdeg{ext or '.dot'}", "w", encoding="utf-8") as handle:
            handle.write(to_dot(build_maxdeg(query, cat)))
        if any(r.ceg_kind == KIND_CLOSING for r in result.records):
            with open(f"{base}.closing{ext or '.dot'}", "w", encoding="utf-8") as handle:
                handle.write(to_dot(build_optimistic(query, cat, closing=True)))
    failed = [r.error for r in result.records
              if r.error and "zero true count" not in r.error]
    if any("MissingStatistic" in err for err in failed):
        return EXIT_MISSING_STATS
    if any("SketchPlan" in err for err in failed):
        return EXIT_SKETCH
    if any("PathOverflow" in err for err in failed):
        return EXIT_OVERFLOW
    return EXIT_OK


def _cmd_gen_workload(args) -> int:
    g = _need_graph(args)
    template = parse_query_file(args.template, allow_template=True)
    name = os.path.splitext(os.path.basename(args.template))[0]
    lines: list[str] = [f"# seed: {args.seed}", f"# mode: {args.mode}", ""]
    made = 0
    for i in range(args.count):
        started = time.monotonic()
        inst = instantiate_template(template, g, seed=args.seed + i, mode=args.mode,
                                    time_limit=args.time_limit)
        if inst is None:
            if args.mode == "edge-at-a-time" and time.monotonic() - started >= args.time_limit:
                print(f"seed {args.seed + i}: the --time-limit safety stop "
                      f"({args.time_limit:g}s) ended the search", file=sys.stderr)
            continue
        lines.append(f"# id: {name}_{made:03d}")
        lines.append(f"# template: {name}")
        lines.append(inst.to_text().rstrip("\n"))
        lines.append("")
        made += 1
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(f"generated {made}/{args.count} instances", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle_count(args) -> int:
    g = _need_graph(args)
    query = parse_query_file(args.query)
    print(count_hom(g, query).value)
    return EXIT_OK


def _cmd_eval(args) -> int:
    g = _need_graph(args)
    items = load_workload_file(args.workload)
    methods = _methods(args)
    result = run_workload(g, items, methods, h=args.h, seed=args.seed,
                          walk_budget=args.walk_budget, sketch_k=args.sketch_k)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(result.csv_text())
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(result.summary_json())
    for method, summary in sorted(result.method_summaries.items()):
        print(f"{method}\tn={summary.n}\tp50={summary.p50:+.3f}\t"
              f"trimmedMean={summary.trimmed_mean:+.3f}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
