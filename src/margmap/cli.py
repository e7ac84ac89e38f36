"""Command-line front end: solve, oracle, bench, and gen subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .model import GraphicalModel
from .inference import DEFAULT_ORACLE_CAP, brute_force_mmap
from .heuristic import _explainable, epsilon_mmap2mar, mmap2mar
from .bench import BenchmarkSpec, emit_dat, run_benchmark
from .generate import random_grid_model
from .uaiio import parse_evid, parse_uai, write_uai


def _load_query(args: argparse.Namespace) -> tuple[GraphicalModel, dict[int, int], list[int]]:
    """The model, evidence and explain set named by a ``solve`` or ``oracle`` command line."""
    model = parse_uai(Path(args.model).read_text())
    evidence = {} if args.evidence is None else parse_evid(Path(args.evidence).read_text())
    if args.all_unobserved:
        return model, evidence, _explainable(model, evidence)
    return model, evidence, [int(v) for v in args.explain.split(",") if v.strip() != ""]


def _format_assignment(assignment: dict[int, int]) -> str:
    if not assignment:
        return "(empty)"
    return " ".join(f"X{v}={assignment[v]}" for v in sorted(assignment))


def _cmd_solve(args: argparse.Namespace) -> int:
    model, evidence, explain = _load_query(args)
    if args.epsilon is None:
        trace = mmap2mar(model, explain, evidence)
    else:
        trace = epsilon_mmap2mar(model, explain, evidence, epsilon=args.epsilon)
    print(f"model: {args.model} ({model.n_vars} variables, {len(model.potentials)} potentials)")
    print(f"evidence: {_format_assignment(evidence)}")
    print("steps:")
    for i, s in enumerate(trace.steps, start=1):
        probs = " ".join(repr(float(p)) for p in s.marginal.probs)
        print(
            f"  {i}: X{s.variable}={s.chosen_state}"
            f"  entropy={s.entropy_at_selection:.6f}  marginal=[{probs}]"
        )
    if trace.break_entropy is not None:
        print(f"stopped: minimum entropy {trace.break_entropy:.6f} >= epsilon {trace.epsilon}")
    print(f"explained: {_format_assignment(trace.explained)}")
    if trace.unexplained:
        print(f"unexplained: {' '.join(f'X{v}' for v in sorted(trace.unexplained))}")
    print(f"p~ = {trace.p_tilde!r}")
    print(f"confidence = {trace.confidence!r}")
    print(f"mar calls = {trace.mar_calls}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    model, evidence, explain = _load_query(args)
    solution = brute_force_mmap(model, evidence, explain, cap=args.oracle_cap)
    print(f"model: {args.model} ({model.n_vars} variables)")
    print(f"evidence: {_format_assignment(evidence)}")
    print(f"assignment: {_format_assignment(solution.assignment)}")
    print(f"p* = {solution.probability!r}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # a flag that is set beats the config file, which beats the default
    settings = {
        "k": 1,
        "q": 100,
        "epsilon_grid": [i / 20 for i in range(21)],
        "seed": 0,
        "oracle_cap": DEFAULT_ORACLE_CAP,
    }
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
        unknown = sorted(set(config) - set(settings))
        if unknown:
            raise ValueError(f"--config {args.config} has unknown keys {unknown}")
        settings.update(config)
    for key in settings:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    if isinstance(settings["epsilon_grid"], str):
        settings["epsilon_grid"] = [float(e) for e in settings["epsilon_grid"].split(",")]
    spec = BenchmarkSpec(model_path=args.model, **settings)
    points, results, skipped = run_benchmark(spec)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    emit_dat(
        points,
        results,
        match_path=f"{prefix}_match.dat",
        hamming_path=f"{prefix}_hamming.dat",
        csv_path=f"{prefix}_instances.csv",
        seed=spec.seed,
    )
    print(f"seed = {spec.seed}")
    print(f"model: {spec.model_path}  k={spec.k}  q={spec.q}")
    print("epsilon  exact_match  mean_hamming  mean_explained_fraction")
    for p in points:
        print(
            f"{p.epsilon:.4f}  {p.exact_match_rate:.4f}  "
            f"{p.mean_hamming:.4f}  {p.mean_explained_fraction:.4f}"
        )
    # sums of per-row run costs: a round shared across the grid counts in every row
    total_mar = sum(r.t_mar for r in results)
    total_mmap = sum(r.t_mmap for r in results)
    print(f"t_mar total = {total_mar:.3f}s  t_mmap total = {total_mmap:.3f}s")
    for s in skipped:
        print(f"skipped: epsilon={s.epsilon} instance={s.index}: {s.reason}", file=sys.stderr)
    print(f"wrote {prefix}_match.dat {prefix}_hamming.dat {prefix}_instances.csv")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model = random_grid_model(
        args.rows, args.cols, args.cardinality, rng=rng, sigma=args.sigma
    )
    text = write_uai(model)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({model.n_vars} variables, {len(model.potentials)} potentials)")
    return 0


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model file in UAI format")
    parser.add_argument("--evidence", help="evidence file (.evid format)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--explain", help="comma-separated variable ids to explain")
    group.add_argument(
        "--all-unobserved",
        action="store_true",
        help="explain every unobserved variable with at least two states",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margmap",
        description="Greedy marginal-guided MMAP inference for discrete graphical models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the greedy explainer on one instance")
    _add_query_arguments(p)
    p.add_argument(
        "--epsilon",
        type=float,
        help="entropy threshold; omit to explain every target variable",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="solve one instance exactly by constrained elimination")
    _add_query_arguments(p)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run the random-instance benchmark over an epsilon grid")
    p.add_argument("model", help="model file in UAI format")
    p.add_argument("--config", help="JSON file with k/q/epsilon_grid/seed/oracle_cap defaults")
    p.add_argument("--k", type=int, help="number of evidence variables per instance")
    p.add_argument("--q", type=int, help="instances per epsilon")
    p.add_argument(
        "--epsilons", dest="epsilon_grid", help="comma-separated increasing thresholds in [0, 1]"
    )
    p.add_argument("--seed", type=int, help="master seed (echoed in output headers)")
    p.add_argument("--oracle-cap", type=int)
    p.add_argument(
        "--out-prefix",
        required=True,
        help="writes <prefix>_match.dat, <prefix>_hamming.dat, <prefix>_instances.csv",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="emit a random grid/chain model in UAI format")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--cardinality", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=1.0, help="table log-scale spread")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
