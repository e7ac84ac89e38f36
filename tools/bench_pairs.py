"""Alternating benchmark pairs: a base revision against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --label plan                 # 10 pairs on every workload
    python3 tools/bench_pairs.py --label x --workloads greedy-all --pairs 3

The base revision (``HEAD`` unless ``--base`` names another) is unpacked
with ``git archive`` into a temporary directory. For each workload and each
seed ``first_seed + i``, ``python3 perfbench/run.py --workload W --seed i
--trace 0`` runs once in the base tree and once in the working tree, one
after the other; the side that goes first alternates from pair to pair.
Each run lasts the benchmark's own ``RUN_SECONDS`` (``perfbench/manifest.py``).
``BENCH_<label>.json`` gets the machine, the Python and numpy versions, the
base revision, the working tree's (its ``HEAD``, and one sha256 over its
uncommitted diff and its untracked files, named), the base's
``RUN_SECONDS``, the seeds, the last JSON line of every run, and per
workload and side the median of each metric. Per workload it also gets, for
each end-to-end metric of the base's ``BENCHMARK.json``, how many pairs the
change won in that metric's ``better`` direction and the distance between
the base's quartiles as a share of the base's median. A run whose answers are not
``correct`` or that has ``failed`` operations stops the script with a
non-zero exit that names its workload, seed and side, and no file is
written. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("greedy-all", "greedy-wide", "bench-sweep")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(revision: str, into: Path) -> None:
    """The files of ``revision``, as ``git archive`` gives them, under ``into``."""
    archive, tree = into / "base.tar", into / "tree"
    git("archive", "--output", str(archive), revision)
    tree.mkdir()
    subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(tree)], check=True)
    archive.unlink()


def working_tree() -> dict:
    """The working tree: its ``HEAD``, its untracked files (not the ignored ones),
    and one sha256 over ``git diff HEAD`` and each untracked file's name and
    bytes, or ``None`` when it holds nothing beyond ``HEAD``."""
    diff = git("diff", "HEAD")
    untracked = git("ls-files", "--others", "--exclude-standard").splitlines()
    digest = hashlib.sha256(diff.encode())
    for name in untracked:
        digest.update(name.encode() + b"\0" + (ROOT / name).read_bytes())
    return {
        "head": git("rev-parse", "HEAD"),
        "untracked": untracked,
        "uncommitted_sha256": digest.hexdigest() if diff or untracked else None,
    }


def run(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``: its last output line, parsed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(command)} in {tree} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def medians(runs: list[dict]) -> dict[str, float]:
    names = runs[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in runs) for n in names}


def end_to_end(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per end-to-end metric: the pairs the change won, and the base's spread.

    A pair is the base's and the change's run on one seed; the change wins it
    when its value is strictly better in the metric's ``better`` direction.
    The spread is the distance between the base's quartiles (as
    ``statistics.quantiles`` takes them by default) over the base's median,
    or ``None`` from a single pair.
    """
    summary = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if direction == "higher" else -1.0
        spread = None
        if len(base) > 1:
            q1, _, q3 = statistics.quantiles(base, n=4)
            spread = (q3 - q1) / statistics.median(base)
        summary[name] = {
            "better": direction,
            "pairs_won": sum(sign * (c - b) > 0.0 for b, c in zip(base, change)),
            "pairs": len(base),
            "base_iqr_share": spread,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--base", default="HEAD", help="the revision to compare against")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)

    base = git("rev-parse", args.base)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    record = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "base": base,
        "change": working_tree(),
        "command": "perfbench/run.py --workload W --seed i --trace 0",
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        unpack(base, Path(scratch))
        trees = {"base": Path(scratch) / "tree", "change": ROOT}
        manifest = runpy.run_path(str(trees["base"] / "perfbench" / "manifest.py"))
        record["run_seconds"] = manifest["RUN_SECONDS"]
        declared = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
        better = {m["name"]: m["better"] for m in declared}
        for workload in args.workloads.split(","):
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    runs[side].append(run(trees[side], workload, seed))
                    last = runs[side][-1]
                    said = (
                        f"{workload} seed {seed} {side}: "
                        f"correct {last['correct']}, failed {last['failed']}"
                    )
                    # run.py exits 0 on wrong answers and failed operations too
                    if last["correct"] is not True or last["failed"]:
                        raise SystemExit(f"{said}; no BENCH file is written")
                    ops = last["metrics"]["ops_per_s"]["value"]
                    print(f"{said}, ops_per_s {ops:.2f}", flush=True)
            record["workloads"][workload] = {
                "runs": runs,
                "medians": {side: medians(r) for side, r in runs.items()},
                "end_to_end": end_to_end(runs, better),
            }
            for name, got in record["workloads"][workload]["end_to_end"].items():
                spread = got["base_iqr_share"]
                print(
                    f"{workload} {name}: change won {got['pairs_won']}/{got['pairs']} pairs, "
                    f"base IQR {'-' if spread is None else f'{spread:.1%}'} of its median",
                    flush=True,
                )
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
