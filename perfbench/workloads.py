"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

Models come from ``random_grid_model`` under a fixed seed and reach the
program as UAI text. Each workload has a fixed pool of instances drawn by
the benchmark's own RNG, with golden answers in ``golden/<workload>.json``;
the workload seed picks the order in which a run visits the pool, so every
answer of every run has a golden to check against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from itertools import islice
from pathlib import Path

import numpy as np

from margmap import cli, heuristic, inference, uaiio
from margmap.generate import random_grid_model

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9


def _pairs(mapping: dict[int, int]) -> list[list[int]]:
    return [[int(v), int(s)] for v, s in sorted(mapping.items())]


class Workload:
    name: str
    rows: int
    cols: int
    card: int
    model_seed: int
    pool_seed: int
    pool_size: int
    nominal_op_s: float  # seconds per operation on the seed code; sizes the traced run

    def model_text(self) -> str:
        rng = np.random.default_rng(self.model_seed)
        return uaiio.write_uai(random_grid_model(self.rows, self.cols, self.card, rng=rng, sigma=1.0))

    def pool(self) -> list[dict]:
        raise NotImplementedError

    def sequence(self, seed: int):
        """Pool indices in the order a run with this seed visits them."""
        rng = np.random.default_rng([seed, self.pool_seed])
        while True:
            yield from (int(i) for i in rng.permutation(self.pool_size))

    def inputs(self, seed: int) -> bytes:
        """Everything the program is given under ``seed``, as bytes."""
        head = list(islice(self.sequence(seed), 4 * self.pool_size))
        return json.dumps([self.model_text(), self.pool(), head]).encode()

    def golden(self) -> dict:
        return json.loads((GOLDEN_DIR / f"{self.name}.json").read_text())

    def input_errors(self, seed: int, text: str, pool: list[dict]) -> list[str]:
        """Inputs must repeat byte for byte and match the ones the goldens were made from."""
        errors = []
        if self.inputs(seed) != self.inputs(seed):
            errors.append("one seed gave different inputs twice")
        golden = self.golden()
        if hashlib.sha256(text.encode()).hexdigest() != golden["model_sha256"]:
            errors.append("model text differs from the one the goldens were made from")
        keys = pool[0].keys()
        if [{k: g[k] for k in keys} for g in golden["pool"]] != pool:
            errors.append("instance pool differs from the one the goldens were made from")
        return errors

    def run(self, model, model_path: Path, inst: dict, out: Path):
        raise NotImplementedError

    def queries(self, result) -> int:
        """Logical marginal queries the operation issued (sum of trace.mar_calls)."""
        raise NotImplementedError

    def answer(self, model, inst: dict, result) -> dict:
        """The golden record for one pool instance."""
        raise NotImplementedError

    def check(self, model, inst: dict, golden: dict, result, cache: dict) -> str | None:
        raise NotImplementedError


class Greedy(Workload):
    n_evidence: int
    n_targets: int | None  # None: every unobserved variable
    oracle: bool = False

    def pool(self) -> list[dict]:
        rng = np.random.default_rng(self.pool_seed)
        n = self.rows * self.cols
        entries = []
        for _ in range(self.pool_size):
            size = n if self.n_targets is None else self.n_evidence + self.n_targets
            order = [int(v) for v in rng.choice(n, size=size, replace=False)]
            evidence = {v: int(rng.integers(self.card)) for v in order[: self.n_evidence]}
            entries.append({"evidence": _pairs(evidence), "targets": sorted(order[self.n_evidence:])})
        return entries

    def run(self, model, model_path, inst, out):
        evidence = {v: s for v, s in inst["evidence"]}
        return heuristic.mmap2mar(model, inst["targets"], evidence)

    def queries(self, result) -> int:
        return result.mar_calls

    def answer(self, model, inst, result):
        record = {"explained": _pairs(result.explained)}
        if self.oracle:
            evidence = {v: s for v, s in inst["evidence"]}
            record["p_star"] = inference.brute_force_mmap(model, evidence, inst["targets"]).probability
        return record

    def check(self, model, inst, golden, result, cache):
        k = len(inst["targets"])
        if result.mar_calls != k * (k + 1) // 2:
            return f"mar_calls {result.mar_calls} != k(k+1)/2 = {k * (k + 1) // 2}"
        explained = _pairs(result.explained)
        if explained != golden["explained"]:
            return "explained assignment differs from the golden"
        key = json.dumps([inst["evidence"], explained])
        if key not in cache:
            evidence = {v: s for v, s in inst["evidence"] + explained}
            cache[key] = inference.pr(model, evidence)
        p = cache[key]
        if abs(result.p_tilde - p) > REL_TOL * abs(p):
            return f"p~ {result.p_tilde!r} != pr(evidence + explained) {p!r}"
        if "p_star" in golden and result.p_tilde > golden["p_star"] * (1 + REL_TOL):
            return f"p~ {result.p_tilde!r} exceeds the exact optimum {golden['p_star']!r}"
        return None


class GreedyAll(Greedy):
    name = "greedy-all"
    rows, cols, card = 6, 6, 2
    model_seed, pool_seed, pool_size = 6602, 1, 8
    n_evidence, n_targets = 4, None
    nominal_op_s = 3.2


class GreedyWide(Greedy):
    name = "greedy-wide"
    rows, cols, card = 5, 5, 12
    model_seed, pool_seed, pool_size = 5512, 2, 96
    n_evidence, n_targets = 2, 5
    oracle = True
    nominal_op_s = 0.2


class BenchSweep(Workload):
    name = "bench-sweep"
    rows, cols, card = 4, 4, 3
    model_seed, pool_seed, pool_size = 4403, 3, 48
    k, q, epsilons = 3, 1, "0,0.25,0.5,0.75,1"
    nominal_op_s = 1.0

    def pool(self) -> list[dict]:
        rng = np.random.default_rng(self.pool_seed)
        return [{"bench_seed": int(s)} for s in rng.integers(0, 2**31, size=self.pool_size)]

    def run(self, model, model_path, inst, out):
        argv = [
            "bench", str(model_path), "--k", str(self.k), "--q", str(self.q),
            "--seed", str(inst["bench_seed"]), "--epsilons", self.epsilons,
            "--out-prefix", str(out),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return {"code": code, "stderr": stderr.getvalue(), "prefix": str(out)}

    @staticmethod
    def _outputs(result) -> dict:
        """Output files, with the timing columns (t_*) cut from the CSV."""
        prefix = result["prefix"]
        match = Path(f"{prefix}_match.dat").read_text()
        hamming = Path(f"{prefix}_hamming.dat").read_text()
        rows, keep = [], None
        for line in Path(f"{prefix}_instances.csv").read_text().splitlines():
            if line.startswith("#"):
                rows.append(line)
                continue
            cells = line.split(",")
            if keep is None:
                keep = [i for i, c in enumerate(cells) if not c.startswith("t_")]
            rows.append(",".join(cells[i] for i in keep))
        return {"match": match, "hamming": hamming, "csv": rows}

    def queries(self, result) -> int:
        # Round j of a greedy run scores the n - j targets left; a run that
        # explained m < n variables stopped in round m.
        n = self.rows * self.cols - self.k
        rows = [r for r in self._outputs(result)["csv"] if not r.startswith("#")]
        col = rows[0].split(",").index("explained_fraction")
        total = 0
        for row in rows[1:]:
            m = round(float(row.split(",")[col]) * n)
            total += sum(n - j for j in range(min(m, n - 1) + 1))
        return total

    def answer(self, model, inst, result):
        return self._outputs(result)

    def check(self, model, inst, golden, result, cache):
        if result["code"] != 0:
            return f"margmap bench exited with {result['code']}: {result['stderr'].strip()}"
        skipped = [line for line in result["stderr"].splitlines() if line.startswith("skipped:")]
        if skipped:
            return f"{len(skipped)} skipped instance(s): {skipped[0]}"
        outputs = self._outputs(result)
        for key in ("match", "hamming", "csv"):
            if outputs[key] != golden[key]:
                return f"bench {key} output differs from the golden"
        return None


WORKLOADS = {w.name: w for w in (GreedyAll(), GreedyWide(), BenchSweep())}


def make_golden(workload: Workload, work: Path) -> None:
    """Answer every pool instance with the current code and store the answers."""
    text = workload.model_text()
    model_path = work / f"{workload.name}.uai"
    model_path.write_text(text)
    model = uaiio.parse_uai(text)
    pool = []
    for i, inst in enumerate(workload.pool()):
        result = workload.run(model, model_path, inst, work / f"golden{i}")
        answer = workload.answer(model, inst, result)
        error = workload.check(model, inst, answer, result, {})
        if error is not None:
            raise RuntimeError(f"{workload.name} instance {i}: {error}")
        pool.append({**inst, **answer})
    golden = {"model_sha256": hashlib.sha256(text.encode()).hexdigest(), "pool": pool}
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{workload.name}.json").write_text(json.dumps(golden, indent=1) + "\n")
