"""The four glfit benchmark workloads.

Every workload fits or evaluates data that is fixed by the simulation
harness's base seed (``simharness.DEFAULT_BASE_SEED`` unless told
otherwise): the datasets are the harness's own replications, drawn with
``replication_seed`` and the package samplers, so each op lines up with
the committed reference. The benchmark seed only orders the ops inside
each round. Fit cost is heavy-tailed across datasets (one quasi-Newton
fit on ``pgl_bimodal_n100`` uses 41,217 objective evaluations where the
median fit uses about 260), so drawing new datasets per seed would move
the timings by more than any bound a regression check could use.

An op is one public call: one fit, one oracle chunk, or one
``glfit simulate`` run whose fits are then read back from its report.
Each op returns a list of output records keyed like the reference.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from functools import partial

import numpy as np

from glfit import circular, cli, estimate, gl, simharness

DEFAULT_BASE_SEED = simharness.DEFAULT_BASE_SEED
LOGLIK_RTOL = 1e-6
LOGPDF_ATOL = 1e-8

# Seconds one round takes on the reference machine (2-core AMD EPYC,
# Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread). A round is one
# replication of every cell and method (averaged over reps 0-7), one
# pass over the oracle grid, or one replication inside the simulate run.
# ``--seconds`` buys round(seconds / ROUND_SECONDS) rounds, so equal
# settings always run the same ops, whatever the speed of the code.
ROUND_SECONDS = {"gl_sim": 6.0, "pgl_sim": 5.1, "pgl_oracle": 5.5, "simulate_jobs2": 3.4}

# pgl_sim's replication window ends at this rep: rep 7 of
# pgl_bimodal_n100 at the default seed is the 41,217-evaluation QN fit.
TAIL_REP = 7
ORACLE_POINTS = 361
ORACLE_CHUNK = 19
JOBS = 2


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def digest(values) -> str:
    arr = np.ascontiguousarray(values, dtype=float)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def draw(scenario, rep: int, base_seed: int) -> np.ndarray:
    """The dataset the harness fits for ``scenario`` at replication ``rep``."""
    rng = np.random.default_rng(simharness.replication_seed(base_seed, scenario.identifier, rep))
    if scenario.family == "gl":
        return gl.sample_gl(scenario.params, scenario.n, rng)
    return circular.sample_pgl(scenario.params, scenario.n, rng)


def fit_op(key: str, family: str, method: str, data, maxiter: int) -> list[dict]:
    if family == "gl":
        fit = estimate.fit_gl(data, method=method, maxiter=maxiter)
    elif method == "pn":
        fit = estimate.fit_pn(data, maxiter=maxiter)
    elif method == "vm":
        fit = estimate.fit_vm(data)
    else:
        fit = estimate.fit_pgl(data, method=method, maxiter=maxiter)
    return [{
        "key": key,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "reason": fit.termination_reason,
        "fevals": fit.function_evals,
        "iterations": fit.iterations,
    }]


def is_gq(key: str) -> bool:
    return key.rsplit("/", 1)[-1].startswith("gq_")


class SimWorkload:
    """Fits of one harness part, one op per (cell, rep, method)."""

    def __init__(self, name: str, reps, base_seed: int, seed: int):
        self.family = "gl" if name == "gl_sim" else "pgl"
        scenarios = simharness.builtin_scenarios(
            1 if self.family == "gl" else 2, replications=max(reps) + 1, base_seed=base_seed
        )
        self.datasets = {}
        self.ops = []
        order = random.Random(seed)
        for rep in reps:
            round_ops = []
            for s in scenarios:
                data = draw(s, rep, base_seed)
                self.datasets[f"{s.identifier}/{rep}"] = digest(data)
                for method in s.methods:
                    key = f"{s.identifier}/{rep}/{method}"
                    round_ops.append((key, partial(fit_op, key, self.family, method, data, s.maxiter)))
            order.shuffle(round_ops)
            self.ops.extend(round_ops)
        # Warm-up fits stop after a few iterations: set-up time should not
        # depend on how hard the warm-up dataset is to fit.
        warm = scenarios[0]
        self._warm = [partial(fit_op, "warm-up", self.family, m, draw(warm, -1, base_seed), maxiter=10)
                      for m in warm.methods]

    def warm_up(self):
        for call in self._warm:
            call()

    @staticmethod
    def op_times(outputs):
        """Per-op seconds of the quadrature fits; pn/vm fits are 10-1000x
        cheaper and would split the median between two clusters."""
        return [o["seconds"] for o in outputs if is_gq(o["key"])]


class OracleWorkload:
    """``pgl_logpdf_exact`` over the density grid, one op per chunk.

    The grid is the 361-point ``glfit density`` grid shifted by half a
    step, which keeps it off theta's direction (pi), where the bimodal
    law (alpha = 0.5) has an integrable singularity and the oracle
    returns inf.
    """

    def __init__(self, passes: int, seed: int):
        grid = -np.pi + 2.0 * np.pi * (np.arange(ORACLE_POINTS) + 0.5) / ORACLE_POINTS
        laws = {s.identifier.rsplit("_n", 1)[0]: s.params for s in simharness.builtin_scenarios(2, sizes=(1,))}
        self.datasets = {"oracle_grid": digest(grid)}
        chunks = []
        for law, params in laws.items():
            for c in range(ORACLE_POINTS // ORACLE_CHUNK):
                key = f"{law}/{c:02d}"
                angles = grid[c * ORACLE_CHUNK:(c + 1) * ORACLE_CHUNK]
                chunks.append((key, partial(self.chunk_op, key, angles, params)))
        order = random.Random(seed)
        self.ops = []
        for _ in range(passes):
            order.shuffle(chunks)
            self.ops.extend(chunks)
        self._warm = [call for key, call in chunks if key.endswith("/00")]

    @staticmethod
    def chunk_op(key, angles, params) -> list[dict]:
        return [{"key": key, "logpdf": [float(v) for v in circular.pgl_logpdf_exact(angles, params)]}]

    def warm_up(self):
        for call in self._warm:
            call()

    @staticmethod
    def op_times(outputs):
        """Per-op seconds of the bimodal-law chunks; the unimodal chunks
        take half as long and would put the median between two clusters."""
        return [o["seconds"] for o in outputs if o["key"].startswith("pgl_bimodal/")]


class SimulateWorkload:
    """``glfit simulate --part 2 --jobs 2`` in-process, read back with
    ``load_replications``; one op per fit in the report."""

    def __init__(self, n_reps: int, base_seed: int, out_dir: str):
        self.base_seed = base_seed
        self.out_dir = out_dir
        self.datasets = {}
        for s in simharness.builtin_scenarios(2, replications=n_reps, base_seed=base_seed):
            for rep in range(n_reps):
                self.datasets[f"{s.identifier}/{rep}"] = digest(draw(s, rep, base_seed))
        self.ops = [("simulate", partial(self.simulate_op, n_reps))]

    def simulate_op(self, n_reps: int, *options) -> list[dict]:
        argv = ["simulate", "--part", "2", "--reps", str(n_reps), "--seed", str(self.base_seed),
                "--jobs", str(JOBS), "--out", self.out_dir, *options]
        try:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"glfit simulate exited with {code}")
            records = simharness.load_replications(os.path.join(self.out_dir, "replications.csv"))
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        outputs = []
        for r in records:
            if r.seed != simharness.replication_seed(self.base_seed, r.scenario, r.rep):
                raise DatasetMismatch(f"{r.scenario}/{r.rep} ran with seed {r.seed}")
            outputs.append({
                "key": f"{r.scenario}/{r.rep}/{r.method}",
                "loglik": r.loglik,
                "converged": r.converged,
                "reason": r.reason,
                "seconds": r.time_s,
            })
        return outputs

    def warm_up(self):
        self.simulate_op(1, "--sizes", "30", "--methods", "vm")

    @staticmethod
    def op_times(outputs):
        """Fit seconds as timed by the program inside the workers."""
        return [o["seconds"] for o in outputs if is_gq(o["key"])]


class DatasetMismatch(RuntimeError):
    """The generated inputs differ from the reference's: a different workload."""


def make(name: str, seconds: float, base_seed: int, seed: int, out_dir: str):
    n = rounds(name, seconds)
    if name == "gl_sim":
        return SimWorkload(name, range(n), base_seed, seed)
    if name == "pgl_sim":
        first = max(0, TAIL_REP + 1 - n)
        return SimWorkload(name, range(first, first + n), base_seed, seed)
    if name == "pgl_oracle":
        return OracleWorkload(n, seed)
    if name == "simulate_jobs2":
        return SimulateWorkload(n, base_seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def mismatch(out: dict, ref) -> bool:
    """True when an output is outside tolerance of its reference entry.

    A fit mismatches when the reference converged and the fit did not, or
    when its loglik is below the reference's; a higher loglik is a better
    optimum and does not count.
    """
    if ref is None or "error" in out:
        return False
    if "logpdf" in out:
        diff = np.abs(np.asarray(out["logpdf"]) - np.asarray(ref))
        return not bool(np.all(diff <= LOGPDF_ATOL))
    if not out["converged"]:
        return bool(ref["converged"])
    return not out["loglik"] >= ref["loglik"] - LOGLIK_RTOL * max(1.0, abs(ref["loglik"]))


def reference_entry(out: dict):
    if "logpdf" in out:
        return out["logpdf"]
    return {k: out[k] for k in ("loglik", "converged", "reason", "fevals") if k in out}
