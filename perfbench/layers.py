"""Which glfit functions the traced run wraps, and the per-layer metrics
derived from the spans and from the ops' own return values.

The layers are glfit's modules: specfun, quadrature, gl, circular,
estimate, simharness and cli. ``layer_map.json`` says which end-to-end
metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

import os

import numpy as np

from glfit import estimate
from workloads import JOBS

OBJECTIVES = ("gl_gq_negloglik", "gl_direct_negloglik", "pgl_gq_negloglik", "pn_negloglik")
OPTIMIZERS = ("nelder_mead", "quasi_newton")
FD = "estimate.finite_difference_gradient"
REASONS = (
    "simplex_diameter", "objective_spread", "gradient", "objective_change", "param_change",
    "maxiter", "line_search_failure", "non_finite_initial", "closed_form", "resultant_zero",
    "kappa_capped", "error", "other",
)


def _add(name, amount):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += amount(args, kwargs, result)
    return count


def _report_bytes(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return sum(os.path.getsize(os.path.join(path, f)) for f in ("summary.csv", "replications.csv"))


SETUP_TARGETS = {"gl.sample_gl": None, "circular.sample_pgl": None}

TARGETS = {
    "specfun.log_mills_bracket": _add("mills.elements", lambda a, k, r: np.size(a[0])),
    "specfun.log_bessel_k": _add("bessel.elements", lambda a, k, r: np.size(a[1])),
    "quadrature.gamma_rule": None,
    "circular._pn_log_matrix": _add("pn.cells", lambda a, k, r: np.size(a[0]) * np.size(a[3])),
    "circular.pgl_logpdf_exact": None,
    **{f"estimate.{o}": _add("penalties", lambda a, k, r: r >= estimate.PENALTY) for o in OBJECTIVES},
    **{f"estimate.{o}": _add(f"{o}.iterations", lambda a, k, r: r.iterations) for o in OPTIMIZERS},
    FD: None,
    "simharness.run_scenarios": None,
    "simharness.emit_report": _add("report.bytes", _report_bytes),
    "cli.main": None,
}


def per_layer(tracer, setup_tracer, misses, outputs, overhead_s, overhead_frac):
    """Every per-layer metric; layers a workload does not reach read 0."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    name = "specfun.log_mills_bracket"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.elements"] = counts["mills.elements"]
    m[f"{name}.self_s"] = self_s[name]
    m[f"{name}.ns_per_element"] = 1e9 * ratio(self_s[name], counts["mills.elements"])
    m[f"{name}.us_per_call"] = 1e6 * ratio(self_s[name], calls[name])
    name = "specfun.log_bessel_k"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.elements"] = counts["bessel.elements"]
    m[f"{name}.self_s"] = self_s[name]
    name = "quadrature.gamma_rule"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.misses"] = misses
    m[f"{name}.hit_ratio"] = ratio(calls[name] - misses, calls[name])
    m[f"{name}.self_s"] = self_s[name]
    name = "circular._pn_log_matrix"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.cells"] = counts["pn.cells"]
    m[f"{name}.self_s"] = self_s[name]
    m["circular.pgl_logpdf_exact.self_s"] = self_s["circular.pgl_logpdf_exact"]
    for name in SETUP_TARGETS:
        m[f"{name}.self_s"] = setup_tracer.self_s[name]

    objective_calls = 0
    fd_fevals = 0
    for o in OBJECTIVES:
        name = f"estimate.{o}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        objective_calls += calls[name]
        fd_fevals += tracer.pairs[(FD, name)]
    m["estimate.objective.penalty_share"] = ratio(counts["penalties"], objective_calls)
    for o in OPTIMIZERS:
        name = f"estimate.{o}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.iterations"] = counts[f"{o}.iterations"]
        m[f"{name}.self_s"] = self_s[name]
    m[f"{FD}.calls"] = calls[FD]
    m[f"{FD}.fevals_share"] = ratio(fd_fevals, objective_calls)

    fevals = [o["fevals"] for o in outputs if "fevals" in o and not o["key"].endswith("/vm")]
    m["estimate.fevals_per_fit"] = ratio(sum(fevals), len(fevals))
    m["estimate.fevals_max"] = max(fevals, default=0)
    reasons = dict.fromkeys(REASONS, 0)
    for o in outputs:
        if "reason" in o:
            code = "error" if o["reason"].startswith("error:") else o["reason"]
            reasons[code if code in reasons else "other"] += 1
    m.update({f"estimate.reason.{code}": n for code, n in reasons.items()})

    wall = tracer.total_s["simharness.run_scenarios"]
    m["simharness.run_scenarios.wall_s"] = wall
    busy = sum(o["seconds"] for o in outputs) if calls["cli.main"] else 0.0
    m["simharness.worker_busy_frac"] = ratio(busy, wall * JOBS)
    m["simharness.emit_report.self_s"] = self_s["simharness.emit_report"]
    m["simharness.emit_report.bytes"] = counts["report.bytes"]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_frac"] = overhead_frac
    return m
