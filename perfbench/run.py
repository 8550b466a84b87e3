"""Run one glfit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pgl_sim --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports glfit from ``src/``.
Prints one ``name = value unit`` line per metric, a machine fingerprint,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``. The full
result, with every op's output in the reference format, is written to
``perfbench/results/``.

The traced run wraps glfit functions with the spans of ``tracer.py``
and writes them to ``perfbench/results/spans_*.csv``. It first runs the
same ops untraced; the difference in wall time is the tracing overhead.

``--make-reference`` writes ``perfbench/reference/seed<base seed>.json``
from a run over every op any workload reaches at ``--seconds``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("gl_sim", "pgl_sim", "pgl_oracle", "simulate_jobs2")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
EXIT_DATASET = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="orders the ops inside each round")
    p.add_argument("--seconds", type=float, required=True, help="sizes the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base-seed", type=int, default=None,
                   help="simulation base seed of the datasets (default: simharness.DEFAULT_BASE_SEED)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--make-reference", action="store_true",
                   help="write the reference for --base-seed instead of measuring")
    args = p.parse_args(argv)
    if not args.make_reference and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    return args


def import_glfit():
    """Import glfit from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "glfit", "__init__.py")):
        sys.exit(f"error: no glfit sources under {SRC}")
    sys.path.insert(0, SRC)
    import glfit

    if os.path.dirname(os.path.abspath(glfit.__file__)) != os.path.join(SRC, "glfit"):
        sys.exit(f"error: glfit was imported from {glfit.__file__}, not from {SRC}")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_reference(base_seed):
    path = os.path.join(REFERENCE_DIR, f"seed{base_seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_ops(ops, tracer=None):
    """Run ops in order; return their outputs and the phase's wall time."""
    from workloads import DatasetMismatch

    outputs = []
    start = time.perf_counter()
    for index, (key, call) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            call = tracer.wrap("bench.op", call)
        t0 = time.perf_counter()
        try:
            result = call()
        except DatasetMismatch:
            raise
        except Exception as err:  # a failing op is counted, not fatal
            result = [{"key": key, "error": f"{type(err).__name__}: {err}"}]
        seconds = time.perf_counter() - t0
        for out in result:
            out.setdefault("seconds", seconds)
        outputs.extend(result)
    return outputs, time.perf_counter() - start


def clear_rule_cache():
    """Start every timed pass from an empty gamma-rule cache."""
    from glfit import quadrature

    quadrature._gamma_rule_cached.cache_clear()


def rule_cache_misses():
    from glfit import quadrature

    return quadrature._gamma_rule_cached.cache_info().misses


def fingerprint():
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_seconds_elsewhere(args, runs):
    """Set-up time of ``runs`` fresh processes, each timed by itself."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.base_seed is not None:
        argv += ["--base-seed", str(args.base_seed)]
    times = []
    for _ in range(runs):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def check_inputs(datasets, reference):
    """Abort when the generated inputs differ from the reference's."""
    from workloads import DatasetMismatch

    changed = [k for k, d in datasets.items() if reference["datasets"].get(k, d) != d]
    if changed:
        raise DatasetMismatch(f"generated inputs differ from the reference: {changed[:5]}")


def check_outputs(outputs, reference):
    """Mark whether each output has a reference entry and misses it."""
    from workloads import mismatch

    refs = {} if reference is None else {**reference["fits"], **reference["oracle"]}
    for out in outputs:
        ref = refs.get(out["key"])
        out["checked"] = ref is not None
        out["mismatch"] = mismatch(out, ref)


def nonfinite(out):
    return "logpdf" in out and not all(math.isfinite(v) for v in out["logpdf"])


def bad_output(out):
    """Raised, did not converge, or returned a non-finite density."""
    return "error" in out or nonfinite(out) or not out.get("converged", True)


def failed_output(out):
    """Raised, returned a non-finite density, or missed the reference."""
    return "error" in out or nonfinite(out) or out["mismatch"]


def end_to_end(workload, outputs, wall, setup_s, rss_mb):
    times = sorted(workload.op_times(outputs))
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    n = len(outputs)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / wall,
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "ok_frac": 1.0 - sum(map(bad_output, outputs)) / n,
        "ref_match_frac": 1.0 - sum(o["mismatch"] for o in outputs) / n,
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_reference(args, base_seed):
    """Write the reference: every op any workload runs at --seconds."""
    import workloads

    seconds = args.seconds
    gl_reps = workloads.rounds("gl_sim", seconds)
    pgl_reps = max(workloads.TAIL_REP + 1, workloads.rounds("pgl_sim", seconds),
                   workloads.rounds("simulate_jobs2", seconds))
    parts = [
        workloads.SimWorkload("gl_sim", range(gl_reps), base_seed, 0),
        workloads.SimWorkload("pgl_sim", range(pgl_reps), base_seed, 0),
        workloads.OracleWorkload(1, 0),
    ]
    reference = {"base_seed": base_seed, "datasets": {}, "fits": {}, "oracle": {}}
    for w in parts:
        outputs, _ = run_ops(w.ops)
        reference["datasets"].update(w.datasets)
        for out in outputs:
            section = "oracle" if "logpdf" in out else "fits"
            reference[section][out["key"]] = workloads.reference_entry(out)
    reference["fingerprint"] = fingerprint()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"seed{base_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_glfit()
    e2e_units, layer_units = load_benchmark()
    import workloads
    from layers import SETUP_TARGETS, TARGETS, per_layer
    from tracer import Tracer

    base_seed = workloads.DEFAULT_BASE_SEED if args.base_seed is None else args.base_seed
    if args.make_reference:
        make_reference(args, base_seed)
        return 0
    out_dir = os.path.join(RESULTS, f"simulate_{os.getpid()}")
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install(SETUP_TARGETS)
    workload = workloads.make(args.workload, args.seconds, base_seed, args.seed, out_dir)
    setup_tracer.uninstall()
    workload.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = load_reference(base_seed)
    try:
        if reference is not None:
            check_inputs(workload.datasets, reference)
        clear_rule_cache()
        outputs, wall = run_ops(workload.ops)
        if args.trace:
            tracer = Tracer()
            clear_rule_cache()
            tracer.install(TARGETS)
            misses = rule_cache_misses()
            untraced_wall = wall
            outputs, wall = run_ops(workload.ops, tracer)
            misses = rule_cache_misses() - misses
            tracer.uninstall()
    except workloads.DatasetMismatch as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATASET
    check_outputs(outputs, reference)
    rss_mb = peak_rss_mb()

    if args.trace:
        units = layer_units
        metrics = per_layer(tracer, setup_tracer, misses, outputs, wall - untraced_wall,
                            (wall - untraced_wall) / untraced_wall)
        os.makedirs(RESULTS, exist_ok=True)
        spans_path = os.path.join(RESULTS, f"spans_{args.workload}_seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        trace_summary = {
            "wall_s": wall,
            "untraced_wall_s": untraced_wall,
            "root_s": tracer.total_s["bench.op"],
            "self_sum_s": sum(tracer.self_s.values()),
            "spans": len(tracer.spans) + tracer.dropped,
            "spans_dropped": tracer.dropped,
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
    else:
        units = e2e_units
        setup_runs = [setup_s] + setup_seconds_elsewhere(args, SETUP_RUNS - 1)
        metrics = end_to_end(workload, outputs, wall, statistics.median(setup_runs), rss_mb)
        trace_summary = None

    attempted = len(outputs)
    failed = sum(map(failed_output, outputs))
    correct = failed == 0
    fp = fingerprint()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "base_seed": base_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fp,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "unchecked": sum(not o["checked"] for o in outputs),
        "metrics": metrics,
        "trace_summary": trace_summary,
        "setup_runs_s": None if args.trace else setup_runs,
        "datasets": workload.datasets,
        "fits": {o["key"]: workloads.reference_entry(o) for o in outputs if "loglik" in o},
        "oracle": {o["key"]: o["logpdf"] for o in outputs if "logpdf" in o},
        "outputs": outputs,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}: base seed {base_seed}, seed {args.seed}, {attempted} ops in "
          f"{wall:.3f} s; {sum('error' in o for o in outputs)} raised, "
          f"{sum(map(nonfinite, outputs))} non-finite, {sum(o['mismatch'] for o in outputs)} off the "
          f"reference, {result['unchecked']} without a reference")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"result {os.path.relpath(path, ROOT)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
