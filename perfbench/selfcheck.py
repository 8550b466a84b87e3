"""Tiny-size self-check of the benchmark (about two minutes on 2 cores).

    python3 perfbench/selfcheck.py

1. Every workload, traced and untraced, prints every metric of
   BENCHMARK.json as ``name = value unit`` and ends with the JSON line.
2. A perturbed reference counts as a mismatch: a reference loglik raised
   above the fit's, or an oracle value moved by more than the tolerance.
   A lowered reference loglik does not count, and a changed dataset
   digest aborts the run.
3. In each traced run the self times of all spans add up to the wall
   time of the traced phase within ``SELF_SLACK``.

Exits 0 when every check passes.
"""

import copy
import json
import os
import subprocess
import sys

import run

run.import_glfit()
import workloads  # noqa: E402  (imports glfit from the checkout's sources)

SEED = 1
SECONDS = 1
SELF_SLACK = 0.02


def fail(message):
    sys.exit(f"FAIL {message}")


def run_workload(workload, trace):
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def check_printed(workload, trace, lines, units):
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: last line has keys {sorted(last)}")
    if set(last["metrics"]) != set(units):
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(last['metrics']) ^ set(units))}")
    for name, unit in units.items():
        if last["metrics"][name]["unit"] != unit:
            fail(f"{workload}: {name} has unit {last['metrics'][name]['unit']}, not {unit}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            fail(f"{workload}: no '{name} = <value> {unit}' line")
    if not last["correct"] or last["attempted"] < 1:
        fail(f"{workload}: {last['attempted']} attempted, correct={last['correct']}")


def load_result(workload, trace):
    with open(os.path.join(run.RESULTS, f"{workload}_seed{SEED}_trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(result, reference):
    run.check_inputs(result["datasets"], reference)
    outputs = copy.deepcopy(result["outputs"])
    run.check_outputs(outputs, reference)
    return sum(o["mismatch"] for o in outputs)


def check_perturbed(result, section):
    reference = {k: copy.deepcopy(result[k]) for k in ("datasets", "fits", "oracle")}
    if mismatches(result, reference):
        fail(f"{section}: the run's own outputs mismatch themselves")
    if section == "fits":
        key = next(k for k in sorted(reference["fits"]) if reference["fits"][k]["converged"])
        lowered = copy.deepcopy(reference)
        lowered["fits"][key]["loglik"] -= 1.0
        if mismatches(result, lowered):
            fail("a reference loglik below the fit's counted as a mismatch")
        reference["fits"][key]["loglik"] += 1.0
    else:
        key = sorted(reference["oracle"])[0]
        reference["oracle"][key][0] += 10 * workloads.LOGPDF_ATOL
    if mismatches(result, reference) != 1:
        fail(f"a perturbed {section} reference entry was not counted as one mismatch")
    reference["datasets"][sorted(reference["datasets"])[0]] = "0" * 64
    try:
        mismatches(result, reference)
    except workloads.DatasetMismatch:
        return
    fail("a changed dataset digest did not abort the check")


def main():
    e2e_units, layer_units = run.load_benchmark()
    for workload in run.WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            check_printed(workload, trace, run_workload(workload, trace), units)
        print(f"ok 1 {workload}: every metric printed with name and unit, traced and untraced")

    check_perturbed(load_result("gl_sim", 0), "fits")
    check_perturbed(load_result("pgl_oracle", 0), "oracle")
    print("ok 2 perturbed reference entries count as mismatches; changed inputs abort")

    for workload in run.WORKLOADS:
        summary = load_result(workload, 1)["trace_summary"]
        wall, self_sum = summary["wall_s"], summary["self_sum_s"]
        if abs(wall - self_sum) > SELF_SLACK * wall:
            fail(f"{workload}: self times sum to {self_sum:.4f} s, traced wall is {wall:.4f} s")
        print(f"ok 3 {workload}: self times {self_sum:.4f} s vs traced wall {wall:.4f} s "
              f"(slack {SELF_SLACK:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
