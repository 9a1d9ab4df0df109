#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Runs one pass of every workload, confirms its checks pass on the real
outputs, then plants one fault per case in a copy of the outputs and
confirms the checks catch it. Exits 0 when every check behaves.

Usage, from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run


def edit_csv(path: Path, row: int, column: str, change) -> None:
    """Rewrite one value of a program CSV, keeping its provenance line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    i = header.index(column)
    cells[i] = change(cells[i])
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def count_off_by_one(out: Path, ops):
    edit_csv(out / "all-figures" / "panels" / "users.csv", 3, "value", lambda v: str(int(float(v)) + 1))
    return ops


def weight_perturbed_csv(out: Path, ops):
    path = out / "all-figures" / "estimate" / "users_weights.csv"
    edit_csv(path, 0, "weight", lambda v: repr(float(v) - 1e-4))
    edit_csv(path, 1, "weight", lambda v: repr(float(v) + 1e-4))
    return ops


def effect_shifted(out: Path, ops):
    edit_csv(out / "aggregate" / "aggregate" / "level_10_effects.csv", 0, "effect", lambda v: repr(float(v) + 0.01))
    return ops


def weight_perturbed_fit(out: Path, ops):
    from synthpanel.synth import WeightVector

    changed = list(ops)
    fit, dist = ops[0].payload
    w = fit.weights.w.copy()
    top, low = int(w.argmax()), int(w.argmin())
    w[top] -= 1e-3
    w[low] += 1e-3
    fit = dataclasses.replace(fit, weights=WeightVector(w))
    changed[0] = dataclasses.replace(ops[0], payload=(fit, dist))
    return changed


def fixed_point_shifted(out: Path, ops):
    edit_csv(out / "sweep" / "linear" / "-0.5" / "diffusion" / "equilibria.csv", 0, "x_star",
             lambda v: repr(float(v) + 1e-3))
    return ops


FAULTS = {
    "figures": (("panel count off by one", count_off_by_one), ("weight perturbed", weight_perturbed_csv)),
    "aggregate-wide": (("effect shifted", effect_shifted),),
    "montecarlo": (("weight perturbed", weight_perturbed_fit),),
    "diffusion": (("fixed point shifted", fixed_point_shifted),),
}


def renamed_function_is_listed() -> bool:
    """A traced name missing from the program is listed and records no calls."""
    import tracer

    saved = tracer.TRACED
    tracer.TRACED = saved + (("synth", "no_such_function", None),)
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        tracer.TRACED = saved
    values = tracer.layer_metrics(t, 1.0, 1.0)
    return t.missing == ["synth.no_such_function"] and values["trace.missing"] == 1


def declared_metrics_match() -> bool:
    """BENCHMARK.json declares exactly the metrics run.py reports, and only workloads it runs."""
    import tracer

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
        and [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(tracer.LAYER_METRICS)
        and {w["name"] for w in declared["workloads"]} <= set(run.WORKLOAD_NAMES)
    )


def main() -> int:
    workloads, _ = run.load_program()
    if workloads is None:
        print("no program found under ./src", file=sys.stderr)
        return 2
    ok = True
    for label, passed in (
        ("BENCHMARK.json declares the reported metrics", declared_metrics_match()),
        ("tracer lists a traced name missing from the program", renamed_function_is_listed()),
    ):
        ok &= passed
        print(f"{'ok' if passed else 'FAIL'}: {label}")
    for name, faults in FAULTS.items():
        workload = workloads.WORKLOADS[name]()
        work = run.WORK / "selftest" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.setup(1, work)
        clean = work / "clean"
        clean.mkdir()
        ops = workload.run_pass(clean)
        found = [p for key, ps in workload.check(clean, ops).items() for p in ps]
        status = "ok" if all(op.ok for op in ops) and not found else "FAIL"
        ok &= status == "ok"
        print(f"{status}: {name}: clean outputs pass ({len(found)} problems)")
        for label, plant in faults:
            faulty = work / "faulty"
            shutil.rmtree(faulty, ignore_errors=True)
            shutil.copytree(clean, faulty)
            found = [p for key, ps in workload.check(faulty, plant(faulty, ops)).items() for p in ps]
            status = "ok" if found else "FAIL"
            ok &= bool(found)
            print(f"{status}: {name}: {label} is caught" + (f": {found[0]}" if found else ""))
    shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
