"""Fast self-test of the benchmark harness on tiny variants of the workloads.

    python3 perfbench/selftest.py

Run from the repository root; takes about half a minute. For each tiny
variant it makes a reference, then checks that an untraced and a traced
invocation pass, print every metric BENCHMARK.json names with its unit, and
that a deliberately wrong reference value or a failed anchor makes the run
fail. It also checks that run.py refuses to run without the sources. Exits 1
on the first failed check.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from make_refs import write_reference
from run import HERE, WORK_DIR, WORKLOADS, measure

TINY = {
    "pij-grid": ("pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                 "--imax", "2", "--jmax", "2", "--n-max", "8"),
    "distill-mid": ("distill", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                    "--ma", "1", "--mb", "2"),
    "avg-ent-long": ("avg-ent", "--lambda", "0.1", "--tau", "20", "--ts", "0.99"),
    "malt-wide": ("malt-trace", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                  "--ma", "1", "--mb", "2"),
}


def _no_anchor(argv, meta, rows):
    return []


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def names_and_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    scratch = root / WORK_DIR / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    for name, argv in TINY.items():
        real = WORKLOADS[name]
        # the m_c = 60 anchor belongs to tau=1000; the tiny avg-ent has none
        anchor = _no_anchor if name == "avg-ent-long" else real.anchor
        tiny = dataclasses.replace(real, argv=argv, anchor=anchor)
        ref = scratch / f"{name}.csv"
        write_reference(tiny, ref, root)

        result, _ = measure(tiny, 0.01, 1, 0, root, ref, setup_probes=1)
        expect(result["correct"] and result["failed"] == 0, f"{name}: untraced run correct")
        expect(names_and_units(result) == end_to_end,
               f"{name}: untraced run prints every end-to-end metric with its unit")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: end-to-end metrics are positive")

        result, _ = measure(tiny, 0.01, 2, 1, root, ref, setup_probes=1)
        expect(result["correct"] and result["metrics"]["error_rate"]["value"] == 0,
               f"{name}: traced run correct, error_rate 0, counts equal in both traced runs")
        expect(names_and_units(result) == per_layer,
               f"{name}: traced run prints every per-layer metric with its unit")

        lines = ref.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6) + 1e-12)
        wrong = scratch / f"{name}.wrong.csv"
        wrong.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        result, _ = measure(tiny, 0.01, 3, 1, root, wrong, setup_probes=1)
        expect(not result["correct"] and result["failed"] == result["attempted"]
               and result["metrics"]["error_rate"]["value"] == 1.0,
               f"{name}: a wrong reference value makes every run fail")

    off = dataclasses.replace(
        WORKLOADS["pij-grid"], argv=TINY["pij-grid"][:6] + ("0.98",) + TINY["pij-grid"][7:]
    )
    ref = scratch / "pij-off.csv"
    write_reference(off, ref, root)
    result, _ = measure(off, 0.01, 4, 0, root, ref, setup_probes=1)
    expect(not result["correct"] and result["failed"] == 1,
           "pij at ts=0.98 matches its own reference but fails the oracle anchor")

    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*bench["command"], "--workload", "pij-grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(scratch)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
