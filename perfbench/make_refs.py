"""Regenerate perfbench/refs/<workload>.csv: the header and body (metadata
lines dropped) of one CLI run of each workload.

    python3 perfbench/make_refs.py [workload ...]

Run from the repository root. The references pin the program's numbers at
the commit they were made from; regenerate them only when a change is meant
to alter those numbers, and say so where the change is described.
"""

import sys
from pathlib import Path

from run import REFS, WORK_DIR, WORKLOADS, child_env, spawn


def write_reference(workload, path, root):
    """Run the workload once and keep its CSV header and body at path;
    returns the run's wall time."""
    (root / WORK_DIR).mkdir(exist_ok=True)
    cmd = [sys.executable, "-m", "distillery", *workload.argv,
           "--threads", "1", "--out", str(path)]
    code, wall, _, _ = spawn(cmd, child_env(root), root / WORK_DIR / "make_refs.log", 600.0)
    if code != 0:
        raise RuntimeError(f"{workload.name}: exit code {code}")
    with open(path, encoding="utf-8") as f:
        body = [line for line in f if not line.startswith("# ")]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(body)
    return wall


def main(names):
    REFS.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wall = write_reference(WORKLOADS[name], REFS / f"{name}.csv", Path.cwd())
        print(f"{name}: written in {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
