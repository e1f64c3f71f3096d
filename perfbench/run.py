"""distillery benchmark: four fixed CLI workloads run as fresh processes.

    python3 perfbench/run.py --workload pij-grid --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from src/. The load is
a closed loop with one client: each `python -m distillery ... --threads 1`
process starts after the previous one exits. The BLAS thread variables are
inherited, not set, and are recorded with the environment.

--trace 0 reports the end-to-end metrics of the untraced processes: median
wall time, CPU time (wait4 rusage) and peak RSS, plus setup_s, the median
wall time of a fresh interpreter importing distillery.cli.
--trace 1 adds two traced runs (traced.py) and reports per-layer call counts
and self times. Every run's CSV body is checked against refs/<workload>.csv
and against an anchor value independent of those references.

The inputs are fixed; the seed only sets the interleaved order of runs. The
last stdout line is the JSON result; the lines before it give the
environment, the run order and every metric with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from traced import MODULES, TRACED

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
WORK_DIR = ".perfbench"

SETUP_PROBES = 11  # fresh-interpreter imports per invocation, for setup_s
TRACED_RUNS = 2  # two, so that call counts can be compared run to run
HARD_LIMIT_S = 165.0  # every process is killed by then; the invocation must end in 180 s

# Reference comparison: |x - ref| <= REL_TOL * |ref| + ABS_TOL for floats,
# exact for integer and text cells.
REL_TOL = 1e-9
ABS_TOL = 1e-15


# ---------------------------------------------------------------------------
# workloads and their independent anchors


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _pij_oracle_anchor(argv, meta, rows):
    # (1,1) cell of pij at lambda=0.1, tau=100, ts=0.99, n_max=8: the
    # trajectory-oracle value that acceptance criterion 6 pins to 1e-10.
    want = 3.993432960736389e-06
    cell = next((r for r in rows if r[:2] == ["1", "1"]), None)
    if cell is None or not abs(float(cell[2]) - want) < 1e-10:
        return [f"pij (1,1) cell {cell} is not the oracle value {want}"]
    return []


def _avg_ent_anchor(argv, meta, rows):
    # m_c = 60 at lambda=0.1, tau=1000, ts=0.99, as acceptance criterion 9 runs it.
    got = [r[1] for r in rows]
    return [] if got == ["60"] else [f"avg-ent m_c {got} is not [60]"]


def _distill_anchor(argv, meta, rows):
    # Distillation must end above the squeezed-state negativity it started from.
    lam = float(_flag(argv, "--lambda"))
    baseline = math.log2((1.0 + lam) / (1.0 - lam))
    final = float(rows[-1][2])
    if not final > baseline:
        return [f"final negativity {final} does not exceed baseline {baseline}"]
    return []


def _malt_anchor(argv, meta, rows):
    # Cycle 0 is the truncated two-mode squeezed state, whose log-negativity
    # has the closed form log2((sum lam^n)^2 / sum lam^2n) over n < d.
    lam = float(_flag(argv, "--lambda"))
    d = int(meta["n_max"]) + 1
    s1 = sum(lam**n for n in range(d))
    s2 = sum(lam ** (2 * n) for n in range(d))
    want = math.log2(s1 * s1 / s2)
    got = float(rows[0][1]) if rows and rows[0][0] == "0" else math.nan
    if not abs(got - want) <= 1e-9:
        return [f"cycle-0 negativity {got} is not the closed form {want}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments, without --threads and --out
    anchor: object  # (argv, metadata, rows) -> list of problems


# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pij-grid",
            ("pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
             "--imax", "20", "--jmax", "20", "--n-max", "8"),
            _pij_oracle_anchor,
        ),
        Workload(
            "distill-mid",
            ("distill", "--lambda", "0.4", "--tau", "100", "--ts", "0.99",
             "--ma", "1", "--mb", "10"),
            _distill_anchor,
        ),
        Workload(
            "avg-ent-long",
            ("avg-ent", "--lambda", "0.1", "--tau", "1000", "--ts", "0.99"),
            _avg_ent_anchor,
        ),
        Workload(
            "malt-wide",
            ("malt-trace", "--lambda", "0.6", "--tau", "100", "--ts", "0.99",
             "--ma", "1", "--mb", "3"),
            _malt_anchor,
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks


def read_csv(path):
    """(metadata dict, header, rows) of a CLI output file."""
    meta, lines = {}, []
    with open(path, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            else:
                lines.append(line.split(","))
    return meta, lines[0] if lines else [], lines[1:]


def _cell_differs(got, want):
    if got == want:
        return False
    try:
        if "." not in want and "e" not in want.lower():
            return int(got) != int(want)
        return not abs(float(got) - float(want)) <= REL_TOL * abs(float(want)) + ABS_TOL
    except ValueError:
        return True


def check_output(workload, path, ref_path):
    """Problems found in one run's CSV; an empty list means correct."""
    try:
        meta, header, rows = read_csv(path)
        _, ref_header, ref_rows = read_csv(ref_path)
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    problems = []
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref) or any(map(_cell_differs, row, ref)):
            problems.append(f"row {n} {row} != reference {ref}")
            break
    try:
        problems += workload.anchor(list(workload.argv), meta, rows)
    except (KeyError, IndexError, ValueError) as exc:
        problems.append(f"anchor check failed: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# processes


@dataclass(frozen=True)
class Sample:
    kind: str  # "cli", "traced" or "setup"
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    problems: tuple = ()

    @property
    def ok(self):
        return self.code == 0 and not self.problems


def spawn(cmd, env, log_path, timeout):
    """Run cmd to completion: (exit code, wall s, user+sys CPU s, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# trace analysis


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def analyse_spans(trace):
    """Per-layer figures of one traced run, plus the self-time check."""
    spans = trace["spans"]
    t0, t1 = trace["t0"], trace["t1"]
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append((s[1], s[2]))
    names = [f"{m}.{f}" for m, f in TRACED]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    errors = dict.fromkeys(MODULES, 0)
    values = {}
    for i, (name, start, end, _, _, raised, value) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(i, ()), start, end)
        errors[name.split(".")[0]] += bool(raised)
        if value is not None:
            values.setdefault(name, []).append(value)
    wall = t1 - t0
    untraced = wall - _covered(children.get(-1, ()), t0, t1)
    gap = abs(sum(self_s.values()) + untraced - wall)
    problems = []
    if gap > 1e-6 * wall + 1e-6:
        problems.append(f"self times + untraced remainder miss the traced wall by {gap:.3g} s")
    dims = values.get("channels.mash_step", [])
    rounds = values.get("protocol.mash_iterate", [])
    return {
        "calls": calls,
        "self_s": self_s,
        "errors": errors,
        "kept_frac": statistics.fmean(d**4 / (2 * d - 1) ** 4 for d in dims) if dims else 0.0,
        "rounds": statistics.fmean(rounds) if rounds else 0.0,
        "wall": wall,
        "untraced": untraced,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# one invocation


def _median(xs):
    # 0 only when no run of the kind finished, which also marks the result incorrect
    return statistics.median(xs) if xs else 0.0


def measure(workload, seconds, seed, trace, root, ref_path=None, setup_probes=SETUP_PROBES):
    """Run one workload for `seconds` and return (result, report).

    result is the JSON object printed as the last stdout line; report holds
    the run order, the samples and every metric, for the lines before it.
    """
    ref_path = ref_path or REFS / f"{workload.name}.csv"
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    env = child_env(root)
    rng = random.Random(seed)
    started = time.perf_counter()

    def timeout():
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - started))

    setup_cmd = [sys.executable, "-c", "import distillery.cli"]
    # Untimed: compiles the bytecode and warms the file cache once per invocation.
    spawn(setup_cmd, env, work / "setup.log", timeout())

    pending = ["setup"] * setup_probes + ["traced"] * (TRACED_RUNS if trace else 0)
    rng.shuffle(pending)
    samples, traces, order = [], [], []
    spent = 0.0  # wall time of workload runs so far, traced or not
    while True:
        cli_walls = [s.wall_s for s in samples if s.kind == "cli"]
        if pending and rng.random() < 0.5:
            kind = pending.pop()
        elif not cli_walls or spent + statistics.median(cli_walls) / 2 < seconds:
            # another run, when it would end nearer to `seconds` than this one did
            kind = "cli"
        elif pending:
            kind = pending.pop()
        else:
            break
        longest = max((s.wall_s for s in samples), default=0.0)
        if time.perf_counter() - started + longest > HARD_LIMIT_S:
            break
        order.append(kind)
        out = work / f"{workload.name}.csv"
        if out.exists():
            out.unlink()
        cli_args = [*workload.argv, "--threads", "1", "--out", str(out)]
        if kind == "setup":
            cmd = setup_cmd
        elif kind == "cli":
            cmd = [sys.executable, "-m", "distillery", *cli_args]
        else:
            spans_path = work / f"{workload.name}.spans{len(traces)}.json"
            cmd = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
                   "--spans", str(spans_path), "--", *cli_args]
        code, wall, cpu, rss = spawn(cmd, env, work / f"{workload.name}.{kind}.log", timeout())
        problems = []
        if kind != "setup":
            spent += wall
            problems = check_output(workload, out, ref_path) if code == 0 else [f"exit code {code}"]
        if kind == "traced":
            try:
                with open(spans_path, encoding="utf-8") as f:
                    traces.append(analyse_spans(json.load(f)))
                problems += traces[-1]["problems"]
            except (OSError, ValueError) as exc:
                problems.append(f"no spans: {exc!r}")
        samples.append(Sample(kind, code, wall, cpu, rss, tuple(problems)))

    runs = [s for s in samples if s.kind != "setup"]
    failed = sum(not s.ok for s in runs)
    problems = [f"{s.kind}: {p}" for s in samples for p in s.problems]
    problems += [f"setup probe exit code {s.code}" for s in samples if s.kind == "setup" and s.code]

    def timing(kind):
        # successful runs only, unless none succeeded
        of_kind = [s for s in samples if s.kind == kind]
        return [s for s in of_kind if s.ok] or of_kind

    cli = timing("cli")
    end_to_end = {
        "wall_s": (_median([s.wall_s for s in cli]), "s"),
        "cpu_s": (_median([s.cpu_s for s in cli]), "s"),
        "peak_rss_mb": (_median([s.rss_mib for s in cli]), "MiB"),
        "setup_s": (_median([s.wall_s for s in samples if s.kind == "setup"]), "s"),
    }
    per_layer = {}
    if trace:
        if len(traces) == TRACED_RUNS and any(
            t["calls"] != traces[0]["calls"] or t["errors"] != traces[0]["errors"]
            for t in traces
        ):
            problems.append("call or error counts differ between traced runs")
        if len(traces) != TRACED_RUNS:
            problems.append(f"{len(traces)} of {TRACED_RUNS} traced runs produced spans")
        first = traces[0] if traces else analyse_spans({"spans": [], "t0": 0.0, "t1": 0.0})
        for module, func in TRACED:
            name = f"{module}.{func}"
            per_layer[f"{name}.calls"] = (first["calls"][name], "count")
            per_layer[f"{name}.self_s"] = (_median([t["self_s"][name] for t in traces]), "s")
        per_layer["protocol.mash_iterate.rounds"] = (first["rounds"], "count")
        per_layer["channels.mash_step.kept_frac"] = (first["kept_frac"], "computed_ratio")
        for module in MODULES:
            per_layer[f"{module}.errors"] = (first["errors"][module], "count")
        traced_wall = _median([s.wall_s for s in timing("traced")])
        per_layer["trace.overhead_s"] = (traced_wall - end_to_end["wall_s"][0], "s")
        per_layer["error_rate"] = (failed / len(runs) if runs else 1.0, "ratio")

    metrics = per_layer if trace else end_to_end
    result = {
        "correct": not problems and bool(runs),
        "attempted": max(len(runs), 1),
        "failed": failed if runs else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "order": order,
        "samples": samples,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "error_rate": failed / len(runs) if runs else 1.0,
    }
    return result, report


# ---------------------------------------------------------------------------
# environment record


def environment(root, seed, workload):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds through spawn(), which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "distillery" / "cli.py").is_file():
        print(f"no distillery sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    result, report = measure(WORKLOADS[args.workload], args.seconds, args.seed, args.trace, root)

    print("env " + json.dumps(environment(root, args.seed, args.workload)))
    print("order " + " ".join(report["order"]))
    for kind in ("cli", "traced", "setup"):
        walls = [s.wall_s for s in report["samples"] if s.kind == kind]
        if walls:
            print(f"{kind} runs: n={len(walls)} wall_s min={min(walls):.4f} "
                  f"median={statistics.median(walls):.4f} max={max(walls):.4f}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    shown = dict(report["end_to_end"])
    shown["error_rate"] = (report["error_rate"], "ratio")
    shown.update(report["per_layer"])
    for name, (value, unit) in shown.items():
        label = " (computed from array sizes)" if unit == "computed_ratio" else ""
        print(f"{name} = {value:.6g} {unit}{label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
