"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(vanishing conditional probability or a fixed point that never converged).
"""

import argparse
import math
import os
import sys

from .channels import LossChannelParams, SubtractionParams, _plan
from .core import TruncationConfig, ZeroTraceError, auto_n_max
from .protocol import NoConvergenceError
from .sweep import COMMANDS, RunConfig, run


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2 for
    # numerical failures, so remap usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# argparse settings of the flags a row of sweep.COMMANDS can name
_OWN_FLAGS = {
    "ma": {"type": int},
    "mb": {"type": int},
    "steps": {"type": int},
    "imax": {"type": int},
    "jmax": {"type": int},
    "max_iter": {"type": int, "default": 50},
    "baseline": {"choices": ("tmss", "malt-only"), "default": "tmss"},
}


def _flag(name):
    return "--" + name.replace("_", "-")


def build_parser():
    parser = _Parser(prog="distillery", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        # no prefix matching: it would read avg-ent's foreign --ma as --max-iter
        sp = subs.add_parser(name, allow_abbrev=False)
        sp.add_argument("--lambda", dest="lam", type=float)
        sp.add_argument("--tau", type=float)
        sp.add_argument("--t", type=float)
        sp.add_argument("--ts")
        sp.add_argument("--n-max", type=int, default=0)
        sp.add_argument("--out")
        sp.add_argument("--threads", type=int, default=1)
        for field in command.flags:
            sp.add_argument(_flag(field), **_OWN_FLAGS[field])
    return parser


_MAX_TS_POINTS = 10_000


def parse_ts(spec):
    """A t_s value, or an inclusive range 'start:stop:step'."""
    parts = spec.split(":")
    if len(parts) == 1:
        return (float(spec),)
    if len(parts) != 3:
        raise ValueError(f"ts range must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"ts range start, stop and step must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"ts range step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"ts range stop {stop} is below start {start}")
    # counted before any is built; a float, since a tiny step overflows it
    last = (stop - start) / step + 0.5
    if last >= _MAX_TS_POINTS:
        raise ValueError(f"ts range has more than {_MAX_TS_POINTS} points")
    count = int(last) + 1
    vals = tuple(start + i * step for i in range(count))
    return tuple(v for v in vals if v <= stop + step / 2)


# A state stores d^3 float64 coefficients, and the eigensolves gather
# (2d - 1) d^2 of them into padded blocks, through an int64 gather table of
# that size kept per cutoff. Traced memory when malting peaked at 8.00 d^3
# float64 (d = 78 and 164), in the eigensolve: the state and the cached
# loss maps, d^3 each, and the blocks, the gather table and one temporary
# of their size, counted here as 4 stored states and 3 eigensolve arrays.
# The sentinel bound now makes no such temporary (6.1 d^3 traced at
# d = 78), so that count is an upper bound. Mashing adds, for each branch
# of a chunk of the arm-B scan, the expansions its run keeps (chunk width
# and kept floats from channels._plan: 1.75-2 d^4 float64 up to d = 16,
# none from d = 17 on, where a chunk is one branch) plus two d^4 float64
# arrays for the rest of a round. Building a whole chunk's sources and
# running one round on it (tracemalloc, inputs included) peaked at 2.0-2.7
# d^4 float64 per branch at d = 8-16, against 3.75-4 counted, and at 1.03
# d^4 (d = 19) and 0.74 d^4 (d = 34), against 2, so the count is an upper
# bound. A pij grid adds its cells: the matrix and the CSV row tuples
# peaked at 110-122 bytes per cell (grids of 300^2 and 600^2), counted as
# 128. decay keeps a row per step until the CSV is written, a tuple of an
# int and three floats in a list: 180 bytes by sys.getsizeof, counted as
# 192. malt-trace and distill keep a row per clock cycle (and distill one
# per mashing round): 162 and 242 bytes per row traced at 40 000 cycles,
# counted as 256.
# Invocations whose estimate exceeds the budget are refused before any run.
MEMORY_BUDGET_BYTES = 4 * 2**30
_LIVE_STATE_ARRAYS = 4
_EIGENSOLVE_ARRAYS = 3
_LIVE_MASH_ARRAYS = 2
_PIJ_CELL_BYTES = 128
_DECAY_ROW_BYTES = 192
_CYCLE_ROW_BYTES = 256


def working_set_bytes(n_max, mashing, cells=0, rows=0, cycle_rows=0):
    """Estimated peak memory of the arrays at cutoff n_max, for a command
    that only malts or one that also mashes, plus that of a pij grid of
    `cells` cells, of `rows` decay rows and of `cycle_rows` malt-trace or
    distill rows; channels._plan refuses (ValueError) a cutoff mashing cannot run."""
    d = n_max + 1
    need = 8 * (_LIVE_STATE_ARRAYS * d**3 + _EIGENSOLVE_ARRAYS * (2 * d - 1) * d * d)
    need += _PIJ_CELL_BYTES * cells + _DECAY_ROW_BYTES * rows + _CYCLE_ROW_BYTES * cycle_rows
    if mashing:
        plan = _plan(d)
        need += 8 * plan.width * (_LIVE_MASH_ARRAYS * d**4 + plan.kept)
    return need


def _build(errors, flag, make, *args):
    # make(*args), or None with its error recorded under the flag's name
    try:
        return make(*args)
    except ValueError as exc:
        errors.append(f"{flag}: {exc}")
        return None


def validate_config(ns):
    """Resolve and cross-check one parsed invocation; raises ConfigError
    naming every invalid field."""
    errors = []
    name = ns.command
    command = COMMANDS[name]

    lam = ns.lam
    if lam is None:
        errors.append("--lambda is required")
        lam = 0.0
    elif not 0.0 <= lam < 1.0:
        errors.append(f"--lambda must lie in [0, 1), got {lam}")
        lam = 0.0

    # --tau takes precedence over --t when both are given
    loss = None
    if ns.tau is not None:
        loss = _build(errors, "--tau", LossChannelParams.from_tau, ns.tau)
    elif ns.t is not None:
        loss = _build(errors, "--t", LossChannelParams, ns.t)
    else:
        errors.append("one of --tau or --t is required")
    # the sweeps need t < 1, which a finite tau does not ensure
    if loss is not None and command.ts_range and not loss.t < 1.0:
        errors.append(f"{name} needs finite tau (t < 1)")

    subs = ()
    if ns.ts is None:
        errors.append("--ts is required")
    else:
        try:
            ts_values = parse_ts(ns.ts)
        except ValueError as exc:
            errors.append(f"--ts: {exc}")
        else:
            # a range endpoint may touch the closed border (a stop of 1.00
            # is a natural way to write a sweep): such grid points are
            # dropped instead of failing the whole run
            dropped = []
            points = [_build(dropped, "--ts", SubtractionParams, v) for v in ts_values]
            subs = tuple(sub for sub in points if sub is not None)
            if len(ts_values) == 1:
                errors += dropped
            elif not command.ts_range:
                errors.append(f"--ts must be a single value for {name}")
            elif not subs:
                errors.append("--ts range contains no values inside (0, 1)")

    own = {}
    for field in command.flags:
        val = getattr(ns, field)
        if val is None:
            errors.append(f"{_flag(field)} is required for {name}")
        elif field != "baseline" and val < 1:
            errors.append(f"{_flag(field)} must be >= 1, got {val}")
        else:
            own[field] = val
    cells = own.get("imax", 0) * own.get("jmax", 0)
    rows = own["steps"] + 1 if "steps" in own else 0
    cycle_rows = 0
    if "ma" in own and "mb" in own:
        cycle_rows = max(own["ma"], own["mb"]) + 1 + own.get("max_iter", 0)

    n_max = ns.n_max
    if n_max < 0:
        errors.append(f"--n-max must be >= 0 (0 = auto), got {n_max}")
    elif n_max == 0:
        n_max = auto_n_max(lam) if lam > 0 else 1
    else:
        tail = lam ** (2 * (n_max + 1))
        trace_tol = TruncationConfig._field_defaults["trace_tol"]
        if tail >= trace_tol:
            errors.append(
                f"--n-max {n_max} keeps a truncated tail {tail:.3g} >= "
                f"{trace_tol:.3g} "
                f"at lambda={lam}; auto picks {auto_n_max(lam)}"
            )

    if n_max >= 1:
        # 0 where channels._plan refuses a cutoff mashing cannot run
        sizes = (n_max, command.mashes, cells, rows, cycle_rows)
        need = _build(errors, "--n-max", working_set_bytes, *sizes) or 0
        if need > MEMORY_BUDGET_BYTES:
            kept = ""
            if cells:
                kept = f" and a {own['imax']} x {own['jmax']} grid"
            elif rows:
                kept = f" and {rows} decay rows"
            elif need - _CYCLE_ROW_BYTES * cycle_rows <= MEMORY_BUDGET_BYTES:
                # the rows, not the cutoff, are what exceeds the budget
                kept = f" and {cycle_rows} {name} rows"
            errors.append(
                f"n_max={n_max}{kept} needs a working set of about "
                f"{need / 2**30:.3g} GiB, over the "
                f"{MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget"
            )

    threads = ns.threads
    if threads < 0:
        errors.append(f"--threads must be >= 0 (0 = auto), got {threads}")
    elif threads == 0:
        threads = os.cpu_count() or 1

    if not ns.out:
        errors.append("--out is required")
    else:
        parent = os.path.dirname(os.path.abspath(ns.out))
        if not os.path.isdir(parent):
            errors.append(f"--out directory does not exist: {parent}")
        elif os.path.isdir(ns.out):
            errors.append(f"--out names a directory, not a file: {ns.out}")

    if errors:
        raise ConfigError("\n".join(errors))

    # a finite tau can round t to 1 (tau = 1e17); record the tau of the t
    # the run uses
    tau = ns.tau if ns.tau is not None and loss.t < 1.0 else loss.tau
    cfg = RunConfig(
        command=name,
        lam=lam,
        loss=loss,
        tau=tau,
        subs=subs,
        ts_spec=ns.ts,
        trunc=TruncationConfig(n_max),
        out=ns.out,
        threads=threads,
        **own,
    )
    print(
        f"config: command={name} lambda={lam} t={loss.t:.6g} tau={tau:.6g} "
        f"ts={ns.ts} n_max={n_max} threads={threads}",
        file=sys.stderr,
    )
    return cfg


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        cfg = validate_config(ns)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1
    try:
        run(cfg)
    except (ZeroTraceError, NoConvergenceError) as exc:
        print(
            f"numerical failure: {exc} "
            f"[command={cfg.command} lambda={cfg.lam} t={cfg.loss.t:.6g} ts={cfg.ts_spec}]",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    # importing this module runs nothing; the command line is the package
    sys.exit("distillery.cli is not an entry point: run `python -m distillery` instead")
