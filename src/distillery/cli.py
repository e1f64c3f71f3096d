"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(vanishing conditional probability or a fixed point that never converged).
"""

import argparse
import math
import os
import sys

from .channels import LossChannelParams
from .core import TruncationConfig, ZeroTraceError, auto_n_max
from .protocol import NoConvergenceError, _chunk_width
from .sweep import RunConfig, run


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2 for
    # numerical failures, so remap usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_COMMANDS = ("decay", "malt-trace", "pij", "distill", "mc-sweep", "avg-ent")


def build_parser():
    parser = _Parser(prog="distillery", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        sp = subs.add_parser(name)
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--tau", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--ts", type=str, default=None)
        sp.add_argument("--ma", type=int, default=None)
        sp.add_argument("--mb", type=int, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--imax", type=int, default=None)
        sp.add_argument("--jmax", type=int, default=None)
        sp.add_argument("--max-iter", dest="max_iter", type=int, default=50)
        sp.add_argument("--n-max", dest="n_max", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--baseline", choices=("tmss", "malt-only"), default="tmss")
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


_NEEDS = {
    # flags each subcommand requires beyond lambda / loss / ts / out
    "decay": ("steps",),
    "malt-trace": ("ma", "mb"),
    "pij": ("imax", "jmax"),
    "distill": ("ma", "mb"),
    "mc-sweep": (),
    "avg-ent": (),
}
_SWEEPABLE = ("mc-sweep", "avg-ent")
_MASHING = ("distill", "mc-sweep", "avg-ent")

# A state stores (2d - 1) d^2 float64 coefficients. Peak RSS beyond the
# interpreter measured 5.1-5.3 such arrays when malting (d = 78 and 164),
# counted here as 6. Mashing adds the window matrices of its truncated
# convolution, counted as 2 d^4 float64 arrays for each branch of a chunk
# of the arm-B scan: the convolution of a chunk of w branches peaked at
# 1.5-1.9 w d^4 at d = 6-12 (w = 25-1), and below 1 MiB at any smaller d;
# from d = 12 on a chunk is one branch. From d = 16 on the kernel copies
# blocks of the window matrix, not all of it, and peaked at 0.69-0.77 d^4
# (d = 16, 19), 0.27 d^4 (d = 34) and 0.16 d^4 (d = 49), so there the
# count is an upper bound. A pij grid adds its cells: the matrix and the
# CSV row tuples peaked at 110-122 bytes per cell (grids of 300^2 and
# 600^2), counted as 128. decay keeps a row per step until the CSV is
# written, a tuple of an int and three floats in a list: 180 bytes by
# sys.getsizeof, counted as 192. Invocations whose estimate exceeds the
# budget are refused before any run.
MEMORY_BUDGET_BYTES = 4 * 2**30
_LIVE_STATE_ARRAYS = 6
_LIVE_WINDOW_ARRAYS = 2
_PIJ_CELL_BYTES = 128
_DECAY_ROW_BYTES = 192
# mash_step's output weights reach ((d - 1)!)^2, which is inf in float64
# from d = 100, so mashing runs at n_max <= 98 only
_MASH_MAX_N_MAX = 98


def working_set_bytes(n_max, mashing, cells=0, rows=0):
    """Estimated peak memory of the arrays at cutoff n_max, for a command
    that only malts or one that also mashes, plus that of a pij grid of
    `cells` cells and of `rows` decay rows."""
    d = n_max + 1
    need = _LIVE_STATE_ARRAYS * 8 * (2 * d - 1) * d * d
    need += _PIJ_CELL_BYTES * cells + _DECAY_ROW_BYTES * rows
    if mashing:
        need += _LIVE_WINDOW_ARRAYS * 8 * _chunk_width(d) * d**4
    return need


def validate_config(ns):
    """Resolve and cross-check one parsed invocation; raises ConfigError
    naming every invalid field."""
    errors = []
    command = ns.command

    lam = ns.lam
    if lam is None:
        errors.append("--lambda is required")
        lam = 0.0
    elif not 0.0 <= lam < 1.0:
        errors.append(f"--lambda must lie in [0, 1), got {lam}")
        lam = 0.0

    # --tau takes precedence over --t when both are given
    t = 1.0
    tau = math.inf
    if ns.tau is not None:
        if ns.tau > 1.0:
            t = LossChannelParams.from_tau(ns.tau).t
            # a finite tau can round t to 1 (tau = 1e17); record the tau of
            # the t the run uses
            tau = ns.tau if t < 1.0 else LossChannelParams(t).tau
        else:
            errors.append(f"--tau must exceed 1, got {ns.tau}")
    elif ns.t is not None:
        if 0.0 < ns.t <= 1.0:
            t = ns.t
            tau = LossChannelParams(ns.t).tau
        else:
            errors.append(f"--t must lie in (0, 1], got {ns.t}")
    else:
        errors.append("one of --tau or --t is required")
    # the sweeps need t < 1, which a finite tau does not ensure
    if command in _SWEEPABLE and not t < 1.0:
        errors.append(f"{command} needs finite tau (t < 1)")

    ts_values = ()
    ts_spec = ns.ts or ""
    if ns.ts is None:
        errors.append("--ts is required")
    else:
        try:
            ts_values = parse_ts(ns.ts)
        except ValueError as exc:
            errors.append(f"--ts: {exc}")
        else:
            if len(ts_values) > 1 and command not in _SWEEPABLE:
                errors.append(f"--ts must be a single value for {command}")
            if len(ts_values) > 1:
                # a range endpoint may touch the closed border (a stop of
                # 1.00 is a natural way to write a sweep); drop such grid
                # points instead of failing the whole run
                ts_values = tuple(v for v in ts_values if 0.0 < v < 1.0)
                if not ts_values:
                    errors.append("--ts range contains no values inside (0, 1)")
            else:
                bad = [v for v in ts_values if not 0.0 < v < 1.0]
                if bad:
                    errors.append(f"--ts values must lie in (0, 1), got {bad}")
                    ts_values = ()

    for name in _NEEDS[command]:
        val = getattr(ns, name)
        if val is None:
            errors.append(f"--{name} is required for {command}")
        elif val < 1:
            errors.append(f"--{name} must be >= 1, got {val}")
    cells = rows = 0
    if command == "pij" and min(ns.imax or 0, ns.jmax or 0) >= 1:
        cells = ns.imax * ns.jmax
    if command == "decay" and (ns.steps or 0) >= 1:
        rows = ns.steps + 1

    if ns.max_iter < 1:
        errors.append(f"--max-iter must be >= 1, got {ns.max_iter}")

    n_max = ns.n_max
    if n_max < 0:
        errors.append(f"--n-max must be >= 0 (0 = auto), got {n_max}")
    elif n_max == 0:
        n_max = auto_n_max(lam) if lam > 0 else 1
    else:
        tail = lam ** (2 * (n_max + 1))
        if tail >= TruncationConfig.trace_tol:
            errors.append(
                f"--n-max {n_max} keeps a truncated tail {tail:.3g} >= "
                f"{TruncationConfig.trace_tol:.3g} "
                f"at lambda={lam}; auto picks {auto_n_max(lam)}"
            )

    if n_max >= 1:
        need = working_set_bytes(n_max, command in _MASHING, cells, rows)
        if need > MEMORY_BUDGET_BYTES:
            kept = ""
            if cells:
                kept = f" and a {ns.imax} x {ns.jmax} grid"
            elif rows:
                kept = f" and {rows} decay rows"
            errors.append(
                f"n_max={n_max}{kept} needs a working set of about "
                f"{need / 2**30:.3g} GiB, over the "
                f"{MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget"
            )
        if command in _MASHING and n_max > _MASH_MAX_N_MAX:
            errors.append(
                f"{command} mashes, and at n_max={n_max} its weights "
                f"((n_max)!)^2 overflow float64; n_max must be <= {_MASH_MAX_N_MAX}"
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

    cfg = RunConfig(
        command=command,
        lam=lam,
        t=t,
        tau=tau,
        ts_values=ts_values,
        ts_spec=ts_spec,
        out=ns.out,
        ma=ns.ma or 0,
        mb=ns.mb or 0,
        steps=ns.steps or 0,
        imax=ns.imax or 0,
        jmax=ns.jmax or 0,
        max_iter=ns.max_iter,
        n_max=n_max,
        threads=threads,
        baseline=ns.baseline,
    )
    print(
        f"config: command={command} lambda={lam} t={t:.6g} tau={tau:.6g} "
        f"ts={ts_spec} n_max={n_max} threads={threads}",
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
            f"[command={cfg.command} lambda={cfg.lam} t={cfg.t:.6g} ts={cfg.ts_spec}]",
            file=sys.stderr,
        )
        return 2
    return 0
