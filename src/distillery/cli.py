"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(vanishing conditional probability or a fixed point that never converged).
"""

import argparse
import math
import os
import sys

from .channels import LossChannelParams, SubtractionParams
from .core import TruncationConfig, ZeroTraceError, _check_cutoff, _integer, auto_n_max
from .protocol import NoConvergenceError, _scan_cap
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


# the least value of each integer flag a row of sweep.COMMANDS can name
# (--max-iter 0 runs no mashing round, the malt-only baseline); a flag whose
# RunConfig default lies below it, "not read", has no default
_OWN_FLAGS = {"ma": 1, "mb": 1, "steps": 1, "imax": 1, "jmax": 1, "max_iter": 0}
_DEFAULTS = RunConfig._field_defaults


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
            low, default = _OWN_FLAGS[field], _DEFAULTS[field]
            sp.add_argument(_flag(field), type=int, default=default if default >= low else None)
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


# Invocations whose working set exceeds the budget are refused before any run.
MEMORY_BUDGET_BYTES = 4 * 2**30


def working_set_bytes(name, n_max, flags):
    """Estimated peak memory of subcommand `name` at cutoff n_max with its
    flags (a dict over RunConfig's fields): the arrays and the CSV rows
    that its row of sweep.COMMANDS counts; mashing._plan refuses
    (ValueError) a cutoff mashing cannot run."""
    command = COMMANDS[name]
    return 8 * command.floats(n_max + 1, flags) + command.row_bytes * command.rows(flags)


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

    lam = 0.0  # a missing lambda, or one auto_n_max refuses, counts as 0 below
    if ns.lam is None:
        errors.append("--lambda is required")
    elif _build(errors, "--lambda", auto_n_max, ns.lam) is not None:
        lam = ns.lam

    # --tau takes precedence over --t when both are given
    loss = None
    if ns.tau is not None:
        loss = _build(errors, "--tau", LossChannelParams.from_tau, ns.tau)
    elif ns.t is not None:
        loss = _build(errors, "--t", LossChannelParams, ns.t)
    else:
        errors.append("one of --tau or --t is required")
    # the sweeps' arm-B scan needs t < 1, which a finite tau does not ensure
    if loss is not None and command.ts_range:
        _build(errors, "--tau" if ns.tau is not None else "--t", _scan_cap, loss)

    subs = ()
    if ns.ts is None:
        errors.append("--ts is required")
    else:
        ts_values = _build(errors, "--ts", parse_ts, ns.ts)
        if ts_values is not None:
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
            continue
        val = _build(errors, _flag(field), _integer, field, val, _OWN_FLAGS[field])
        if val is not None:
            own[field] = val

    n_max = ns.n_max
    if n_max < 0:
        errors.append(f"--n-max must be >= 0 (0 = auto), got {n_max}")
    elif n_max == 0:
        n_max = auto_n_max(lam)
    else:
        _build(errors, "--n-max", _check_cutoff, lam, n_max)

    if n_max >= 1:
        # a flag that is missing or invalid counts at its RunConfig default;
        # 0 where mashing._plan refuses a cutoff mashing cannot run
        flags = {**_DEFAULTS, **own}
        need = _build(errors, "--n-max", working_set_bytes, name, n_max, flags) or 0
        if need > MEMORY_BUDGET_BYTES:
            errors.append(
                f"n_max={n_max} with {command.rows(flags)} {name} rows needs a working "
                f"set of about {need / 2**30:.3g} GiB, over the "
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
