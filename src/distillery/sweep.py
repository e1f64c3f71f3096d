"""Sweep execution and CSV emission for the command-line interface.

`COMMANDS` has one row per subcommand: its runner, the flags it reads
beyond the common ones, the memory it holds and whether it takes a t_s
range. The parser, the validation and the metadata all read that table.

The t_s sweeps (mc-sweep, avg-ent) map average_entanglement over their
t_s points, so points can go through a process pool; rows come back in
point order, which keeps the CSV body byte-stable for any thread count.
The other commands run in one process.
"""

import os
import time
from functools import partial
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import LossChannelParams
from .core import CONV_TOL, EIG_TOL, MAX_ITER, TRACE_TOL, TruncationConfig
from .mashing import _plan
from .protocol import (
    MaltingSchedule,
    average_entanglement,
    baseline_negativity,
    decay,
    full_protocol,
    malt,
    subtraction_probability_matrix,
)


class RunConfig(NamedTuple):
    """Fully resolved invocation of one subcommand: `subs` holds one
    SubtractionParams per t_s point, and the fields after `threads` are read
    only by the subcommands whose row of COMMANDS names them."""

    command: str
    lam: float
    loss: LossChannelParams
    tau: float
    subs: tuple
    ts_spec: str
    trunc: TruncationConfig
    out: str
    threads: int = 1
    ma: int = 0
    mb: int = 0
    steps: int = 0
    imax: int = 0
    jmax: int = 0
    max_iter: int = MAX_ITER


def _fmt(x):
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".15g")
    return str(x)


def write_csv(path, columns, rows, metadata):
    """Atomic CSV write: metadata lines '# key=value', header, data rows.

    UTF-8, comma delimited, LF line endings, 15 significant digits.
    """
    # created as open() would create the file, 0o666 less the umask, in the
    # target's directory so that os.replace is atomic
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.part"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            for key, value in metadata.items():
                f.write(f"# {key}={_fmt(value)}\n")
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pmap(fn, items, threads):
    # the pool starts all its workers at once, so it gets no more than there
    # are items and CPUs
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here: it pulls in multiprocessing, pickle and socket, which
    # a run without a pool never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# command runners


def _run_decay(cfg):
    rows = []
    warn = False
    for m, negs in enumerate(decay(cfg.lam, cfg.loss, cfg.subs[0], cfg.trunc, cfg.steps)):
        warn = warn or any(n.trunc_warning for n in negs)
        rows.append((m, *(n.value for n in negs)))
    return ("m", "neg_loss_only", "neg_vac_only", "neg_both"), rows, {"trunc_warning": warn}


def _schedule(cfg):
    return MaltingSchedule(cfg.ma, cfg.mb, cfg.loss, cfg.subs[0])


def _run_malt_trace(cfg):
    rec = malt(cfg.lam, _schedule(cfg), cfg.trunc)
    rows = list(rec.negativity_trace)
    return ("m", "negativity"), rows, {"joint_prob": rec.joint_prob}


def _run_pij(cfg):
    p = subtraction_probability_matrix(
        cfg.lam, cfg.loss, cfg.subs[0], cfg.trunc, cfg.imax, cfg.jmax
    )
    rows = [
        (i, j, p[i - 1, j - 1])
        for i in range(1, cfg.imax + 1)
        for j in range(1, cfg.jmax + 1)
    ]
    return ("i", "j", "p"), rows, {}


def _run_distill(cfg):
    rec, outcome = full_protocol(cfg.lam, _schedule(cfg), cfg.trunc, cfg.max_iter)
    # one row per stage: the malting cycles, then the mashing rounds
    probs = [1.0, *rec.cycle_probs, *outcome.mash_probs]
    phases = ["malt"] * len(rec.negativity_trace) + ["mash"] * outcome.iterations
    rows = list(zip(range(len(probs)), phases, outcome.negativity_by_stage, probs))
    meta = {
        "joint_prob": rec.joint_prob,
        "mash_iterations": outcome.iterations,
        "converged": outcome.converged,
        "max_discarded": outcome.max_discarded,
        "tail": outcome.tail,
    }
    return ("stage", "phase", "negativity", "prob"), rows, meta


def _run_scan(cfg):
    # m_c per t_s point is the number of attempts the average retains;
    # avg-ent adds the average. The metadata gives the mashing diagnostics:
    # mash_rounds and mashed_branches list each point's rounds and mashed
    # branches (those past the first failing j included), ';'-separated in
    # row order; max_discarded and max_tail are the worst over all points,
    # the counterparts of distill's max_discarded and tail. --max-iter 0 is
    # the malt-only baseline, the scan with zero mashing rounds.
    scan = partial(
        average_entanglement, cfg.lam, cfg.loss, cfg=cfg.trunc, max_iter=cfg.max_iter
    )
    avgs = _pmap(scan, cfg.subs, cfg.threads)
    rows = [(sub.t_s, avg.m_c, avg.value) for sub, avg in zip(cfg.subs, avgs)]
    columns = ("ts", "m_c", "avg_ent")
    meta = {}
    if cfg.command == "mc-sweep":
        columns, rows = columns[:2], [row[:2] for row in rows]
        meta["baseline_negativity"] = baseline_negativity(cfg.lam)
    meta["mash_rounds"] = ";".join(str(avg.mash_rounds) for avg in avgs)
    meta["mashed_branches"] = ";".join(str(avg.mashed_branches) for avg in avgs)
    meta["max_discarded"] = max((avg.max_discarded for avg in avgs), default=0.0)
    meta["max_tail"] = max((avg.max_tail for avg in avgs), default=0.0)
    return columns, rows, meta


class Command(NamedTuple):
    """One subcommand: its runner, the RunConfig fields it reads beyond the
    common ones (its flags, in metadata order), floats(d, flags) and
    rows(flags), the float64 of its arrays at cutoff d and the CSV rows it
    keeps, of row_bytes each, and whether --ts may be a range."""

    runner: object
    flags: tuple
    floats: object
    rows: object = lambda flags: 0
    row_bytes: int = 0
    ts_range: bool = False


def _mashing_floats(d, flags):
    plan = _plan(d)  # which refuses a cutoff mashing cannot run
    return 5 * d**3 + plan.width * (2 * d**4 + plan.kept)


def _cycles(flags):
    return max(flags["ma"], flags["mb"]) + 1


# Each count bounds the runner's traced peak (tracemalloc around run, cold
# caches) from d = 41 on; below it the interpreter's own allocations, tens
# of kB, add to the peak. decay holds its three states, the next step's, the
# loss maps and eigensolve tables: 6.97-7.25 d^3 float64 at d = 41-164,
# counted as 8. A malting run peaks in a loss step at 3.42-3.51 d^3
# (d = 41-164), counted as 5. pij holds its d x d loss matrix, 1.04 d^2
# at d = 201-401, and two arrays of max(imax, jmax) x d. Mashing adds, per
# branch of a scan chunk, the expansions its run keeps and two d^4 arrays
# for the rest of a round: 2.0-2.7 d^4 float64 per branch at d = 8-16,
# against 3.75-4 counted, and 1.03 d^4 (d = 19) and 0.74 d^4 (d = 34),
# against 2. Rows: a decay row is 180 bytes by sys.getsizeof; malt-trace and
# distill rows 162 and 242 bytes traced at 40 000 cycles; a pij cell, its
# matrix entry and row, 110-122 bytes on grids of 300^2 and 600^2.
_SCAN = Command(_run_scan, ("max_iter",), _mashing_floats, ts_range=True)
COMMANDS = {
    "decay": Command(
        _run_decay, ("steps",), lambda d, f: 8 * d**3, lambda f: f["steps"] + 1, 192
    ),
    "malt-trace": Command(_run_malt_trace, ("ma", "mb"), lambda d, f: 5 * d**3, _cycles, 256),
    "pij": Command(
        _run_pij, ("imax", "jmax"), lambda d, f: 2 * d * (d + max(f["imax"], f["jmax"])),
        lambda f: f["imax"] * f["jmax"], 128,
    ),
    "distill": Command(
        _run_distill, ("ma", "mb", "max_iter"), _mashing_floats,
        lambda f: _cycles(f) + f["max_iter"], 256,
    ),
    "mc-sweep": _SCAN,
    "avg-ent": _SCAN,
}


def run(config):
    """Execute one resolved subcommand and write its CSV."""
    t0 = time.perf_counter()
    command = COMMANDS[config.command]
    columns, rows, extra = command.runner(config)
    metadata = {
        "command": config.command,
        "version": f"distillery-{__version__}",
        "lambda": config.lam,
        "t": config.loss.t,
        "tau": config.tau,
        "ts": config.ts_spec,
        "n_max": config.trunc.n_max,
        "eig_tol": EIG_TOL,
        "trace_tol": TRACE_TOL,
        "conv_tol": CONV_TOL,
        "threads": config.threads,
    }
    metadata.update((name, getattr(config, name)) for name in command.flags)
    metadata.update(extra)
    metadata["wall_time_s"] = time.perf_counter() - t0
    write_csv(config.out, columns, rows, metadata)
