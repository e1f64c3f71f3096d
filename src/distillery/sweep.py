"""Sweep execution and CSV emission for the command-line interface.

`COMMANDS` has one row per subcommand: its runner, the flags it reads
beyond the common ones and whether it takes a t_s range. The parser, the
validation and the metadata all read that table.

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
from .channels import LossChannelParams, detect_phonons, loss_event
from .core import TruncationConfig, normalize, tmss
from .negativity import log_negativity
from .protocol import (
    MaltingSchedule,
    average_entanglement,
    baseline_negativity,
    malt,
    mash_iterate,
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
    max_iter: int = 50
    baseline: str = "tmss"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
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
    sub = cfg.subs[0]
    s_loss = s_vac = s_both = tmss(cfg.lam, cfg.trunc)
    rows = []
    warn = False
    for m in range(cfg.steps + 1):
        negs = [log_negativity(s) for s in (s_loss, s_vac, s_both)]
        warn = warn or any(n.trunc_warning for n in negs)
        rows.append((m, negs[0].value, negs[1].value, negs[2].value))
        if m == cfg.steps:
            break
        s_loss = loss_event(s_loss, cfg.loss)
        s_vac, _ = normalize(detect_phonons(s_vac, sub, 0, 0))
        s_both, _ = normalize(detect_phonons(loss_event(s_both, cfg.loss), sub, 0, 0))
    return ("m", "neg_loss_only", "neg_vac_only", "neg_both"), rows, {"trunc_warning": warn}


def _malt(cfg):
    # the malting run that malt-trace reports and distill mashes
    return malt(cfg.lam, MaltingSchedule(cfg.ma, cfg.mb, cfg.loss, cfg.subs[0]), cfg.trunc)


def _run_malt_trace(cfg):
    rec = _malt(cfg)
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
    rec = _malt(cfg)
    outcome = mash_iterate(rec.state, max_iter=cfg.max_iter)
    rows = [(0, "malt", rec.negativity_trace[0][1], 1.0)]
    for m, neg in rec.negativity_trace[1:]:
        rows.append((m, "malt", neg, rec.cycle_probs[m - 1]))
    base = len(rec.negativity_trace) - 1
    for i, neg in enumerate(outcome.negativity_by_stage[1:], start=1):
        rows.append((base + i, "mash", neg, outcome.mash_probs[i - 1]))
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
    # the counterparts of distill's max_discarded and tail. The malt-only
    # baseline is the scan with zero mashing rounds.
    max_iter = 0 if cfg.baseline == "malt-only" else cfg.max_iter
    scan = partial(average_entanglement, cfg.lam, cfg.loss, cfg=cfg.trunc, max_iter=max_iter)
    avgs = _pmap(scan, cfg.subs, cfg.threads)
    rows = [(sub.t_s, len(avg.terms), avg.value) for sub, avg in zip(cfg.subs, avgs)]
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
    common ones (its flags, in metadata order) and whether --ts may be a
    range."""

    runner: object
    flags: tuple
    ts_range: bool = False

    @property
    def mashes(self):
        return "max_iter" in self.flags


COMMANDS = {
    "decay": Command(_run_decay, ("steps",)),
    "malt-trace": Command(_run_malt_trace, ("ma", "mb")),
    "pij": Command(_run_pij, ("imax", "jmax")),
    "distill": Command(_run_distill, ("ma", "mb", "max_iter")),
    "mc-sweep": Command(_run_scan, ("max_iter", "baseline"), ts_range=True),
    "avg-ent": Command(_run_scan, ("max_iter", "baseline"), ts_range=True),
}


def run(config):
    """Execute one resolved subcommand and write its CSV."""
    t0 = time.perf_counter()
    command = COMMANDS[config.command]
    columns, rows, extra = command.runner(config)
    trunc = config.trunc
    metadata = {
        "command": config.command,
        "version": f"distillery-{__version__}",
        "lambda": config.lam,
        "t": config.loss.t,
        "tau": config.tau,
        "ts": config.ts_spec,
        "n_max": trunc.n_max,
        "eig_tol": trunc.eig_tol,
        "trace_tol": trunc.trace_tol,
        "conv_tol": trunc.conv_tol,
        "threads": config.threads,
    }
    metadata.update((name, getattr(config, name)) for name in command.flags)
    metadata.update(extra)
    metadata["wall_time_s"] = time.perf_counter() - t0
    write_csv(config.out, columns, rows, metadata)
