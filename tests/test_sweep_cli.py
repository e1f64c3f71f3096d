import gc
import importlib.util
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import make_golden
import oracles
from distillery import auto_n_max, channels, cli, core, mashing, negativity, sweep
from distillery.cli import ConfigError, build_parser, main, parse_ts, validate_config
from distillery.sweep import _fmt, _pmap

P11_TRAJ_NMAX8 = 3.993432960736389e-06


def _parse(argv):
    return build_parser().parse_args(argv)


def _lines(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF only
    return raw.decode("utf-8").splitlines()


def _split(path):
    lines = _lines(path)
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        else:
            body.append(line)
    return meta, body


# --- flag parsing ----------------------------------------------------------


def test_parse_ts_single_value():
    assert parse_ts("0.95") == (0.95,)


def test_parse_ts_range_includes_endpoints():
    got = parse_ts("0.6:0.8:0.05")
    assert got == pytest.approx((0.6, 0.65, 0.7, 0.75, 0.8))
    # a stop within half a step of the next grid point still takes it
    assert parse_ts("0.6:0.79:0.05") == pytest.approx((0.6, 0.65, 0.7, 0.75, 0.8))
    # but beyond half a step the grid stops short
    assert parse_ts("0.6:0.77:0.05") == pytest.approx((0.6, 0.65, 0.7, 0.75))
    # endpoint reached within float rounding slack
    assert parse_ts("0.7:0.9:0.1")[-1] == pytest.approx(0.9)


def test_parse_ts_rejects_malformed():
    for bad in ("", "0.6:0.8", "0.8:0.6:0.05", "0.6:0.8:0", "0.6:0.8:-0.1", "a:b:c"):
        with pytest.raises(ValueError):
            parse_ts(bad)


def test_parse_ts_rejects_non_finite_ranges(tmp_path, capsys):
    for bad in ("0.5:inf:0.1", "nan:0.9:0.1", "0.5:0.9:inf", "-inf:0.9:0.1"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_ts(bad)
    rc = main(["mc-sweep", "--lambda", "0.1", "--tau", "100", "--ts", "0.5:inf:0.1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "--ts: ts range start, stop and step must be finite" in capsys.readouterr().err


def test_parse_ts_counts_points_before_building_the_grid(monkeypatch, tmp_path, capsys):
    # a range over the cap is refused before any grid point exists: a
    # module-level `range` in cli that refuses to run stands in for the grid
    def refuse(*args):
        raise AssertionError("the t_s grid was built")

    monkeypatch.setattr(cli, "range", refuse, raising=False)
    for spec in ("0.6:0.99:1e-7", "0.6:0.99:1e-300", "0.6:0.99:5e-324", "0:0.99:0.00009"):
        with pytest.raises(ValueError, match="more than 10000 points"):
            parse_ts(spec)
    rc = main(["avg-ent", "--lambda", "0.1", "--tau", "100", "--ts", "0.6:0.99:1e-300",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "--ts: ts range has more than 10000 points" in capsys.readouterr().err
    monkeypatch.undo()
    assert len(parse_ts("0:0.9999:0.0001")) == 10000  # the largest range accepted


def test_validate_collects_every_error():
    ns = _parse(["decay", "--lambda", "1.5", "--tau", "0.5", "--out", "/nonexistent/x.csv"])
    with pytest.raises(ConfigError) as err:
        validate_config(ns)
    msg = str(err.value)
    assert "--lambda" in msg
    assert "--tau" in msg
    assert "--ts is required" in msg
    assert "--steps is required" in msg
    assert "--out directory" in msg


def test_validate_tau_takes_precedence_over_t(tmp_path):
    ns = _parse([
        "decay", "--lambda", "0.1", "--tau", "100", "--t", "0.5",
        "--ts", "0.99", "--steps", "2", "--out", str(tmp_path / "o.csv"),
    ])
    cfg = validate_config(ns)
    assert cfg.loss.t == pytest.approx(math.sqrt(1 - 1 / 100), rel=1e-14)
    assert cfg.tau == 100.0


@pytest.mark.parametrize("command", ["decay", "malt-trace", "pij", "distill"])
def test_tau_that_rounds_t_to_one_is_recorded_as_run(tmp_path, command):
    # tau = 1e17 runs with t = 1.0, the lossless memory, whose tau is inf
    own = {"decay": ["--steps", "1"], "malt-trace": ["--ma", "1", "--mb", "1"],
           "pij": ["--imax", "1", "--jmax", "1"], "distill": ["--ma", "1", "--mb", "1"]}
    argv = [command, "--lambda", "0.1", "--tau", "1e17", "--ts", "0.99",
            *own[command], "--out", str(tmp_path / "o.csv")]
    cfg = validate_config(_parse(argv))
    assert (cfg.loss.t, cfg.tau) == (1.0, math.inf)
    if command == "decay":
        assert main(argv) == 0
        meta = _split(tmp_path / "o.csv")[0]
        assert (meta["t"], meta["tau"]) == ("1", "inf")
    # a tau whose t stays below 1 is recorded as given
    argv[4] = "1e15"
    assert validate_config(_parse(argv)).tau == 1e15


def test_validate_auto_n_max(tmp_path):
    base = ["--lambda", "0.1", "--tau", "100", "--ts", "0.99", "--steps", "2",
            "--out", str(tmp_path / "o.csv")]
    assert validate_config(_parse(["decay"] + base)).trunc.n_max == 7
    with pytest.raises(ConfigError, match="n-max"):
        validate_config(_parse(["decay"] + base + ["--n-max", "5"]))
    assert validate_config(_parse(["decay"] + base + ["--n-max", "9"])).trunc.n_max == 9


def test_validate_range_only_for_sweep_commands(tmp_path):
    out = str(tmp_path / "o.csv")
    ns = _parse(["decay", "--lambda", "0.1", "--tau", "100",
                 "--ts", "0.6:0.8:0.1", "--steps", "2", "--out", out])
    with pytest.raises(ConfigError, match="single value"):
        validate_config(ns)
    ns = _parse(["mc-sweep", "--lambda", "0.1", "--tau", "100",
                 "--ts", "0.6:0.8:0.1", "--out", out])
    cfg = validate_config(ns)
    assert len(cfg.subs) == 3


def test_validate_range_clips_closed_border(tmp_path):
    # a sweep written up to 1.00 drops the out-of-domain endpoint only
    ns = _parse(["mc-sweep", "--lambda", "0.1", "--tau", "100",
                 "--ts", "0.96:1.00:0.01", "--out", str(tmp_path / "o.csv")])
    cfg = validate_config(ns)
    assert [sub.t_s for sub in cfg.subs] == pytest.approx((0.96, 0.97, 0.98, 0.99))
    ns = _parse(["mc-sweep", "--lambda", "0.1", "--tau", "100",
                 "--ts", "1.0:1.2:0.1", "--out", str(tmp_path / "o.csv")])
    with pytest.raises(ConfigError, match="no values inside"):
        validate_config(ns)


def test_validate_sweep_needs_finite_tau(tmp_path):
    ns = _parse(["mc-sweep", "--lambda", "0.1", "--t", "1.0",
                 "--ts", "0.7:0.8:0.05", "--out", str(tmp_path / "o.csv")])
    with pytest.raises(ConfigError, match="finite tau"):
        validate_config(ns)


def _refuse_run(monkeypatch):
    # a stand-in runner that refuses to start: validation must stop the run
    def refuse(cfg):
        raise AssertionError(f"{cfg.command} ran past validation")

    monkeypatch.setattr(cli, "run", refuse)


def _fails_fast(argv, capsys, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mc-sweep", "avg-ent"])
def test_sweeps_refuse_a_tau_that_rounds_t_to_one(monkeypatch, tmp_path, capsys, command):
    # tau = 1e17 is finite, but t = sqrt(1 - 1/tau) rounds to 1.0
    _refuse_run(monkeypatch)
    argv = [command, "--lambda", "0.1", "--tau", "1e17", "--ts", "0.9",
            "--out", str(tmp_path / "o.csv")]
    _fails_fast(argv, capsys, "--tau: the arm-B scan needs finite tau (t < 1), got t=1.0")


# the flags each command reads beyond the common ones, at valid values
_OWN_ARGV = {
    "distill": {"--ma": "1", "--mb": "1"},
    "decay": {"--steps": "5"},
    "pij": {"--imax": "2", "--jmax": "2"},
}


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("distill", {"--lambda": None}, "--lambda is required"),
        ("distill", {"--tau": None}, "one of --tau or --t is required"),
        ("distill", {"--ma": "0"}, "--ma: ma must be an integer >= 1, got 0"),
        ("decay", {"--steps": "0"}, "--steps: steps must be an integer >= 1, got 0"),
        ("pij", {"--imax": "0"}, "--imax: imax must be an integer >= 1, got 0"),
        ("distill", {"--n-max": "-1"}, "--n-max must be >= 0 (0 = auto), got -1"),
        ("distill", {"--threads": "-1"}, "--threads must be >= 0 (0 = auto), got -1"),
        ("distill", {"--out": None}, "--out is required"),
    ],
    ids=["no-lambda", "no-tau-or-t", "ma-0", "steps-0", "imax-0", "n-max-negative",
         "threads-negative", "no-out"],
)
def test_each_refusal_fails_fast(monkeypatch, tmp_path, capsys, command, change, message):
    # a valid invocation with one flag dropped (None) or set out of range
    _refuse_run(monkeypatch)
    flags = {"--lambda": "0.1", "--tau": "100", "--ts": "0.99", **_OWN_ARGV[command],
             "--out": str(tmp_path / "o.csv"), **change}
    argv = [command] + [x for flag, v in flags.items() if v is not None for x in (flag, v)]
    _fails_fast(argv, capsys, message)


def test_threads_zero_resolves_to_the_cpu_count(tmp_path, capsys):
    ns = _parse(["avg-ent", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                 "--threads", "0", "--out", str(tmp_path / "o.csv")])
    want = os.cpu_count() or 1
    assert validate_config(ns).threads == want
    assert f"threads={want}\n" in capsys.readouterr().err


def test_out_naming_a_directory_fails_fast(monkeypatch, tmp_path, capsys):
    _refuse_run(monkeypatch)
    argv = ["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
            "--steps", "1", "--out", str(tmp_path)]
    _fails_fast(argv, capsys, f"--out names a directory, not a file: {tmp_path}")


def test_squeezing_near_one_fails_fast(monkeypatch, tmp_path, capsys):
    # the automatic cutoff at lambda = 0.999999999 is about 1.7e10; it must
    # come from logarithms, not from a loop over every cutoff, and the
    # mashing commands refuse it before anything of its size is built
    _refuse_run(monkeypatch)
    argv = ["--lambda", "0.999999999", "--tau", "100", "--ts", "0.99",
            "--out", str(tmp_path / "o.csv")]
    for command, own, message in (
        ("pij", ["--imax", "2", "--jmax", "2"], "needs a working set of about"),
        ("distill", ["--ma", "1", "--mb", "1"], "--n-max: mashing needs n_max <= 98"),
        ("mc-sweep", [], "--n-max: mashing needs n_max <= 98"),
        ("avg-ent", [], "--n-max: mashing needs n_max <= 98"),
    ):
        start = time.perf_counter()
        _fails_fast([command, *argv, *own], capsys, message)
        assert time.perf_counter() - start < 0.5, command


# --- the command table -----------------------------------------------------

# a valid value for each flag a row of sweep.COMMANDS can name
_OWN_VALUES = {"steps": "1", "ma": "1", "mb": "1", "imax": "1", "jmax": "2",
               "max_iter": "50"}


def _row_argv(command, out):
    argv = [command, "--lambda", "0.1", "--tau", "100", "--ts", "0.99", "--out", str(out)]
    for field in sweep.COMMANDS[command].flags:
        argv += [cli._flag(field), _OWN_VALUES[field]]
    return argv


@pytest.mark.parametrize("command", list(sweep.COMMANDS))
def test_each_row_refuses_the_flags_of_other_rows(monkeypatch, tmp_path, capsys, command):
    # a subcommand takes the common flags plus its row's; any other row's
    # flag is a usage error (exit 1) before a stand-in runner that refuses
    # to run
    argv = _row_argv(command, tmp_path / "o.csv")
    assert validate_config(_parse(argv)).command == command
    _refuse_run(monkeypatch)
    own = set(sweep.COMMANDS[command].flags)
    foreign = {f for row in sweep.COMMANDS.values() for f in row.flags} - own
    assert foreign
    for field in sorted(foreign):
        flag = cli._flag(field)
        _fails_fast(argv + [flag, _OWN_VALUES[field]], capsys,
                    f"unrecognized arguments: {flag}")


_COMMON_KEYS = ["command", "version", "lambda", "t", "tau", "ts", "n_max",
                "eig_tol", "trace_tol", "conv_tol", "threads"]


@pytest.mark.parametrize(
    "command, flags, runner_keys",
    [
        ("decay", ["steps"], ["trunc_warning"]),
        ("malt-trace", ["ma", "mb"], ["joint_prob"]),
        ("pij", ["imax", "jmax"], []),
        ("distill", ["ma", "mb", "max_iter"],
         ["joint_prob", "mash_iterations", "converged", "max_discarded", "tail"]),
        ("mc-sweep", ["max_iter"],
         ["baseline_negativity", "mash_rounds", "mashed_branches", "max_discarded", "max_tail"]),
        ("avg-ent", ["max_iter"],
         ["mash_rounds", "mashed_branches", "max_discarded", "max_tail"]),
    ],
)
def test_metadata_records_exactly_the_flags_a_run_reads(tmp_path, command, flags, runner_keys):
    # the common keys, then the row's flags, then what the runner reports
    assert list(sweep.COMMANDS[command].flags) == flags
    out = tmp_path / "o.csv"
    argv = _row_argv(command, out)
    argv[argv.index("--ts") + 1] = "0.75"  # a short scan for the sweeps
    assert main(argv) == 0
    meta = _split(out)[0]
    assert list(meta) == _COMMON_KEYS + flags + runner_keys + ["wall_time_s"]
    for field in flags:
        assert meta[field] == _OWN_VALUES[field]


@pytest.mark.parametrize("command", list(sweep.COMMANDS))
def test_bad_loss_and_ts_are_reported_under_their_flags(command):
    # the library's constructors and checks hold the ranges; each error is
    # named by its flag, and every error of the invocation is collected
    base = [command, "--lambda", "1.5", "--ts", "1.5", "--out", "/nonexistent/x.csv"]
    for loss, message in (
        (["--t", "1.5"], "--t: transmissivity t must lie in (0, 1], got 1.5"),
        (["--tau", "0.5"], "--tau: tau must exceed 1, got 0.5"),
    ):
        ns = _parse(base + loss)
        with pytest.raises(ConfigError) as err:
            validate_config(ns)
        missing = [f"{cli._flag(f)} is required for {command}"
                   for f in sweep.COMMANDS[command].flags if getattr(ns, f) is None]
        assert sorted(str(err.value).splitlines()) == sorted([
            "--lambda: squeezing parameter must lie in [0, 1), got 1.5",
            message,
            "--ts: t_s must lie in (0, 1), got 1.5",
            *missing,
            "--out directory does not exist: /nonexistent",
        ])


@pytest.mark.parametrize(
    "lam, n_max", [(-0.1, 8), (1.0, 8), (1.5, 8), (0.1, 5), (0.4, 17), (0.6, 30)]
)
def test_lambda_and_cutoff_are_refused_with_the_library_message(tmp_path, capsys, lam, n_max):
    # the CLI admits lambda and the cutoff through the check tmss makes, so
    # a refusal is tmss's own message under the flag at fault; the auto
    # cutoff and the one above it run
    with pytest.raises(ValueError) as err:
        core.tmss(lam, core.TruncationConfig(n_max))
    flag = "--n-max" if 0.0 <= lam < 1.0 else "--lambda"
    argv = ["decay", "--lambda", str(lam), "--tau", "100", "--ts", "0.99", "--steps", "1",
            "--out", str(tmp_path / "o.csv"), "--n-max"]
    assert main(argv + [str(n_max)]) == 1
    assert capsys.readouterr().err.splitlines() == ["configuration error:", f"{flag}: {err.value}"]
    if flag == "--n-max":
        assert n_max < auto_n_max(lam)
        for ok in (auto_n_max(lam), auto_n_max(lam) + 1):
            assert main(argv + [str(ok)]) == 0


def test_readme_command_line_examples_are_accepted(tmp_path):
    # every `distillery ...` line of the README's Command line block parses
    # and validates (not run), so an example may not pass a flag its
    # subcommand does not take
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("distillery ")]
    assert sorted(argv[0] for argv in examples) == sorted(sweep.COMMANDS)
    for argv in examples:
        argv[argv.index("--out") + 1] = str(tmp_path / "o.csv")
        assert validate_config(_parse(argv)).command == argv[0]


# --- output contract -------------------------------------------------------


def test_decay_csv_format(tmp_path):
    out = tmp_path / "decay.csv"
    rc = main(["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--steps", "3", "--out", str(out)])
    assert rc == 0
    meta, body = _split(out)
    for key in ("command", "version", "lambda", "t", "tau", "n_max",
                "eig_tol", "trace_tol", "conv_tol", "wall_time_s"):
        assert key in meta
    assert meta["command"] == "decay"
    assert meta["n_max"] == "7"
    assert body[0] == "m,neg_loss_only,neg_vac_only,neg_both"
    assert len(body) == 5
    first = body[1].split(",")
    assert abs(float(first[1]) - math.log2(1.1 / 0.9)) < 1e-6
    # every column decreases along the sweep
    rows = [list(map(float, b.split(","))) for b in body[1:]]
    for col in (1, 2, 3):
        assert all(b[col] < a[col] for a, b in zip(rows, rows[1:]))
    # floats rendered at 15 significant digits, round-trip stable
    for row in body[1:]:
        for cell in row.split(",")[1:]:
            assert _fmt(float(cell)) == cell
    # atomic write leaves no temp files behind
    assert os.listdir(tmp_path) == ["decay.csv"]


def test_decay_solves_its_three_states_as_one_stack(monkeypatch, tmp_path):
    # a lone solve makes one eigvalsh call per block size, so decay solves
    # its three states of each step together: one call per step, stack of 3
    stacks = []
    real_eigvalsh = negativity._block_eigvalsh

    def counting(x, kind):
        stacks.append((x.shape[0], kind))
        return real_eigvalsh(x, kind)

    monkeypatch.setattr(negativity, "_block_eigvalsh", counting)
    rc = main(["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--steps", "5", "--out", str(tmp_path / "decay.csv")])
    assert rc == 0
    assert stacks == [(3, "pt")] * 6


def test_distill_solves_each_state_once(monkeypatch, tmp_path):
    # malt solves cycles 0..2 and each mashing round solves its iterate; the
    # malted state's value is malt's last, not solved again for mashing
    solved = []
    real_eigvalsh = negativity._block_eigvalsh

    def counting(x, kind):
        if kind == "pt":
            solved.append(x.shape[0])
        return real_eigvalsh(x, kind)

    monkeypatch.setattr(negativity, "_block_eigvalsh", counting)
    out = tmp_path / "distill.csv"
    rc = main(["distill", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--ma", "1", "--mb", "2", "--out", str(out)])
    assert rc == 0
    meta, _ = _split(out)
    assert sum(solved) == 3 + int(meta["mash_iterations"])


def test_malt_trace_csv(tmp_path):
    out = tmp_path / "mt.csv"
    rc = main(["malt-trace", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--ma", "1", "--mb", "2", "--out", str(out)])
    assert rc == 0
    meta, body = _split(out)
    assert body[0] == "m,negativity"
    assert len(body) == 4  # cycles 0..2
    assert float(meta["joint_prob"]) > 0.0
    assert [int(r.split(",")[0]) for r in body[1:]] == [0, 1, 2]


def test_pij_csv_rows_unique_sorted(tmp_path):
    out = tmp_path / "pij.csv"
    rc = main(["pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--imax", "2", "--jmax", "3", "--out", str(out)])
    assert rc == 0
    _, body = _split(out)
    assert body[0] == "i,j,p"
    keys = [tuple(map(int, r.split(",")[:2])) for r in body[1:]]
    assert len(keys) == 6
    assert len(set(keys)) == 6
    assert keys == sorted(keys)


def test_pij_single_cell_matches_trajectory_oracle(tmp_path):
    out = tmp_path / "p11.csv"
    rc = main(["pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--imax", "1", "--jmax", "1", "--n-max", "8", "--out", str(out)])
    assert rc == 0
    _, body = _split(out)
    p = float(body[1].split(",")[2])
    assert abs(p - P11_TRAJ_NMAX8) < 1e-10 * P11_TRAJ_NMAX8 + 1e-16
    live = oracles.p11_trajectory_oracle(0.1, 8, math.sqrt(1 - 1 / 100), 0.99)
    assert p == pytest.approx(live, rel=1e-10)


def test_pij_zero_squeezing_writes_a_zero_grid(tmp_path):
    # vacuum holds no phonon to count: every cell is 0, not a failure
    out = tmp_path / "p0.csv"
    rc = main(["pij", "--lambda", "0", "--tau", "100", "--ts", "0.99",
               "--imax", "2", "--jmax", "3", "--out", str(out)])
    assert rc == 0
    _, body = _split(out)
    assert [float(r.split(",")[2]) for r in body[1:]] == [0.0] * 6


def _perfbench_harness(monkeypatch):
    # perfbench/run.py as a module: its workloads, references and checks
    here = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))  # run.py imports traced.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


@pytest.mark.parametrize("name", ["pij-grid", "distill-mid", "avg-ent-long", "malt-wide"])
def test_workload_matches_its_benchmark_reference(monkeypatch, tmp_path, name):
    # each benchmark run, in-process, against refs/<name>.csv at the harness
    # tolerance |x - ref| <= 1e-9 |ref| + 1e-15, plus its anchor
    harness = _perfbench_harness(monkeypatch)
    assert (harness.REL_TOL, harness.ABS_TOL) == (1e-9, 1e-15)
    assert sorted(harness.WORKLOADS) == sorted(
        ["pij-grid", "distill-mid", "avg-ent-long", "malt-wide"]
    )
    workload = harness.WORKLOADS[name]
    out = tmp_path / f"{name}.csv"
    assert main([*workload.argv, "--threads", "1", "--out", str(out)]) == 0
    assert harness.check_output(workload, out, harness.REFS / f"{name}.csv") == []


def _golden_cells_differ(got, want):
    # integers and words (distill's phase column) exactly; floats to 1e-12
    # relative + 1e-15, looser than the last printed digit, which another
    # numpy build may move
    try:
        return int(got) != int(want)
    except ValueError:
        pass
    try:
        return not abs(float(got) - float(want)) <= 1e-12 * abs(float(want)) + 1e-15
    except ValueError:
        return got != want


@pytest.mark.parametrize("name", sorted(make_golden.GOLDEN))
def test_body_matches_its_golden_file(tmp_path, name):
    # argvs that no benchmark workload runs, against the bodies
    # tests/make_golden.py wrote
    got = make_golden.csv_body(make_golden.GOLDEN[name], tmp_path / "o.csv")
    with open(make_golden.GOLDEN_DIR / f"{name}.csv", encoding="utf-8") as f:
        want = f.read().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        cells, ref_cells = row.split(","), ref.split(",")
        assert len(cells) == len(ref_cells), row
        assert not any(map(_golden_cells_differ, cells, ref_cells)), (row, ref)


def test_distill_csv_stages(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["distill", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--ma", "1", "--mb", "1", "--out", str(out)])
    assert rc == 0
    meta, body = _split(out)
    assert body[0] == "stage,phase,negativity,prob"
    phases = [r.split(",")[1] for r in body[1:]]
    assert phases[0] == "malt"
    assert phases[-1] == "mash"
    assert phases == sorted(phases, key=lambda p: (p != "malt"))  # malt block first
    assert meta["converged"] == "1"
    assert int(meta["mash_iterations"]) >= 1
    assert 0.0 < float(meta["tail"]) < float(meta["conv_tol"]) / 3
    negs = [float(r.split(",")[2]) for r in body[1:]]
    assert negs[-1] > negs[0]


def test_mc_sweep_csv_threshold(tmp_path):
    out = tmp_path / "mc.csv"
    rc = main(["mc-sweep", "--lambda", "0.1", "--tau", "100",
               "--ts", "0.6:0.8:0.05", "--out", str(out)])
    assert rc == 0
    meta, body = _split(out)
    assert body[0] == "ts,m_c"
    vals = [(float(a), int(b)) for a, b in (r.split(",") for r in body[1:])]
    assert [v for _, v in vals[:2]] == [0, 0]  # below threshold
    assert vals[-1][1] >= 1
    assert float(meta["baseline_negativity"]) == pytest.approx(math.log2(1.1 / 0.9), rel=1e-12)


def test_avg_ent_csv(tmp_path):
    out = tmp_path / "avg.csv"
    rc = main(["avg-ent", "--lambda", "0.1", "--tau", "100",
               "--ts", "0.75", "--out", str(out)])
    assert rc == 0
    meta, body = _split(out)
    assert body[0] == "ts,m_c,avg_ent"
    ts, mc, val = body[1].split(",")
    assert int(mc) >= 1
    assert float(val) > math.log2(1.1 / 0.9)
    # every retained j mashed, and so did the first j that failed
    assert int(meta["mash_rounds"]) > int(mc)
    assert 0.0 <= float(meta["max_discarded"]) < 1e-9


def test_sweeps_report_mash_diagnostics_per_point(tmp_path):
    argv = ["--lambda", "0.1", "--tau", "100", "--ts", "0.7:0.8:0.05"]
    for command in ("mc-sweep", "avg-ent"):
        out = tmp_path / f"{command}.csv"
        assert main([command] + argv + ["--out", str(out)]) == 0
        meta, body = _split(out)
        rounds = [int(r) for r in meta["mash_rounds"].split(";")]
        assert len(rounds) == len(body) - 1  # one entry per t_s row, in order
        assert all(r >= 1 for r in rounds)
        # each point mashed its retained j's, the first failing one and
        # those its chunk reached past it
        mashed = [int(b) for b in meta["mashed_branches"].split(";")]
        m_c = [int(row.split(",")[1]) for row in body[1:]]
        assert all(m + 1 <= b <= 2 * m + 1 for m, b in zip(m_c, mashed))
        assert 0.0 <= float(meta["max_discarded"]) < 1e-9
        assert 0.0 < float(meta["max_tail"]) < float(meta["conv_tol"]) / 3
    out = tmp_path / "mo.csv"
    assert main(["mc-sweep"] + argv + ["--max-iter", "0", "--out", str(out)]) == 0
    meta, _ = _split(out)
    assert meta["mash_rounds"] == "0;0;0"
    assert float(meta["max_discarded"]) == 0.0
    assert float(meta["max_tail"]) == 0.0


def test_max_iter_zero_selects_malt_only_gain(tmp_path, capsys):
    # --max-iter 0 is the malt-only baseline: the scan with zero mashing
    # rounds, and distill's malting rows alone; --baseline is gone
    argv = ["--lambda", "0.1", "--tau", "100", "--ts", "0.99"]
    out = tmp_path / "mo.csv"
    assert main(["mc-sweep", *argv, "--max-iter", "0", "--out", str(out)]) == 0
    meta, body = _split(out)
    assert meta["max_iter"] == "0"
    assert int(body[1].split(",")[1]) >= 1
    arms = ["--ma", "1", "--mb", "3"]
    assert main(["malt-trace", *argv, *arms, "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["distill", *argv, *arms, "--max-iter", "0", "--out", str(out)]) == 0
    meta, body = _split(out)
    assert meta["max_iter"] == "0" and meta["mash_iterations"] == "0"
    trace = [row.split(",") for row in _split(tmp_path / "m.csv")[1][1:]]
    assert [row.split(",")[:3] for row in body[1:]] == [[m, "malt", n] for m, n in trace]
    _fails_fast(["mc-sweep", *argv, "--baseline", "malt-only", "--out", str(out)], capsys,
                "unrecognized arguments: --baseline")
    _fails_fast(["avg-ent", *argv, "--max-iter", "-1", "--out", str(out)], capsys,
                "--max-iter: max_iter must be an integer >= 0, got -1")


# --- exit codes ------------------------------------------------------------


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_csv_gets_the_permissions_open_would_give(tmp_path, umask):
    # a new CSV is 0o666 less the umask, as open() creates files, and the
    # write leaves no temp file behind
    path = tmp_path / "perm.csv"
    old = os.umask(umask)
    try:
        sweep.write_csv(str(path), ("a",), [(1,)], {"k": 1})
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["perm.csv"]
    assert _split(path) == ({"k": "1"}, ["a", "1"])


def test_csv_write_is_atomic_and_cleans_up_on_failure(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "keep.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="cannot format"):
        sweep.write_csv(str(path), ("a",), [(1,), (Unprintable(),)], {})
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["keep.csv"]


def test_exit_code_zero_on_success(tmp_path):
    rc = main(["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
               "--steps", "1", "--out", str(tmp_path / "ok.csv")])
    assert rc == 0


def test_exit_code_one_on_config_error(tmp_path):
    rc = main(["decay", "--lambda", "1.5", "--tau", "100", "--ts", "0.99",
               "--steps", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert not (tmp_path / "x.csv").exists()
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def _fits(command, n_max, **flags):
    # whether the working set of one invocation stays within the budget
    flags = {**sweep.RunConfig._field_defaults, **flags}
    return cli.working_set_bytes(command, n_max, flags) <= cli.MEMORY_BUDGET_BYTES


def _first_refused(fits, start=1):
    # the smallest value from `start` on at which fits() turns false, for a
    # fits() that holds at start and stays false once it turns
    step = 1
    while fits(start + step):
        step *= 2
    low, high = start + step // 2, start + step
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return high


def _clear_caches():
    # the per-cutoff tables are built inside a traced run, as in a fresh process
    for module in (core, channels, mashing):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize(
    "command, n_max, own",
    [
        ("decay", 40, ["--steps", "1", "--ts", "0.99"]),
        ("decay", 77, ["--steps", "1", "--ts", "0.99"]),
        ("malt-trace", 40, ["--ma", "1", "--mb", "2", "--ts", "0.99"]),
        ("malt-trace", 77, ["--ma", "1", "--mb", "2", "--ts", "0.99"]),
        ("pij", 200, ["--imax", "3", "--jmax", "2", "--ts", "0.99"]),
        ("pij", 300, ["--imax", "3", "--jmax", "2", "--ts", "0.99"]),
        ("distill", 18, ["--ma", "1", "--mb", "2", "--max-iter", "2", "--ts", "0.99"]),
        ("distill", 33, ["--ma", "1", "--mb", "2", "--max-iter", "2", "--ts", "0.99"]),
        # scans long enough to mash chunks of the plan's full width, 16 and 4
        ("mc-sweep", 7, ["--ts", "0.99"]),
        ("mc-sweep", 10, ["--ts", "0.9"]),
        ("avg-ent", 7, ["--ts", "0.99"]),
        ("avg-ent", 10, ["--ts", "0.9"]),
    ],
)
def test_each_command_peaks_within_its_count(tmp_path, capsys, command, n_max, own):
    # the traced peak of a whole run, tables built inside it, stays within
    # the working set its row of sweep.COMMANDS counts
    cfg, peak = _traced_run(tmp_path, command, n_max, own)
    assert peak <= cli.working_set_bytes(command, n_max, cfg._asdict())


def _traced_run(tmp_path, command, n_max, own):
    # (config, tracemalloc peak) of one whole run, with cold caches
    argv = [command, "--lambda", "0.1", "--tau", "100", "--n-max", str(n_max),
            "--out", str(tmp_path / "o.csv"), *own]
    cfg = validate_config(_parse(argv))
    _clear_caches()
    tracemalloc.start()
    try:
        sweep.run(cfg)
        return cfg, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_max", [40, 77])
def test_malting_peaks_near_three_and_a_half_states(tmp_path, capsys, n_max):
    # loss multiplies each diagonal at its own length and a count step
    # builds one array, so a malting run peaks at 3.44-3.51 d^3 float64 here
    # (4.38-4.50 d^3 with loss at the full side and one array per counted
    # arm and per normalization), below its count of 5 d^3
    _, peak = _traced_run(tmp_path, "malt-trace", n_max, ["--ma", "1", "--mb", "2", "--ts", "0.99"])
    assert peak <= 3.6 * 8 * (n_max + 1) ** 3


def _mashing_share(d):
    # the bytes a mashing command counts on top of its malting run
    floats = {name: sweep.COMMANDS[name].floats(d, {}) for name in ("avg-ent", "malt-trace")}
    return 8 * (floats["avg-ent"] - floats["malt-trace"])


def test_scan_chunk_windows_fit_the_memory_budget():
    # the arm-B scan mashes chunks of up to the plan's width of branches;
    # the expansions a mashing run keeps for all of them stay within
    # _EXPANSION_BUDGET_FLOATS, and where none is kept a chunk is one
    # branch, counted at two d^4 arrays
    kept = {}
    for d in range(2, mashing._MASH_MAX_N_MAX + 2):
        plan = mashing._plan(d)
        width, kept[d] = plan.width, plan.kept
        assert width * kept[d] <= mashing._EXPANSION_BUDGET_FLOATS, d
        if not kept[d]:
            assert width == 1, d
            assert _mashing_share(d) == 16 * d**4, d
    # expansions are kept up to d = 16 (about 2 d^4 floats per branch)
    assert [d for d in kept if kept[d]] == list(range(2, 17))
    assert [mashing._plan(d).width for d in (8, 9, 10, 11, 12, 13, 14, 16, 17, 99)] == [
        16, 9, 6, 4, 3, 2, 1, 1, 1, 1]
    # and building a whole chunk's sources and running one round on it
    # peaks within the mashing share of the count, on both sides of the
    # kept-expansion cutoff
    rng = np.random.default_rng(3)
    for d in (8, 9, 10, 11, 12, 13, 16, 19, 34):
        width = mashing._plan(d).width
        x = rng.random((width, d, d, d))
        mashing._mash_round(x[:1], mashing._mash_source(x[:1]))  # fills the caches
        tracemalloc.start()
        try:
            mashing._mash_round(x, mashing._mash_source(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _mashing_share(d), d


def test_cutoff_over_memory_budget_fails_fast(tmp_path, capsys):
    # malting counts 5 d^3 float64, so malt-trace is refused from n_max 475
    # on, naming its rows, and n_max 474 fits
    argv = ["malt-trace", "--lambda", "0.9", "--tau", "100", "--ts", "0.99",
            "--ma", "1", "--mb", "1", "--out", str(tmp_path / "big.csv"), "--n-max"]
    assert main(argv + ["475"]) == 1
    err = capsys.readouterr().err
    need = cli.working_set_bytes("malt-trace", 475, {"ma": 1, "mb": 1})
    assert need > cli.MEMORY_BUDGET_BYTES
    assert (f"n_max=475 with 2 malt-trace rows needs a working set of about "
            f"{need / 2**30:.3g} GiB, over the 4 GiB budget") in err
    assert not (tmp_path / "big.csv").exists()
    assert validate_config(_parse(argv + ["474"])).trunc.n_max == 474
    # pij builds no two-mode array: n_max 400 fits, and so does 16 000
    pij = ["pij", *argv[1:7], "--imax", "1", "--jmax", "1", *argv[-3:]]
    for n_max in (400, 16_000):
        assert validate_config(_parse(pij + [str(n_max)])).trunc.n_max == n_max
    # malting at lambda = 0.9 (auto n_max = 163) fits, and so do the auto
    # cutoffs the benchmark and the acceptance suite mash at
    assert _fits("malt-trace", auto_n_max(0.9), ma=1, mb=1)
    assert _fits("distill", auto_n_max(0.6), ma=1, mb=1)


def test_pij_grid_over_memory_budget_fails_fast(monkeypatch, tmp_path, capsys):
    # the grid's cells count in the working set, so a 10^5 x 10^5 grid is
    # refused before any of it exists: stand-ins that refuse to run take the
    # place of the matrix and of the rows
    def refuse(*args):
        raise AssertionError("the pij grid was built")

    monkeypatch.setattr(sweep, "subtraction_probability_matrix", refuse)
    monkeypatch.setattr(sweep, "range", refuse, raising=False)
    argv = ["pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99"]
    out = tmp_path / "big.csv"
    rc = main(argv + ["--imax", "100000", "--jmax", "100000", "--out", str(out)])
    assert rc == 1
    need = cli.working_set_bytes("pij", 7, {"imax": 100000, "jmax": 100000})
    assert need > cli.MEMORY_BUDGET_BYTES
    assert (
        f"n_max=7 with 10000000000 pij rows needs a working set of about "
        f"{need / 2**30:.3g} GiB" in capsys.readouterr().err
    )
    assert not out.exists()
    # the largest square grid within the budget is accepted, the next refused
    side = _first_refused(lambda s: _fits("pij", 7, imax=s, jmax=s)) - 1
    grid = ["--imax", str(side), "--jmax", str(side), "--out", str(out)]
    assert validate_config(_parse(argv + grid)).imax == side
    grid[1] = grid[3] = str(side + 1)
    with pytest.raises(ConfigError, match="pij rows needs a working set"):
        validate_config(_parse(argv + grid))
    # malt-trace refuses the grid flags as unknown, before any run
    other = ["malt-trace", *argv[1:], "--ma", "1", "--mb", "1", *grid]
    _fails_fast(other, capsys, "unrecognized arguments: --imax")


def test_decay_steps_over_memory_budget_fail_fast(monkeypatch, tmp_path, capsys):
    # decay keeps a row per step, so the rows count in the working set and
    # --steps 10^9 is refused before a stand-in runner that refuses to run
    _refuse_run(monkeypatch)
    argv = ["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
            "--out", str(tmp_path / "o.csv"), "--steps"]
    need = cli.working_set_bytes("decay", 7, {"steps": 10**9})
    assert need > cli.MEMORY_BUDGET_BYTES
    _fails_fast(argv + [str(10**9)], capsys,
                f"n_max=7 with {10**9 + 1} decay rows needs a working set of about "
                f"{need / 2**30:.3g} GiB")
    # the most steps within the budget are accepted, one more refused
    steps = _first_refused(lambda s: _fits("decay", 7, steps=s)) - 1
    assert validate_config(_parse(argv + [str(steps)])).steps == steps
    with pytest.raises(ConfigError, match="decay rows needs a working set"):
        validate_config(_parse(argv + [str(steps + 1)]))
    # malt-trace refuses the step flag as unknown, before any run
    other = ["malt-trace", *argv[1:-1], "--ma", "1", "--mb", "1", "--steps", str(10**9)]
    _fails_fast(other, capsys, "unrecognized arguments: --steps")


@pytest.mark.parametrize("command", ["malt-trace", "distill"])
def test_cycle_rows_over_memory_budget_fail_fast(monkeypatch, tmp_path, capsys, command):
    # malt-trace and distill keep a row per clock cycle (distill one per
    # mashing round too), so --mb 10^8 is refused before a stand-in runner
    # that refuses to run, where t_s this close to 1 would not end the
    # trajectory early
    _refuse_run(monkeypatch)
    argv = [command, "--lambda", "0.1", "--tau", "1e12", "--ts", "0.999999", "--ma", "1",
            "--out", str(tmp_path / "o.csv"), "--mb"]
    extra = 50 if command == "distill" else 0  # distill's default --max-iter
    need = cli.working_set_bytes(command, 7, {"ma": 1, "mb": 10**8, "max_iter": 50})
    assert need > cli.MEMORY_BUDGET_BYTES
    _fails_fast(argv + [str(10**8)], capsys,
                f"n_max=7 with {10**8 + 1 + extra} {command} rows needs a working set of "
                f"about {need / 2**30:.3g} GiB")
    # the largest --mb within the budget is accepted, one more refused
    mb = _first_refused(lambda m: _fits(command, 7, ma=1, mb=m)) - 1
    assert validate_config(_parse(argv + [str(mb)])).mb == mb
    with pytest.raises(ConfigError, match=f"{command} rows needs a working set"):
        validate_config(_parse(argv + [str(mb + 1)]))


def test_readme_states_the_refusal_boundaries_of_the_counts():
    # the boundaries the README quotes are derived here from the counts:
    # the first refused cutoff of each command that does not mash, and the
    # largest rows and grid accepted at n_max = 7
    path = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    readme = " ".join(path.read_text(encoding="utf-8").split())

    def num(n):
        return f"{n:,}".replace(",", " ")

    own = {"decay": {"steps": 1}, "malt-trace": {"ma": 1, "mb": 1}, "pij": {"imax": 1, "jmax": 1}}
    cutoff = {c: _first_refused(lambda n: _fits(c, n, **own[c])) for c in own}
    need = cli.working_set_bytes("malt-trace", cutoff["malt-trace"], {"ma": 1, "mb": 1})
    steps = _first_refused(lambda s: _fits("decay", 7, steps=s)) - 1
    mb = {command: _first_refused(lambda m: _fits(command, 7, ma=1, mb=m)) - 1
          for command in ("malt-trace", "distill")}
    side = _first_refused(lambda s: _fits("pij", 7, imax=s, jmax=s)) - 1
    for sentence in (
        f"`n_max={cutoff['malt-trace']} with 2 malt-trace rows needs a working set of about "
        f"{need / 2**30:.3g} GiB, over the 4 GiB budget`",
        f"refuses `decay` from `--n-max` {num(cutoff['decay'])} on, `malt-trace` from "
        f"`--n-max` {num(cutoff['malt-trace'])}, and a 1 × 1 `pij` grid from "
        f"`--n-max` {num(cutoff['pij'])}.",
        f"At n_max = 7 it accepts at most `--steps` {num(steps)}, `--mb` "
        f"{num(mb['malt-trace'])} for `malt-trace` and {num(mb['distill'])} for `distill`",
        f"and a {num(side)} × {num(side)} `pij` grid.",
    ):
        assert sentence in readme


def test_mashing_commands_refuse_overflowing_cutoffs(tmp_path, capsys):
    argv = ["--lambda", "0.1", "--tau", "100", "--ts", "0.99"]
    arms = ["--ma", "1", "--mb", "1"]
    for command, own in (("distill", arms), ("mc-sweep", []), ("avg-ent", [])):
        out = tmp_path / f"{command}.csv"
        rc = main([command] + argv + own + ["--n-max", "99", "--out", str(out)])
        assert rc == 1
        assert (
            "--n-max: mashing needs n_max <= 98; at n_max=99 the untilted projector "
            "weights ((n_max)!)^2 overflow float64, and mashing past n_max=98 has not "
            "been checked" in capsys.readouterr().err
        )
        assert not out.exists()
    # malting alone has no such limit; only the memory budget refuses it
    rc = main(["malt-trace"] + argv + arms + ["--n-max", "475", "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "mashing" not in err and "budget" in err
    # n_max = 98 is the largest mashing cutoff, and it fits the budget
    cfg = validate_config(_parse(["distill"] + argv + arms + ["--n-max", "98",
                                                             "--out", str(tmp_path / "d.csv")]))
    assert cfg.trunc.n_max == 98


def test_mash_limit_is_where_the_output_weights_overflow():
    # the largest untilted output weight of mash_step is sf[d-1]^4 =
    # ((d - 1)!)^2, the last entry of diagonal 0 of the output weight table
    # once its exact tilt 2^(-4(d - 1)) is taken off (mashing._mash_weights)
    def top(dim):
        with np.errstate(over="ignore"):
            return np.ldexp(mashing._mash_weights(dim)[-1][0, -1, -1], 4 * (dim - 1))

    assert np.isfinite(top(mashing._MASH_MAX_N_MAX + 1))
    assert np.isinf(top(mashing._MASH_MAX_N_MAX + 2))
    # the tilted tables the kernel builds do not overflow there: every
    # entry of both, padding aside, is a finite normal float64
    for dim in (mashing._MASH_MAX_N_MAX + 1, mashing._MASH_MAX_N_MAX + 2):
        for table in mashing._mash_weights(dim):
            entries = np.abs(table[table != 0.0])
            assert np.isfinite(entries).all(), dim
            assert (entries >= np.finfo(np.float64).tiny).all(), dim
    # and the plan, which every mashing path reads first, refuses that cutoff
    mashing._plan(mashing._MASH_MAX_N_MAX + 1)
    with pytest.raises(ValueError, match=r"^mashing needs n_max <= 98; at n_max=99 "):
        mashing._plan(mashing._MASH_MAX_N_MAX + 2)


def test_exit_code_two_on_numerical_failure(tmp_path):
    # subtracting from vacuum is an impossible branch
    rc = main(["distill", "--lambda", "0", "--tau", "100", "--ts", "0.99",
               "--ma", "1", "--mb", "1", "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    assert not (tmp_path / "z.csv").exists()


# --- determinism -----------------------------------------------------------


def test_pool_gets_no_more_workers_than_items_and_cpus(monkeypatch):
    # a stand-in pool that records its size and starts no process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pmap(abs, [-1, -2, -3], 100_000) == [1, 2, 3]
    assert _pmap(abs, list(range(-9, 0)), 8) == list(range(9, 0, -1))
    assert _pmap(abs, list(range(-9, 0)), 2) == list(range(9, 0, -1))
    assert sizes == [3, 4, 2]
    # one usable worker runs the items in process, without a pool
    assert _pmap(abs, [-1], 8) == [1]
    assert _pmap(abs, [-1, -2], 1) == [1, 2]
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _pmap(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert sizes == [3, 4, 2]


def test_repeated_runs_are_bit_stable(tmp_path):
    argv = ["mc-sweep", "--lambda", "0.1", "--tau", "100",
            "--ts", "0.7:0.8:0.05", "--out", None]
    bodies = []
    for name in ("a.csv", "b.csv"):
        argv[-1] = str(tmp_path / name)
        assert main(list(argv)) == 0
        bodies.append(_split(tmp_path / name)[1])
    assert bodies[0] == bodies[1]


def test_thread_count_does_not_change_the_body(tmp_path):
    base = ["pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
            "--imax", "2", "--jmax", "2"]
    one = tmp_path / "t1.csv"
    two = tmp_path / "t2.csv"
    assert main(base + ["--threads", "1", "--out", str(one)]) == 0
    assert main(base + ["--threads", "2", "--out", str(two)]) == 0
    assert _split(one)[1] == _split(two)[1]
    assert _split(one)[0]["threads"] == "1"
    assert _split(two)[0]["threads"] == "2"


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    # the child imports the package the tests import, whether or not the
    # suite was started with PYTHONPATH set
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "distillery", "malt-trace", "--lambda", "0.1",
         "--tau", "100", "--ts", "0.99", "--ma", "1", "--mb", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "config:" in proc.stderr  # resolved config echoed to stderr


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**blas):
    # the environment of a `python -m distillery` child: this checkout's
    # package, no BLAS thread variable unless given
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = src
    env.update(blas)
    return env


def test_cli_module_is_not_an_entry_point(tmp_path):
    # `python -m distillery.cli` fails and names the entry point, running nothing
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "distillery.cli", "decay", "--lambda", "0.1",
         "--tau", "100", "--ts", "0.99", "--steps", "2", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 1
    assert "python -m distillery`" in proc.stderr
    assert "config:" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "blas, want",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
    ],
)
def test_cli_process_runs_one_blas_thread_unless_told_otherwise(tmp_path, blas, want):
    # a sitecustomize reports the child's OPENBLAS_NUM_THREADS and thread
    # count at exit, after the run
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, os, sys\n"
        "def report():\n"
        "    status = '/proc/self/status'\n"
        "    threads = [l.split()[1] for l in open(status) if l.startswith('Threads:')]"
        " if os.path.exists(status) else []\n"
        "    print('blas', os.environ.get('OPENBLAS_NUM_THREADS'), *threads, file=sys.stderr)\n"
        "atexit.register(report)\n"
    )
    env = _child_env(**blas)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-m", "distillery", "malt-trace", "--lambda", "0.1",
         "--tau", "100", "--ts", "0.99", "--ma", "1", "--mb", "1",
         "--out", str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = next(l for l in proc.stderr.splitlines() if l.startswith("blas ")).split()
    assert report[1] == want
    if want == "1" and len(report) > 2:
        assert report[2] == "1"  # numpy started no BLAS worker thread


@pytest.mark.parametrize(
    "argv, code",
    [
        (["malt-trace", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
          "--ma", "1", "--mb", "1", "--out", "m.csv"], 0),
        (["pij", "--lambda", "2", "--tau", "100", "--ts", "0.99",
          "--imax", "1", "--jmax", "1", "--out", "p.csv"], 1),
        (["avg-ent", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
          "--max-iter", "1", "--out", "a.csv"], 2),
        (["--help"], 0),
    ],
    ids=["success", "config-error", "numerical-failure", "help"],
)
def test_cli_process_exits_with_its_code_from_a_frozen_heap(tmp_path, argv, code):
    # a sitecustomize reports at exit how many objects the child froze out
    # of the collector; the entry freezes what its imports left, whatever
    # the run's outcome
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
    )
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-m", "distillery", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    report = next(l for l in proc.stderr.splitlines() if l.startswith("frozen "))
    assert int(report.split()[1]) > 0
    if argv == ["--help"]:
        assert proc.stdout.startswith("usage:")
        assert proc.stderr.splitlines() == [report]


def test_importing_the_cli_freezes_nothing():
    # only the process entry freezes the collector's heap
    code = "import gc, distillery.cli; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.stdout.split() == ["0"], proc.stderr


def test_library_leaves_the_blas_thread_variables_alone(tmp_path):
    # importing the package, the CLI module and the entry module, and running
    # the CLI in-process, set no environment variable and freeze nothing
    before, frozen = dict(os.environ), gc.get_freeze_count()
    importlib.import_module("distillery.__main__")
    assert main(["malt-trace", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                 "--ma", "1", "--mb", "1", "--out", str(tmp_path / "m.csv")]) == 0
    assert dict(os.environ) == before
    assert gc.get_freeze_count() == frozen


def test_package_import_is_lazy():
    import distillery

    for name in distillery.__all__:
        assert getattr(distillery, name) is not None
    # each name is defined in the module its row names, not only importable
    # from it
    for name in distillery.__all__:
        module = getattr(getattr(distillery, name), "__module__", None)
        if module is not None:
            assert module == "distillery." + distillery._SUBMODULE_OF[name], name
    with pytest.raises(AttributeError):
        distillery.no_such_name
    # dir() lists the public names without loading them
    code = (
        "import sys, distillery; names = set(dir(distillery)); "
        "print('numpy' in sys.modules, names >= set(distillery.__all__), distillery.__version__)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.stdout.split() == ["False", "True", distillery.__version__], proc.stderr


def test_mashing_and_the_channels_load_apart():
    # loss and counting load no mashing code, and the mashing kernel loads
    # neither the channels nor the protocol
    code = (
        "import importlib, sys; importlib.import_module(sys.argv[1]); "
        "print(*(m in sys.modules for m in sys.argv[2:]))"
    )
    for module, absent in (
        ("distillery.channels", ["distillery.mashing"]),
        ("distillery.mashing", ["distillery.channels", "distillery.protocol"]),
    ):
        proc = subprocess.run([sys.executable, "-c", code, module, *absent],
                              capture_output=True, text=True, env=_child_env())
        assert proc.stdout.split() == ["False"] * len(absent), (module, proc.stderr)
