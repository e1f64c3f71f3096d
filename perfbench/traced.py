"""Traced run of one distillery CLI invocation, in-process.

Wraps the public functions listed in TRACED (plus the mashing kernel
channels._convolve_pairs, the known hot spot inside mash_step), calls
distillery.cli.main with the given arguments, and writes every span once,
at exit, as JSON. Nothing under src/ is modified: the wrappers replace the
functions in the namespaces of the imported modules only.

    python3 perfbench/traced.py --workload NAME --spans FILE -- <cli args>

Run from the repository root with src/ on PYTHONPATH. The exit code is the
CLI's. run.py starts this script as a child process and reads FILE.
"""

import argparse
import functools
import importlib
import json
import sys
import time

MODULES = ("core", "channels", "negativity", "protocol", "sweep", "cli")

TRACED = (
    ("core", "tmss"),
    ("core", "state_from_coeffs"),
    ("core", "normalize"),
    ("channels", "loss_event"),
    ("channels", "detect_one_mode"),
    ("channels", "detect_phonons"),
    ("channels", "mash_step"),
    ("channels", "_convolve_pairs"),
    ("negativity", "log_negativity"),
    ("negativity", "trace_distance"),
    ("protocol", "malt"),
    ("protocol", "mash_iterate"),
    ("protocol", "average_entanglement"),
    ("sweep", "write_csv"),
    ("cli", "validate_config"),
)


def _mash_step_dim(args, kwargs, result):
    return args[0].dim


def _mash_iterate_rounds(args, kwargs, result):
    return result.iterations


# A span's optional value: the state dimension d of each mash_step call and
# the round count of each mash_iterate call.
OBSERVE = {
    "channels.mash_step": _mash_step_dim,
    "protocol.mash_iterate": _mash_iterate_rounds,
}


class Tracer:
    """Span recorder: each span is [name, start, end, parent, workload,
    raised, value], with parent the index of the enclosing span or -1."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, workload = self.spans, self._stack, self.workload
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], workload, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[6] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every reference to a traced function held by the package
        or its modules; a function absent at this commit is skipped."""
        namespaces = [importlib.import_module("distillery")]
        namespaces += [importlib.import_module(f"distillery.{m}") for m in MODULES]
        for module, func in TRACED:
            original = getattr(namespaces[1 + MODULES.index(module)], func, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args

    tracer = Tracer(ns.workload)
    tracer.install()
    from distillery import cli

    t0 = time.perf_counter()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        t1 = time.perf_counter()
        with open(ns.spans, "w", encoding="utf-8") as f:
            json.dump(
                {"workload": ns.workload, "t0": t0, "t1": t1, "spans": tracer.spans}, f
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
