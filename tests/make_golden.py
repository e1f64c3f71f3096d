"""Write the CSV bodies of CLI argvs that no benchmark workload runs.

    PYTHONPATH=src python tests/make_golden.py

Each tests/golden/<name>.csv is the header and data rows of one CLI run,
without its '# key=value' metadata lines, which hold the wall time.
tests/test_sweep_cli.py compares a fresh run of each argv with its file.
Rewrite them only with a change that means to move the printed numbers.
"""

import pathlib
import sys
import tempfile

from distillery.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "decay": ["decay", "--lambda", "0.1", "--tau", "100", "--ts", "0.99", "--steps", "50"],
    "mc-sweep": ["mc-sweep", "--lambda", "0.2", "--tau", "100", "--ts", "0.05:0.99:0.02"],
    "distill-lossless": [
        "distill", "--lambda", "0.6", "--t", "1", "--ts", "0.99", "--ma", "1", "--mb", "1",
    ],
    "avg-ent-range": ["avg-ent", "--lambda", "0.2", "--tau", "100", "--ts", "0.80:0.98:0.06"],
}


def csv_body(argv, out):
    """The header and data lines of the CSV that the CLI run `argv` writes
    to the path out."""
    code = main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    with open(out, encoding="utf-8") as f:
        return [line for line in f.read().splitlines() if not line.startswith("# ")]


def write_golden():
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in GOLDEN.items():
            lines = csv_body(argv, pathlib.Path(tmp) / "out.csv")
            with open(GOLDEN_DIR / f"{name}.csv", "w", encoding="utf-8", newline="\n") as f:
                f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(write_golden())
