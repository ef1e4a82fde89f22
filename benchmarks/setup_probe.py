"""One benchmark set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED DIRECTORY

Imports the package's CLI, generates the workload's documents for the seed
and writes them into DIRECTORY.  run.py times whole runs of this script to
report set-up time, interpreter start included.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv):
    name, seed, directory = argv
    import opennet.cli  # noqa: F401  (import cost is part of set-up)
    import workloads

    for doc, text in workloads.build(name, int(seed)).docs.items():
        (Path(directory) / doc).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
