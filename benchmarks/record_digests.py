"""Record the stdout digest of every benchmark call into digests.json.

    python3 benchmarks/record_digests.py

Runs each distinct call of every workload once for each seed in SEEDS and
stores sha256(stdout) under the call's content key.  run.py fails any call
whose stdout no longer matches, so verdicts, state and edge order, witnesses
and plays stay byte-identical.  A call that fails its exit-code or
known-answer check is not recorded: the script stops instead.
"""

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEEDS = tuple(range(32)) + workloads.HELD_OUT_SEEDS


def main() -> int:
    from opennet import cli

    digests = {}
    run.WORK.mkdir(exist_ok=True)
    docs = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.build(name, seed)
                seed_docs = docs / f"{name}-{seed}"
                seed_docs.mkdir()
                run.write_docs(workload, seed_docs)
                checker = run.Checker({})
                for op in workload.ops:
                    key = workload.op_key(op)
                    if key in digests:
                        continue
                    _, code, stdout = run.call(cli, run.resolve(op.argv, seed_docs))
                    if not checker(op, key, code, stdout):
                        print("\n".join(checker.failures), file=sys.stderr)
                        return 1
                    digests[key] = run.digest(stdout)
    finally:
        shutil.rmtree(docs, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    run.DIGESTS.write_text(json.dumps(
        {"seeds": list(SEEDS), "digests": dict(sorted(digests.items()))},
        indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} call digests for seeds {SEEDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
