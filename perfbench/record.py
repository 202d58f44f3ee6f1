"""Record reference.json: the checkable outputs of every job variant of every workload.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record.py

The benchmark compares every job it runs against these values (see verify.py).
"""

from __future__ import annotations

import json
import os
import sys

import jobs
from run import REFERENCE, ROOT, WORK, Runner, remove_work, setup


def main() -> int:
    reference = {}
    work = ROOT / WORK / f"record-{os.getpid()}"
    try:
        for workload in jobs.WORKLOADS:
            ergodia, templates, config_paths = setup(ROOT, workload, work)
            runner = Runner(ergodia, templates, config_paths, work, None)
            for t in templates:
                for v in range(t.variants):
                    outcome = runner.run(t.make(v))
                    if outcome.error:
                        print(f"{outcome.job.name}: {outcome.error}", file=sys.stderr)
                        return 1
                    print(f"{workload} {outcome.job.name} {outcome.wall:.3f} s", file=sys.stderr)
            reference[workload] = runner.recorded
    finally:
        remove_work(work)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
