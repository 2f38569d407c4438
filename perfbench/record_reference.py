"""Record the reference digests in reference.json from the current program.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: every later
run is checked against what it writes.  Corpus digests are recorded for
seed 0; on other seeds the program's own exact checks decide.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REFERENCE_SEED = 0


def main() -> int:
    run.import_homgrow()
    refs = {}
    for size, smoke in (("full", False), ("smoke", True)):
        refs[size] = {}
        for name in workloads.WORKLOADS:
            wl = workloads.make_workload(name, REFERENCE_SEED, smoke)
            res = wl.run_pass(None, whole_table=True)
            if res.failed:
                print("\n".join(res.errors), file=sys.stderr)
                return 1
            refs[size][name] = wl.reference(res)
            print(f"{size} {name}: {res.attempted} operations", flush=True)
    run.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
