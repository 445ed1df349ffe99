#!/usr/bin/env python3
"""Write solvebench/reference_mc.json: mc per instance at the default seed.

    python3 solvebench/make_reference.py

Families whose mc has a closed form (lopsided) are left out.  Each stored
value comes from a cover that ``verify_cover`` accepted; the benchmark's
tests cross-check the solver on reduced sizes against networkx and the
brute-force oracle.  Regenerate only when a workload generator changes.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mc = run.import_matchcover()
    ref = {"seed": workloads.DEFAULT_SEED, "mc": {}}
    for name in workloads.WORKLOADS:
        batch = workloads.make_batch(name, workloads.DEFAULT_SEED)
        if all(inst.expected_mc is not None for inst in batch):
            continue
        values = []
        for i, inst in enumerate(batch):
            res, valid = run.solve_once(mc, inst.text)
            if not valid:
                raise SystemExit(f"{name} instance {i}: cover does not verify")
            values.append(res.cover.k)
        ref["mc"][name] = values
        print(f"{name}: {values}")
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
