#!/usr/bin/env python3
"""Record reference.json: the study rows' mean MSE that the benchmark checks.

    python3 perfbench/record_reference.py

For each study workload and size (full and quick), the study runs on the
pass seeds of benchmark seeds 0 .. SAMPLES-1.  Each row's reference is the
median of its mean MSE over those runs, and its factor is SPREAD_MARGIN times
the widest ratio seen between a run and the reference.  A row
passes its check when ref / factor <= mean MSE <= ref * factor.  The factors
are wide where the row is heavy-tailed (M = d^2 random ensembles); they catch
an estimator or sampler that is off by an order of magnitude, not noise.
"""

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = 20
SPREAD_MARGIN = 4.0


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_PATH, WORKLOADS, StudyWorkload, derive_seed

    table = {}
    for name, cls in WORKLOADS.items():
        if not issubclass(cls, StudyWorkload):
            continue
        table[name] = {}
        for mode in ("full", "quick"):
            workload = cls(0, quick=mode == "quick")
            runs = [[row[0] for row in workload.run(derive_seed(s, 0))] for s in range(SAMPLES)]
            rows = []
            for values in zip(*runs):
                ref = statistics.median(values)
                spread = max(max(values) / ref, ref / min(values))
                rows.append([ref, round(SPREAD_MARGIN * spread, 1)])
                print(f"{name} {mode}: ref {ref:.6g} min {min(values):.6g} "
                      f"max {max(values):.6g} factor {rows[-1][1]}", flush=True)
            table[name][mode] = rows
    table["_rule"] = (
        f"median of each row's mean MSE over benchmark seeds 0..{SAMPLES - 1} (pass 0); "
        f"factor = {SPREAD_MARGIN} x widest run/reference ratio"
    )
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
