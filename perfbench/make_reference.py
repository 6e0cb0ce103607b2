"""Regenerate the committed reference outputs under ``perfbench/reference``.

Usage, from the repository root::

    python3 perfbench/make_reference.py

For every workload seed it writes what ``workloads.reference_output``
computes, each in a fresh process with an empty cache:
``fleet-sweep-<seed>.json`` from the scalar engine (about 90 s each) and
``price-*-<seed>.txt`` from the figure run.  The paper seed's price
references are the repository's ``results/`` files and are not written
here; stream-billing's reference is computed at run time.  Only rerun
this when the simulation's outputs change on purpose: such a change
alters every reference, so all of them are written together.
"""

from __future__ import annotations

import sys
import time

import run
import workloads


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("price-heavy", "price-light", "fleet-sweep"):
        for seed in workloads.WORKLOAD_SEEDS:
            path = workloads.reference_path(name, seed)
            if path.parent != workloads.REFERENCE_DIR:
                continue
            began = time.monotonic()
            report, error = run.run_worker(
                name, seed, time.monotonic() + 600.0, mode="reference"
            )
            if report is None:
                print(f"{name} seed {seed}: {error}", file=sys.stderr)
                return 1
            path.write_text(report["output"], encoding="utf-8")
            print(f"wrote {path.name} in {time.monotonic() - began:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
