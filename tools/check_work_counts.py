#!/usr/bin/env python3
"""Gate CI on the exact work counts of the benchmark's traced runs.

A traced perfbench run (``perfbench/run.py --trace 1``) reports, next to
its timings, how much work the library did: contention evaluations,
calibration epochs and stress points, solo profiles, price quotes, vector
completions, billing records and advance passes per epoch.  Those counts
are a pure function of the code and the workload, so unlike wall-clock
seconds they do not drift with the host: any difference from the
committed ``tools/work_counts.json`` means the code now does different
work.  A change that means to alter a count refreshes that file in the
same commit and says why.

Usage, from the repository root::

    python3 perfbench/run.py --workload price-light --seconds 0 --trace 1 \\
        | python3 tools/check_work_counts.py --workload price-light

``--result FILE`` reads the run's output from a file instead of standard
input; the last line that is a JSON object with ``metrics`` is the
result.  ``--counts FILE`` names another expectations file.

Exit codes: 0 every count matches, 1 a count differs or is missing,
2 usage error (unknown workload, unreadable input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

COUNTS = Path(__file__).resolve().parent / "work_counts.json"


def read_metrics(text: str) -> Optional[Dict[str, Any]]:
    """The ``metrics`` values of the last perfbench result line in ``text``,
    or ``None`` without one."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if isinstance(document, dict) and isinstance(document.get("metrics"), dict):
            return {
                name: entry.get("value") if isinstance(entry, dict) else entry
                for name, entry in document["metrics"].items()
            }
    return None


def compare(expected: Dict[str, Any], metrics: Dict[str, Any]) -> List[str]:
    """One line per expected count the run did not reproduce exactly."""
    problems = []
    for name, value in sorted(expected.items()):
        if name not in metrics:
            problems.append(f"{name}: missing from the run (expected {value!r})")
        elif metrics[name] != value:
            problems.append(f"{name}: {metrics[name]!r}, expected {value!r}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--result", type=Path, help="perfbench output (default: stdin)")
    parser.add_argument("--counts", type=Path, default=COUNTS)
    args = parser.parse_args(argv)
    try:
        counts = json.loads(args.counts.read_text(encoding="utf-8"))
        text = sys.stdin.read() if args.result is None else args.result.read_text(encoding="utf-8")
    except (OSError, ValueError) as error:
        print(f"cannot read the counts or the result: {error}", file=sys.stderr)
        return 2
    expected = counts.get(args.workload)
    if expected is None:
        print(f"no work counts for workload {args.workload!r} in {args.counts}", file=sys.stderr)
        return 2
    metrics = read_metrics(text)
    if metrics is None:
        print("no perfbench result line (a JSON object with 'metrics') in the input", file=sys.stderr)
        return 2
    problems = compare(expected, metrics)
    if problems:
        print(f"work counts of {args.workload} differ from {args.counts.name}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"work counts of {args.workload}: all {len(expected)} match {args.counts.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
