"""Outside-in benchmark of the CADRL stack: training and open-loop serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 40 --trace 0

Workloads: ``train-paper`` and ``serve-live`` (see ``workloads.py``).  The
first run in a checkout trains the paper-profile artifacts ``serve-live``
boots from (``artifacts.py``); no metric includes that build.

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (spans are written under
``.perfbench/spans/``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every request was
answered and every oracle passed, 1 on any failure, 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-paper", "serve-live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the open-loop serving window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import stats
    import workloads

    report = workloads.run(arguments.workload, ROOT, arguments.seed,
                           arguments.seconds, bool(arguments.trace))
    units = stats.PER_LAYER if arguments.trace else stats.END_TO_END
    print(f"{arguments.workload} seed={arguments.seed} "
          f"seconds={arguments.seconds} trace={arguments.trace}")
    for note in report.notes:
        print(f"  {note}")
    print(f"  failed {report.failed} of {report.attempted} attempted "
          f"({stats.failure_frac(report.failed, report.attempted):.4f})")
    print("\n".join(stats.format_table(report.values, units)))
    print(stats.result_line(correct=report.correct, attempted=report.attempted,
                            failed=report.failed, values=report.values,
                            trace=bool(arguments.trace)))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
