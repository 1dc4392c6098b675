#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace]

generates its inputs from the seed, runs each workload, checks the
outputs and prints every metric by name with its unit.  README.md in
this directory says why the workloads and the estimator are what they
are; BENCHMARK.json at the repo root declares the names.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found — the benchmark measures "
              "the repo's own code and must run inside a full checkout",
              file=sys.stderr)
        return 2
    for entry in (str(SRC), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from e2ebench.cli import main as cli_main
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
