"""Entry point of the benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload tile_browse --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced run; ``--trace 1`` reports the per-layer metrics from a run whose
second half is traced.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it are a readable report, also written with the environment block
to ``perfbench/results/<workload>-trace<0|1>.json``.

The thread environment is pinned here, before anything imports NumPy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One BLAS/OpenMP thread and one repro worker: the machine has two cores
#: and the benchmark's client and server threads already share them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "REPRO_WORKERS": "1",
}

WORKLOAD_NAMES = ("tile_browse", "ingest_retile", "analyst_session",
                  "stream_slide")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import runner  # imports NumPy, so only after pinning

    return runner.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
