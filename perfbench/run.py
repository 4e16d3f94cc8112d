"""ARQL-Bench: one command per workload, every answer checked.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that measures every per-layer metric.  Human-readable
lines start with ``#``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import os
import sys
import warnings

WORKLOADS = ("serve-hot", "adhoc-cold", "analytic")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Fault injection must never reach a measured run.
    os.environ.pop("REPRO_FAILPOINTS", None)
    warnings.simplefilter("ignore")  # backend-fallback notices, counted separately

    import common

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    if args.workload == "serve-hot":
        import serve_hot as workload
    elif args.workload == "adhoc-cold":
        import adhoc_cold as workload
    else:
        import analytic as workload
    correct, attempted, failed, metrics, details = workload.run(
        args.seed, args.seconds, bool(args.trace)
    )
    common.emit(correct, attempted, failed, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
