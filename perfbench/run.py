"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 4 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name the workload, print the unscaled throughput beside the
host-speed scale factor, and print the outcome fingerprint.  With
``--trace 0`` the metrics are the end-to-end ones, timed untraced; with
``--trace 1`` they are the per-layer ones of a traced run, whose spans
are also written to ``.perfbench/spans-<workload>-<seed>.csv``.

A failed correctness check prints the failure to standard error, a
result line with ``"correct": false`` and no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            spans = os.path.join(
                ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.csv"
            )
            measured, metrics, _ = workloads.per_layer(
                args.workload, args.seed, args.seconds, spans
            )
        else:
            measured = workloads.measure(args.workload, args.seed, args.seconds)
            metrics = workloads.end_to_end(spec, measured)
    except workloads.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(
        f"{args.workload} seed={args.seed}: {measured.rounds} round(s), "
        f"{measured.attempted} operations"
    )
    print(
        f"host: raw ops_per_s {measured.attempted / measured.wall_s:.4f} (unscaled), "
        f"scale factor {measured.host_scale:.4f}, CPU outside the benchmark thread "
        f"{100 * measured.other_cpu_share:.2f}%"
    )
    print("fingerprint: " + json.dumps(measured.fingerprint, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
