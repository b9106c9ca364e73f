#!/usr/bin/env python3
"""The hohfeld benchmark: one seeded workload, timed end to end, answers checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static-check --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for their generator parameters):

    static-check    seeded 8/12/16-state models loaded from JSON, then queried
                    with obligation-nested and modal formulas; some iso calls
    dynamic-update  product, dynamic truth sets, local power, sound translation
                    and its evaluation on small models; the [act John a1]^k U f
                    family; both scenario bundles
    audit-sweep     every axiom audit in both variants at seeds derived from
                    the workload seed

It starts ``SETUP_PROBES`` fresh interpreters that only set up, reporting the
median as ``setup_s``, then one worker process that sets up again and runs
the closed loop (one client, no threads) in whole blocks of ops until
``--seconds`` of op time have passed.
With ``--trace 1`` the worker instead runs each block of a fixed set
twice, once with a span around every call into a layer and once untraced,
alternating which goes first; the per-layer figures come from the spans
(written to ``.perfbench_out/``), and ``trace.overhead_frac`` is one minus
the traced over the untraced ops/s.

Every time it reports, set-up included, is scaled to the reference speed of
``speed.py``, which is re-measured between ops, so that the drifting speed
of a shared host does not show as a change of the program; the wall-clock
figures are printed beside them.

Every answer is checked against the reference semantics in
``reference.py`` or a known answer.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics.
Without ``src/hohfeld`` in the current directory it exits with status 2
and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import speed

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
DEADLINE_S = 170


def worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker failed with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    cli = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    cli.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=int, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args()
    if not (Path.cwd() / "src" / "hohfeld" / "__init__.py").is_file():
        print("run.py: no src/hohfeld in the current directory; run it from a checkout",
              file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deadline = monotonic() + DEADLINE_S

    probes = [worker(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    setups = [probe["setup_s"] for probe in probes]
    run = worker(args, [], deadline)
    run["setup_s"] = statistics.median(setups)
    kernel_ms = run["kernel_ms"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"package {run['hohfeld']}")
    print(f"generator parameters {json.dumps(run['params'])}")
    print("closed loop, 1 client; untraced op time "
          f"{run['wall_s']:.3f} s wall clock over {run['ops']} ops in {run['blocks']} blocks, "
          f"{run['ops'] / run['wall_s']:.6g} ops/s wall clock")
    print(f"times are scaled to the reference speed ({1000 * speed.REFERENCE_S:g} ms per "
          f"speed kernel call); the kernel took {min(kernel_ms):.3f} to {max(kernel_ms):.3f}, "
          f"median {statistics.median(kernel_ms):.3f} ms over {len(kernel_ms)} measurements")
    print(f"setup_s is the median of {SETUP_PROBES} fresh interpreters: "
          + ", ".join(f"{s:.4f}" for s in setups) + " (wall clock "
          + ", ".join(f"{probe['setup_wall_s']:.4f}" for probe in probes) + ")")
    fail_frac = run["failed"] / run["attempted"]
    for name, unit in end_to_end.items():
        print(f"  {name:<34} {run[name]:>14.6g} {unit}")
    print(f"  {'op latency samples':<34} {run['ops']:>14d} ops")
    print(f"  {'fail_frac':<34} {fail_frac:>14.6g} ratio "
          f"({run['failed']} of {run['attempted']})")
    if args.workload == "audit-sweep":
        print(f"  {'samples_per_s':<34} {run['samples_per_s']:>14.6g} 1/s")
    if args.workload == "dynamic-update":
        print(f"  {'translate_nodes (block 0)':<34} {run['translate_nodes']:>14d} count")
    for problem in run["problems"]:
        print(f"  problem: {problem}")

    metrics = {name: {"value": run[name], "unit": unit}
               for name, unit in end_to_end.items()}
    if args.trace:
        print(f"each of {run['blocks']} fixed blocks ran traced and untraced; "
              f"spans in {run['trace_file']}")
        for name, unit in per_layer.items():
            print(f"  {name:<34} {run['per_layer'][name]:>14.6g} {unit}")
        for name, seconds in run["self_s"].items():
            print(f"  {'self_s ' + name:<34} {seconds:>14.6g} s")
        metrics = {name: {"value": run["per_layer"][name], "unit": unit}
                   for name, unit in per_layer.items()}
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
