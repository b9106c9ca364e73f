#!/usr/bin/env python3
"""Run every axiom audit in both reduction variants and print a table.

Each audit searches seeded random models (and action models, where the
schema needs one) for a state where the two sides of the axiom disagree.
The sound variant should survive the whole table; the paper variant of the
rules in ``PAPER_ERRATA`` (the universal and agency reductions) should each
produce a verified counterexample.  The ``expected`` column says which, read
from ``reduction.expected_counterexample`` as ``hohfeld audit`` reads it; the
script exits 1 when any row contradicts it, as ``hohfeld audit`` does for one
axiom.  Each row also gives the samples the audit tried (all of them, or up
to its counterexample) and how many it tried per second.

Run:  python3 scripts/audit_axioms.py [--samples N] [--seed N]
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from hohfeld.errors import HohfeldError
from hohfeld.generators import GeneratorConfig
from hohfeld.reduction import AXIOMS, VARIANTS, audit_axiom, expected_counterexample


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--samples", type=int, default=GeneratorConfig().sample_count)
    cli.add_argument("--seed", type=int, default=GeneratorConfig().seed)
    cli.add_argument("--show-counterexamples", action="store_true",
                     help="print full counterexample JSON, not just the summary")
    args = cli.parse_args()
    try:
        cfg = GeneratorConfig(seed=args.seed, sample_count=args.samples)
    except HohfeldError as err:
        cli.error(str(err))

    header = (f"{'axiom':<12} {'variant':<8} {'expected':<16} {'result':<16} "
              f"{'samples':>7} {'samples/s':>9} detail")
    print(header)
    print("-" * len(header))
    found = []
    contradicted = 0
    for name in sorted(AXIOMS):
        for variant in VARIANTS:
            start = time.perf_counter()
            report = audit_axiom(name, cfg, variant)
            elapsed = time.perf_counter() - start
            tried = cfg.sample_count if report is None else report.sample_index + 1
            expected = "counterexample" if expected_counterexample(name, variant) else "none"
            result = "none" if report is None else "counterexample"
            detail = "" if report is None else (
                f"sample {report.sample_index}, state {report.state}, "
                f"lhs={report.lhs_value} rhs={report.rhs_value}")
            if result != expected:
                contradicted += 1
                detail = f"UNEXPECTED {detail}".rstrip()
            print(f"{name:<12} {variant:<8} {expected:<16} {result:<16} "
                  f"{tried:>7} {tried / elapsed:>9.0f} {detail}".rstrip())
            if report is not None:
                found.append(report)

    if args.show_counterexamples:
        for report in found:
            print()
            print(json.dumps(report.to_json_dict(), indent=2))
    if contradicted:
        print(f"{contradicted} outcome(s) contradict the expected column", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
