"""One benchmark process: set-up, the timed closed loop, the checks.

Run by ``run.py`` from the root of a checkout; prints one JSON object.
With ``--setup-only`` it stops after set-up and reports only its time.

The loop is closed: one client issues the next op only after the previous
one returned.  Only op execution is on the clock; generating a block,
checking an answer and counting work happen between ops, off the clock.
Every time reported is scaled to the reference speed of ``speed.py``,
re-measured between ops once ``speed.INTERVAL_S`` seconds have passed.
"""
from __future__ import annotations

from time import perf_counter

import speed

SPEED_BEFORE_SETUP = speed.measure()
START = perf_counter()

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import hohfeld  # noqa: E402  (timed as part of set-up)
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
# A traced run covers a fixed set of blocks, so its counts repeat exactly.
# Each block runs twice, traced and untraced, fresh from the generator each
# time and alternating which goes first, so both passes see the same inputs
# and the same machine, and their difference is the tracing overhead.  The
# set starts far from block 0 so it shares no input with a timed run; its
# size makes each pass take about ten seconds at the time of writing.
TRACE_FIRST_BLOCK = 1_000_000
TRACE_BLOCKS = {"static-check": 50, "dynamic-update": 30, "audit-sweep": 3}


class Phase:
    """Op latencies, failures and work counts of one pass over some blocks."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []    # scaled to the reference speed
        self.clock = 0.0                    # scaled
        self.wall_clock = 0.0               # as measured
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.first_block_counts: Counter | None = None
        self.blocks = 0

    def run_block(self, ops: list, index: int, detail: bool, host: "Speed") -> None:
        """Run one block's ops, each op's time scaled to the reference speed
        by ``host``.  ``detail`` asks for the counts that cost more than the
        op to take."""
        counts: Counter = Counter()
        for op in ops:
            op_id = len(self.latencies)
            scale = host.current()
            self.tracer.begin_op(op_id, scale)
            start = perf_counter()
            try:
                result = op.run(self.tracer)
                error = None
            except Exception as err:        # a failing op is counted, never dropped
                result, error = None, err
            elapsed = perf_counter() - start
            self.tracer.end_op()
            self.latencies.append(elapsed * scale)
            self.clock += elapsed * scale
            self.wall_clock += elapsed
            try:
                ok = error is None and op.check(result)
                if ok:
                    op.account(result, counts, detail)
            except Exception as err:
                ok, error = False, err
            if not ok:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"block {index} op {op_id} ({op.kind}): "
                                         + (repr(error) if error else "wrong answer"))
        self.counts.update(counts)
        if self.first_block_counts is None:
            self.first_block_counts = counts
        self.blocks += 1


class Speed:
    """The current scale factor to the reference speed, re-measured before
    an op once ``speed.INTERVAL_S`` of wall time has passed since the last
    measurement."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.at = float("-inf")
        self.scale = 1.0

    def current(self) -> float:
        if perf_counter() - self.at >= speed.INTERVAL_S:
            self.kernel_s.append(speed.measure())
            self.scale = speed.REFERENCE_S / self.kernel_s[-1]
            self.at = perf_counter()
        return self.scale


def quantile_ms(values: list[float], q: int) -> float:
    """The q-th decile (q = 5 is the median), in milliseconds."""
    return statistics.quantiles(values, n=10)[q - 1] * 1000.0


def per_layer(tracer, counts: Counter, traced_rate: float,
              untraced_rate: float) -> tuple[dict, dict]:
    """The per-layer metrics over the traced blocks, and self time per span name.

    ``busy_s`` is the summed duration of a layer's spans; rates divide the
    work counted at the same boundary by it."""
    busy, own = tracer.busy_and_self()
    ratio = lambda a, b: a / b if b else 0.0
    b = lambda layer: busy.get(layer, 0.0)
    return {
        "modelio.busy_s": b("modelio"),
        "modelio.states_per_s": ratio(counts["modelio.states"], b("modelio")),
        "parser.busy_s": b("parser"),
        "parser.chars_per_s": ratio(counts["parser.chars"], b("parser")),
        "semantics.eval_static.calls": counts["semantics.eval_static.calls"],
        "semantics.eval_static.busy_s": b("semantics.eval_static"),
        "semantics.eval_static.node_states": counts["semantics.eval_static.node_states"],
        "semantics.eval_dynamic.busy_s": b("semantics.eval_dynamic"),
        "semantics.eval_translated.busy_s": b("semantics.eval_translated"),
        "semantics.product.busy_s": b("semantics.product"),
        "semantics.product.pair_states": counts["semantics.product.pair_states"],
        "semantics.product.exec_ratio": ratio(counts["semantics.product.pair_states"],
                                              counts["semantics.product.candidates"]),
        "positions.busy_s": b("positions"),
        "positions.calls": counts["positions.calls"],
        "reduction.translate.busy_s": b("reduction.translate"),
        "reduction.translate.out_nodes": counts["translate_nodes"],
        "reduction.translate.out_distinct": counts["reduction.translate.out_distinct"],
        "reduction.translate.out_objects": counts["reduction.translate.out_objects"],
        "reduction.translate.blowup": ratio(counts["translate_nodes"],
                                            counts["reduction.translate.in_nodes"]),
        "formula.render.busy_s": b("formula.render"),
        "formula.render.chars": counts["formula.render.chars"],
        "isomorphism.busy_s": b("isomorphism"),
        "isomorphism.calls": counts["isomorphism.calls"],
        "isomorphism.accept_ratio": ratio(counts["isomorphism.accepted"],
                                          counts["isomorphism.calls"]),
        "scenarios.busy_s": b("scenarios"),
        "reduction.audit.busy_s": b("reduction.audit"),
        "reduction.audit.samples": counts["reduction.audit.samples"],
        "reduction.audit.counterexamples": counts["reduction.audit.counterexamples"],
        "bench.self_s": own.get("op", 0.0),
        "trace.overhead_frac": 1.0 - ratio(traced_rate, untraced_rate),
    }, {name: own[name] for name in sorted(own)}


def main() -> None:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--setup-only", action="store_true")
    args = cli.parse_args()

    make_block, gates = workloads.WORKLOADS[args.workload]
    first_block = TRACE_FIRST_BLOCK if args.trace else 0
    first_ops = make_block(args.seed, first_block)
    setup_wall_s = perf_counter() - START
    setup_kernel_s = (SPEED_BEFORE_SETUP + speed.measure()) / 2
    setup_s = setup_wall_s * speed.REFERENCE_S / setup_kernel_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    host = Speed()
    traced = None
    if args.trace:
        traced, plain = Phase(spans.Tracer()), Phase(spans.NullTracer())
        for k in range(TRACE_BLOCKS[args.workload]):
            order = (traced, plain) if k % 2 == 0 else (plain, traced)
            for phase in order:
                fresh = first_ops if k == 0 and phase is traced else None
                ops = fresh or make_block(args.seed, first_block + k)
                phase.run_block(ops, first_block + k, detail=True, host=host)
    else:
        # Whole blocks only, so that every run has exactly the block's mix
        # of op kinds: a cut block would over-weight the kinds at its start.
        plain = Phase(spans.NullTracer())
        index, ops = first_block, first_ops
        while True:
            plain.run_block(ops, index, detail=index == first_block, host=host)
            if plain.wall_clock >= args.seconds and len(plain.latencies) >= MIN_OPS:
                break
            index += 1
            ops = make_block(args.seed, index)
    phases = [p for p in (traced, plain) if p is not None]
    gate_problems = [problem for p in phases for problem in (gates(p.counts) if gates else [])]
    latencies = plain.latencies
    ops_per_s = len(latencies) / plain.clock
    out = {
        "hohfeld": hohfeld.__file__,
        "params": workloads.PARAMS[args.workload],
        "setup_s": setup_s,
        "ops": len(latencies),
        "blocks": plain.blocks,
        "ops_per_s": ops_per_s,
        "op_p50_ms": quantile_ms(latencies, 5),
        "op_p90_ms": quantile_ms(latencies, 9),
        "wall_s": plain.wall_clock,
        "kernel_ms": [1000.0 * k for k in host.kernel_s],
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases) + len(gate_problems),
        "problems": [problem for p in phases for problem in p.problems] + gate_problems,
        "translate_nodes": plain.first_block_counts["translate_nodes"],
        "samples_per_s": plain.counts["reduction.audit.samples"] / plain.clock,
    }
    if traced is not None:
        traced_rate = len(traced.latencies) / traced.clock
        layers, own = per_layer(traced.tracer, traced.counts, traced_rate, ops_per_s)
        path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced.tracer.write(path)
        out.update({"per_layer": layers, "self_s": own,
                    "trace_file": str(path.relative_to(ROOT))})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
