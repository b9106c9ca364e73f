"""Time the lexicographic product and dynamic labelling as models grow.

    PYTHONPATH=src python scripts/product_sweep.py [--seed N] [--states 8 16 ...] [--repeat 5]

For each state count, one seeded random model (agents i and c, atoms p, q,
r; each ideality relation the closure of one random edge per state, each
partition random) is updated with one three-action model (a1 below a2,
a2 and a3 equivalent for i toward c, all equivalent otherwise).  A row
gives the pair states of the product and, best of ``--repeat`` runs on a
fresh copy of the model each time, in milliseconds:

- ``unread``: ``product`` alone, its relations not read;
- ``read``: ``product`` and then every one of its relations read;
- ``dynamic``: ``truth_set`` of a formula with a box over each action, in a
  fresh ``ActionModelEnv``, so the product is built inside it.
"""
from __future__ import annotations

import argparse
import dataclasses
import random
import time

from hohfeld import ActionModelEnv, parse, product, truth_set
from hohfeld.actions import make_action_model
from hohfeld.model import blocks_to_relation, closure, make_model

AGENTS = ("i", "c")
FORMULA = "[act A a1] O i c (p / q) & [act A a2] [pref c i] (p | r) & [act A a3] do i q"


def sweep_model(states: int, rng: random.Random):
    names = [f"w{k}" for k in range(states)]
    pref = {}
    for i in AGENTS:
        for j in AGENTS:
            pref[(i, j)] = closure([(w, rng.choice(names)) for w in names], names)
    eq = {}
    for agent in AGENTS:
        blocks: dict[int, list[str]] = {}
        for w in names:
            blocks.setdefault(rng.randrange(max(1, states // 4)), []).append(w)
        eq[agent] = blocks_to_relation(blocks.values())
    val = {atom: [w for w in names if rng.random() < 0.5] for atom in ("p", "q", "r")}
    return make_model(names, AGENTS, pref, eq, val)


def sweep_action_model():
    actions = ["a1", "a2", "a3"]
    return make_action_model(
        name="A", owner="i", actions=actions,
        rel={("i", "c"): closure([("a1", "a2"), ("a2", "a3"), ("a3", "a2")], actions)},
        pre={"a1": parse("true"), "a2": parse("p | q"), "a3": parse("!r")},
        post={"a1": {"p": parse("true")}, "a2": {"q": parse("r")}},
    )


def best_ms(run, model, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        fresh = dataclasses.replace(model)  # no compiled form yet
        start = time.perf_counter()
        run(fresh)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def read_all(model, act) -> None:
    updated = product(model, act).model
    for rel in (*updated.pref.values(), *updated.eq.values()):
        len(rel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--states", type=int, nargs="+", default=[8, 16, 32, 64, 128])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    act = sweep_action_model()
    formula = parse(FORMULA)
    print(f"seed {args.seed}, best of {args.repeat}, times in ms")
    print(f"{'states':>6} {'pairs':>6} {'unread':>9} {'read':>9} {'dynamic':>9}")
    for states in args.states:
        model = sweep_model(states, random.Random(f"{args.seed}:{states}"))
        pairs = len(product(model, act).model.states)
        unread = best_ms(lambda m: product(m, act), model, args.repeat)
        read = best_ms(lambda m: read_all(m, act), model, args.repeat)
        dynamic = best_ms(lambda m: truth_set(m, formula, ActionModelEnv([act])), model, args.repeat)
        print(f"{states:>6} {pairs:>6} {unread:>9.2f} {read:>9.2f} {dynamic:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
