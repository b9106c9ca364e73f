"""Command-line interface.

Subcommands: check, eval, update, power, translate, audit, iso, scenario.
Exit codes: 0 when everything passed, 1 when a check failed or an audit
outcome contradicted the expectation for the axiom, 2 on input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .actions import ActionModelEnv
from .errors import HohfeldError
from .generators import GeneratorConfig
from .isomorphism import isomorphic
from .modelio import (
    dumps_model,
    load_action_model_file,
    load_model_file,
)
from .parser import parse
from .positions import verdict
from .reduction import (AXIOMS, PAPER_FORM, SOUND_FORM, audit_axiom, expected_counterexample,
                        translate)
from .scenarios import BUNDLES, run_scenario
from .semantics import evaluate, product, truth_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load_env(paths) -> ActionModelEnv:
    return ActionModelEnv([load_action_model_file(p) for p in paths or ()])


def _add_actions_flag(sub, required=False, multiple=True):
    if multiple:
        sub.add_argument("--actions", action="append", default=None,
                         metavar="FILE", required=required,
                         help="action-model JSON file (repeatable)")
    else:
        sub.add_argument("--actions", required=required, metavar="FILE",
                         help="action-model JSON file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hohfeld", description=__doc__)
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="truth of a formula at one state")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--state", required=True, metavar="ID")
    p.add_argument("--formula", required=True, metavar="STR")
    _add_actions_flag(p)

    p = subs.add_parser("eval", help="truth set of a formula")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--formula", required=True, metavar="STR")
    _add_actions_flag(p)

    p = subs.add_parser("update", help="write the product model to a file")
    p.add_argument("--model", required=True, metavar="FILE")
    _add_actions_flag(p, required=True, multiple=False)
    p.add_argument("--out", required=True, metavar="FILE")

    p = subs.add_parser("power", help="power/immunity verdict at a state")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--state", required=True, metavar="ID")
    _add_actions_flag(p, required=True, multiple=False)
    p.add_argument("--position", metavar="STR",
                   help="target position formula (needed by local scope only)")
    p.add_argument("--kind", required=True,
                   choices=["power", "immunity", "liability", "nopower"])
    p.add_argument("--scope", required=True, choices=["local", "global"])

    p = subs.add_parser("translate", help="rewrite dynamic boxes to a static formula")
    p.add_argument("--formula", required=True, metavar="STR")
    _add_actions_flag(p, required=True)
    p.add_argument("--variant", choices=[SOUND_FORM, PAPER_FORM], default=SOUND_FORM)

    p = subs.add_parser("audit", help="hunt for countermodels to an axiom schema")
    p.add_argument("--axiom", required=True, choices=sorted(AXIOMS))
    p.add_argument("--variant", choices=[SOUND_FORM, PAPER_FORM], default=SOUND_FORM)
    p.add_argument("--seed", type=int, default=GeneratorConfig().seed)
    p.add_argument("--samples", type=int, default=GeneratorConfig().sample_count)
    p.add_argument("--max-states", type=int, default=GeneratorConfig().max_states)
    p.add_argument("--max-actions", type=int, default=GeneratorConfig().max_actions)
    p.add_argument("--max-atoms", type=int, default=GeneratorConfig().max_atoms)
    p.add_argument("--max-agents", type=int, default=GeneratorConfig().max_agents)
    p.add_argument("--max-depth", type=int, default=GeneratorConfig().max_formula_depth)

    p = subs.add_parser("iso", help="isomorphism between two model files")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")

    p = subs.add_parser("scenario", help="run a bundled case study")
    p.add_argument("action", choices=["run"])
    p.add_argument("name", choices=sorted(BUNDLES))

    return top


def _cmd_check(args) -> int:
    model = load_model_file(args.model)
    env = _load_env(args.actions)
    value = evaluate(model, args.state, parse(args.formula), env)
    print("true" if value else "false")
    return EXIT_OK if value else EXIT_FAIL


def _cmd_eval(args) -> int:
    model = load_model_file(args.model)
    env = _load_env(args.actions)
    states = truth_set(model, parse(args.formula), env)
    print(json.dumps(sorted(states)))
    return EXIT_OK


def _cmd_update(args) -> int:
    model = load_model_file(args.model)
    act = load_action_model_file(args.actions)
    updated = product(model, act)
    Path(args.out).write_text(dumps_model(updated.model))
    print(f"wrote {len(updated.model.states)} states to {args.out}")
    return EXIT_OK


def _cmd_power(args) -> int:
    model = load_model_file(args.model)
    act = load_action_model_file(args.actions)
    position = None if args.position is None else parse(args.position)
    result = verdict(args.kind, args.scope, model, args.state, act, position)
    print(json.dumps(result.to_json_dict(), indent=2))
    return EXIT_OK


def _cmd_translate(args) -> int:
    env = _load_env(args.actions)
    print(str(translate(parse(args.formula), env, args.variant)))
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        max_states=args.max_states,
        max_actions=args.max_actions,
        max_atoms=args.max_atoms,
        max_agents=args.max_agents,
        max_formula_depth=args.max_depth,
        sample_count=args.samples,
    )
    report = audit_axiom(args.axiom, cfg, args.variant)
    print("none" if report is None else json.dumps(report.to_json_dict(), indent=2))
    found = report is not None
    return EXIT_OK if found == expected_counterexample(args.axiom, args.variant) else EXIT_FAIL


def _cmd_iso(args) -> int:
    left = load_model_file(args.a)
    right = load_model_file(args.b)
    witness = isomorphic(left, right)
    if witness is None:
        print("none")
        return EXIT_FAIL
    print(json.dumps(witness.as_dict(), indent=2))
    return EXIT_OK


def _cmd_scenario(args) -> int:
    report = run_scenario(BUNDLES[args.name]())
    for result in report.results:
        mark = "PASS" if result.passed else "FAIL"
        print(f"{mark} {result.name} (expected {result.expected}, got {result.actual})")
    print(f"{report.scenario}: {sum(r.passed for r in report.results)}"
          f"/{len(report.results)} checks passed")
    return EXIT_OK if report.passed else EXIT_FAIL


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "update": _cmd_update,
    "power": _cmd_power,
    "translate": _cmd_translate,
    "audit": _cmd_audit,
    "iso": _cmd_iso,
    "scenario": _cmd_scenario,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HohfeldError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
