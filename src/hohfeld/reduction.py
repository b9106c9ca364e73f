"""Reduction of dynamic boxes to static formulas, plus randomized audits.

``reduce_step`` applies one rewrite to a box over a static scope, leaving
residual boxes over strictly smaller scopes; ``translate`` drives it to a
fixpoint, innermost boxes first, producing a static formula.

Two rule variants exist for the universal and the agency modality.  The
"paper" variant keeps the box's own action on the right-hand side:

    [A,a] U phi   ->   pre(a) -> U [A,a] phi

which is unsound, because states of the updated model built from other
actions escape the quantifier.  The "sound" variant closes over every
action:

    [A,a] U phi   ->   pre(a) -> U (AND_c [A,c] phi)

The ideality-box rule is the same in both variants: actions strictly above
``a`` contribute universal conjuncts, actions equivalent to ``a`` keep the
old box.  ``audit_axiom`` hunts for countermodels to named axiom schemas
over seeded random instances; sound schemas should survive, the paper
variants of the universal/agency rules should not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .actions import ActionModelEnv, DeonticActionModel
from .errors import NameResolutionError
from .formula import (
    TOP,
    ActBox,
    And,
    Atom,
    Bot,
    CondObl,
    Does,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    PrefBox,
    Top,
    Univ,
    agent_names,
    atom_names,
    children,
    conj,
    pref_dia,
    rebuild,
    rewrite,
    unfold_head,
)
from .generators import (
    AGENT_POOL,
    ATOM_POOL,
    GeneratorConfig,
    random_action_model,
    random_dynamic_formula,
    random_model,
    random_static_formula,
)
from .model import PrefActionModel
from .modelio import action_model_to_dict, model_to_dict
from .semantics import evaluate, truth_set

SOUND_FORM = "sound"
PAPER_FORM = "paper"
VARIANTS = (SOUND_FORM, PAPER_FORM)


def reduce_step(act: DeonticActionModel, action: str, scope: Formula,
                variant: str = SOUND_FORM) -> Formula:
    """One rewrite of ``[act, action] scope`` for a static scope."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    pre = act.pre[action]
    name = act.name
    if isinstance(scope, Atom):
        post = act.post_formula(action, scope.name)
        return Imp(pre, post if post is not None else scope)
    if isinstance(scope, Top):
        return TOP
    if isinstance(scope, And):
        return And(ActBox(name, action, scope.left), ActBox(name, action, scope.right))
    if isinstance(scope, (Bot, Not, Or, Imp, Iff)):
        boxed = [ActBox(name, action, child) for child in children(scope)]
        return Imp(pre, rebuild(scope, boxed))
    if isinstance(scope, (Univ, Does)):
        actions = [action] if variant == PAPER_FORM else sorted(act.actions)
        boxes = conj([ActBox(name, c, scope.arg) for c in actions])
        return Imp(pre, rebuild(scope, [boxes]))
    if isinstance(scope, PrefBox):
        i, j = scope.i, scope.j
        above = [c for c in sorted(act.actions) if act.le(i, j, action, c)]
        stricts = [c for c in above if not act.le(i, j, c, action)]
        parts = [Univ(ActBox(name, c, scope.arg)) for c in stricts]
        parts += [PrefBox(i, j, ActBox(name, c, scope.arg)) for c in above if c not in stricts]
        return Imp(pre, conj(parts))
    if isinstance(scope, CondObl):
        return reduce_step(act, action, unfold_head(scope), variant)
    if isinstance(scope, ActBox):
        raise ValueError("reduce_step requires a static scope")
    raise TypeError(f"not a formula node: {scope!r}")


def translate(f: Formula, env: ActionModelEnv, variant: str = SOUND_FORM) -> Formula:
    """Rewrite every dynamic box away; the result is static.

    With the sound variant the output is evaluation-equivalent to the input
    on every model; the paper variant reproduces the printed rule table,
    mismatches included.

    Boxes go innermost first.  A box over a translated scope is stepped on
    the way down: each residual box over a child of the scope is stepped in
    turn, so the scope is not walked again.  Pre- and postconditions are
    static, so those residual boxes are the only boxes met there.
    """
    def push(g: Formula) -> Formula:
        if isinstance(g, ActBox):
            return reduce_step(env.get(g.model), g.action, g.arg, variant)
        return g

    def step(g: Formula) -> Formula:
        if isinstance(g, ActBox):
            return rewrite(g, lambda h: h, push)
        return g

    return rewrite(f, step)


@dataclass
class CounterexampleReport:
    """A model/state where two supposedly equivalent formulas disagree."""

    axiom: str
    variant: str | None
    lhs: Formula
    rhs: Formula
    model: PrefActionModel
    state: str
    lhs_value: bool
    rhs_value: bool
    action_model: DeonticActionModel | None = None
    sample_index: int = 0

    def verify(self, env: ActionModelEnv | None = None) -> bool:
        """Re-evaluate both sides; True when the disagreement reproduces.

        Pass the environment the formulas were checked against when they
        mention action models beyond the single stored one.
        """
        if env is None and self.action_model is not None:
            env = ActionModelEnv([self.action_model])
        lhs = evaluate(self.model, self.state, self.lhs, env)
        rhs = evaluate(self.model, self.state, self.rhs, env)
        return lhs == self.lhs_value and rhs == self.rhs_value and lhs != rhs

    def to_json_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "variant": self.variant,
            "sampleIndex": self.sample_index,
            "state": self.state,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "lhsValue": self.lhs_value,
            "rhsValue": self.rhs_value,
            "model": model_to_dict(self.model),
        }
        if self.action_model is not None:
            out["actionModel"] = action_model_to_dict(self.action_model)
        return out


def _disagreement(model: PrefActionModel, lhs: Formula, rhs: Formula,
                  env: ActionModelEnv | None, **fields) -> CounterexampleReport | None:
    """The least state where the two sides differ, reported and re-verified."""
    left, right = truth_set(model, lhs, env), truth_set(model, rhs, env)
    if left == right:
        return None
    w = min(left ^ right)
    report = CounterexampleReport(lhs=lhs, rhs=rhs, model=model, state=w,
                                  lhs_value=w in left, rhs_value=w in right, **fields)
    if not report.verify(env):
        raise AssertionError("counterexample failed to reproduce")
    return report


def check_equivalence(f: Formula, env: ActionModelEnv, variant: str = SOUND_FORM,
                      cfg: GeneratorConfig = GeneratorConfig()) -> CounterexampleReport | None:
    """Search random models for a state where ``f`` and its translation differ."""
    translated = translate(f, env, variant)
    atoms, agents = _required_vocabulary(f, env)
    single = env.get(env.names()[0]) if len(env.names()) == 1 else None
    rng = random.Random(cfg.seed)
    for index in range(cfg.sample_count):
        model = random_model(cfg, rng, atoms=atoms, agents=agents)
        report = _disagreement(model, f, translated, _fresh_env(env), axiom="translation",
                               variant=variant, action_model=single, sample_index=index)
        if report is not None:
            return report
    return None


def _fresh_env(env: ActionModelEnv) -> ActionModelEnv:
    return ActionModelEnv([env.get(name) for name in env.names()])


def _required_vocabulary(f: Formula, env: ActionModelEnv) -> tuple[tuple[str, ...], tuple[str, ...]]:
    atoms = set(atom_names(f))
    agents = set(agent_names(f))
    for name in env.names():
        act = env.get(name)
        for pre in act.pre.values():
            atoms |= atom_names(pre)
            agents |= agent_names(pre)
        for assign in act.post.values():
            for atom, g in assign.items():
                atoms.add(atom)
                atoms |= atom_names(g)
                agents |= agent_names(g)
        for (i, j) in act.rel:
            agents.add(i)
            agents.add(j)
    for fallback in ATOM_POOL:
        if atoms:
            break
        atoms.add(fallback)
    for fallback in AGENT_POOL:
        if agents:
            break
        agents.add(fallback)
    return tuple(sorted(atoms)), tuple(sorted(agents))


# ---------------------------------------------------------------------------
# Axiom audits.


@dataclass(frozen=True)
class _AxiomSchema:
    name: str
    needs_action_model: bool
    variant_sensitive: bool
    # build(rng, model, act, variant) -> (lhs, rhs)
    build: Callable


def _pick_agents(rng: random.Random, model: PrefActionModel) -> tuple[str, str]:
    agents = sorted(model.agents)
    return rng.choice(agents), rng.choice(agents)


def _static(rng: random.Random, model: PrefActionModel, depth: int = 3) -> Formula:
    atoms = tuple(sorted(model.val))
    agents = tuple(sorted(model.agents))
    return random_static_formula(rng, atoms, agents, depth)


def _reduction_schema(head_builder: Callable) -> Callable:
    def build(rng, model, act, variant):
        action = rng.choice(sorted(act.actions))
        head = head_builder(rng, model, act)
        lhs = ActBox(act.name, action, head)
        rhs = reduce_step(act, action, head, variant)
        return lhs, rhs
    return build


def _valid_schema(instance_builder: Callable) -> Callable:
    def build(rng, model, act, variant):
        return instance_builder(rng, model), TOP
    return build


def _s4_pref(rng, model):
    i, j = _pick_agents(rng, model)
    phi, psi = _static(rng, model), _static(rng, model)
    k_axiom = Imp(PrefBox(i, j, Imp(phi, psi)), Imp(PrefBox(i, j, phi), PrefBox(i, j, psi)))
    t_axiom = Imp(PrefBox(i, j, phi), phi)
    four = Imp(PrefBox(i, j, phi), PrefBox(i, j, PrefBox(i, j, phi)))
    return And(And(k_axiom, t_axiom), four)


def _s5_univ(rng, model):
    phi, psi = _static(rng, model), _static(rng, model)
    k_axiom = Imp(Univ(Imp(phi, psi)), Imp(Univ(phi), Univ(psi)))
    t_axiom = Imp(Univ(phi), phi)
    four = Imp(Univ(phi), Univ(Univ(phi)))
    five = Imp(Not(Univ(phi)), Univ(Not(Univ(phi))))
    return And(And(k_axiom, t_axiom), And(four, five))


def _s5_does(rng, model):
    agent = rng.choice(sorted(model.agents))
    phi, psi = _static(rng, model), _static(rng, model)
    k_axiom = Imp(Does(agent, Imp(phi, psi)), Imp(Does(agent, phi), Does(agent, psi)))
    t_axiom = Imp(Does(agent, phi), phi)
    four = Imp(Does(agent, phi), Does(agent, Does(agent, phi)))
    five = Imp(Not(Does(agent, phi)), Does(agent, Not(Does(agent, phi))))
    return And(And(k_axiom, t_axiom), And(four, five))


def _incl_univ_pref(rng, model):
    i, j = _pick_agents(rng, model)
    phi = _static(rng, model)
    return Imp(Univ(phi), PrefBox(i, j, phi))


def _incl_univ_does(rng, model):
    agent = rng.choice(sorted(model.agents))
    phi = _static(rng, model)
    return Imp(Univ(phi), Does(agent, phi))


def _qualified_d(rng, model):
    i, j = _pick_agents(rng, model)
    phi, psi = _static(rng, model), _static(rng, model)
    return Imp(
        pref_dia(i, j, phi),
        Imp(CondObl(i, j, psi, phi), Not(CondObl(i, j, Not(psi), phi))),
    )


def _normal_obl(rng, model):
    i, j = _pick_agents(rng, model)
    phi = _static(rng, model)
    psi, chi = _static(rng, model), _static(rng, model)
    return Iff(
        CondObl(i, j, And(psi, chi), phi),
        And(CondObl(i, j, psi, phi), CondObl(i, j, chi, phi)),
    )


AXIOMS: dict[str, _AxiomSchema] = {
    "atomRed": _AxiomSchema(
        "atomRed", True, False,
        _reduction_schema(lambda rng, model, act: Atom(rng.choice(sorted(model.val)))),
    ),
    "negRed": _AxiomSchema(
        "negRed", True, False,
        _reduction_schema(lambda rng, model, act: Not(_static(rng, model, 2))),
    ),
    "andRed": _AxiomSchema(
        "andRed", True, False,
        _reduction_schema(lambda rng, model, act: And(_static(rng, model, 2), _static(rng, model, 2))),
    ),
    "univRed": _AxiomSchema(
        "univRed", True, True,
        _reduction_schema(lambda rng, model, act: Univ(_static(rng, model, 2))),
    ),
    "doRed": _AxiomSchema(
        "doRed", True, True,
        _reduction_schema(
            lambda rng, model, act: Does(rng.choice(sorted(model.agents)), _static(rng, model, 2))
        ),
    ),
    "prefRed": _AxiomSchema(
        "prefRed", True, False,
        _reduction_schema(
            lambda rng, model, act: PrefBox(*_pick_agents(rng, model), _static(rng, model, 2))
        ),
    ),
    "S4pref": _AxiomSchema("S4pref", False, False, _valid_schema(_s4_pref)),
    "S5U": _AxiomSchema("S5U", False, False, _valid_schema(_s5_univ)),
    "S5Do": _AxiomSchema("S5Do", False, False, _valid_schema(_s5_does)),
    "inclUPref": _AxiomSchema("inclUPref", False, False, _valid_schema(_incl_univ_pref)),
    "inclUDo": _AxiomSchema("inclUDo", False, False, _valid_schema(_incl_univ_does)),
    "qualifiedD": _AxiomSchema("qualifiedD", False, False, _valid_schema(_qualified_d)),
    "normalO": _AxiomSchema("normalO", False, False, _valid_schema(_normal_obl)),
}


def audit_axiom(name: str, cfg: GeneratorConfig = GeneratorConfig(),
                variant: str = SOUND_FORM) -> CounterexampleReport | None:
    """Search seeded random instances for a countermodel to the named axiom.

    Returns the first verified counterexample, or None when the whole suite
    passes.  Axiom names: atomRed, negRed, andRed, univRed, prefRed, doRed,
    S4pref, S5U, S5Do, inclUPref, inclUDo, qualifiedD, normalO.
    """
    schema = AXIOMS.get(name)
    if schema is None:
        raise NameResolutionError(
            f"unknown axiom {name!r} (known: {', '.join(sorted(AXIOMS))})"
        )
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    rng = random.Random(cfg.seed)
    for index in range(cfg.sample_count):
        model = random_model(cfg, rng)
        act = random_action_model(cfg, model, rng) if schema.needs_action_model else None
        lhs, rhs = schema.build(rng, model, act, variant)
        env = ActionModelEnv([act]) if act is not None else None
        report = _disagreement(model, lhs, rhs, env, axiom=name, action_model=act,
                               variant=variant if schema.variant_sensitive else None,
                               sample_index=index)
        if report is not None:
            return report
    return None
