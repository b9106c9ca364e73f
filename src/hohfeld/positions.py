"""Power and immunity verdicts over a normative position.

Global scope asks whether the agent owning the action model can execute
anything at all at the state: ability to change the normative system,
realized by any executable action.  Local scope fixes a target position T
and asks whether some executable action flips T's truth value there
(establishes T when it fails, cancels it when it holds).  Immunity is the
complement of the matching power; liability and no-power restate global
power and global immunity from the counterparty's side.
"""
from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionModelEnv, DeonticActionModel
from .formula import Atom, Formula
from .semantics import compiled_product, evaluate, executable, label, pair_name


@dataclass(frozen=True)
class PositionVerdict:
    kind: str                       # "power" | "immunity" | "liability" | "noPower"
    scope: str                      # "global" | "local"
    holds: bool
    witnesses: tuple[str, ...]      # realizing/flipping actions; for immunity
                                    # kinds the actions defeating the immunity
    current_truth: bool | None = None   # local scope only

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "scope": self.scope,
            "holds": self.holds,
            "witnesses": list(self.witnesses),
        }
        if self.scope == "local":
            out["currentTruth"] = self.current_truth
        return out


def _env_for(act: DeonticActionModel, env: ActionModelEnv | None) -> ActionModelEnv:
    return env if env is not None else ActionModelEnv([act])


def _executable_actions(model, state, act, env) -> list[str]:
    return [a for a in sorted(act.actions) if executable(model, state, act, a, env)]


def global_power(model, state, act: DeonticActionModel,
                 env: ActionModelEnv | None = None) -> PositionVerdict:
    """Some action is executable at the state."""
    env = _env_for(act, env)
    witnesses = tuple(_executable_actions(model, state, act, env))
    return PositionVerdict("power", "global", bool(witnesses), witnesses)


def global_immunity(model, state, act: DeonticActionModel,
                    env: ActionModelEnv | None = None) -> PositionVerdict:
    """No action is executable at the state."""
    env = _env_for(act, env)
    defeaters = tuple(_executable_actions(model, state, act, env))
    return PositionVerdict("immunity", "global", not defeaters, defeaters)


def liability(model, state, act: DeonticActionModel,
              env: ActionModelEnv | None = None) -> PositionVerdict:
    """The counterparty's exposure: same test as global power."""
    inner = global_power(model, state, act, env)
    return PositionVerdict("liability", "global", inner.holds, inner.witnesses)


def no_power(model, state, act: DeonticActionModel,
             env: ActionModelEnv | None = None) -> PositionVerdict:
    """The counterparty's disability: same test as global immunity."""
    inner = global_immunity(model, state, act, env)
    return PositionVerdict("noPower", "global", inner.holds, inner.witnesses)


def _flipping_actions(model, state, act, position: Formula, env) -> tuple[list[str], bool]:
    env = _env_for(act, env)
    current = evaluate(model, state, position, env)
    flips = _executable_actions(model, state, act, env)
    if flips:  # else the product may be empty
        after = env.product_of(model.compiled, act.name, compiled_product)
        holds = label(after, position, env)
        flips = [a for a in flips if bool(holds >> after.index[pair_name(state, a)] & 1) != current]
    return flips, current


def local_power(model, state, act: DeonticActionModel, position: Formula,
                env: ActionModelEnv | None = None) -> PositionVerdict:
    """Some executable action flips the truth value of the position."""
    flips, current = _flipping_actions(model, state, act, position, env)
    return PositionVerdict("power", "local", bool(flips), tuple(flips), current)


def local_immunity(model, state, act: DeonticActionModel, position: Formula,
                   env: ActionModelEnv | None = None) -> PositionVerdict:
    """No executable action can flip the truth value of the position."""
    flips, current = _flipping_actions(model, state, act, position, env)
    return PositionVerdict("immunity", "local", not flips, tuple(flips), current)


def permissible(model, state, act: DeonticActionModel, action: str,
                violation_atom: str = "V",
                env: ActionModelEnv | None = None) -> bool:
    """Executable and leading to a state clear of the designated violation atom."""
    env = _env_for(act, env)
    if not executable(model, state, act, action, env):
        return False
    after = env.product_of(model.compiled, act.name, compiled_product)
    return not label(after, Atom(violation_atom), env) >> after.index[pair_name(state, action)] & 1
