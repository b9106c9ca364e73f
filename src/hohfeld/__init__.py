"""Model checking for a dynamic logic of normative positions.

Evaluate obligation and agency formulas on finite preference models,
update them lexicographically with ranked action models, decide power and
immunity positions, rewrite dynamic operators into static formulas, and
audit axiom schemas against seeded random countermodel searches.
"""
from .actions import ActionModelEnv, DeonticActionModel, make_action_model, validate_action_model
from .errors import (
    ConfigError,
    EmptyProductError,
    FormulaSyntaxError,
    HohfeldError,
    ModelFormatError,
    NameResolutionError,
    SizeLimitError,
)
from .formula import (
    BOT,
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
    act_dia,
    atom_names,
    agent_names,
    claim,
    conj,
    disj,
    exist,
    is_static,
    obligation,
    perm,
    pref_dia,
    privilege,
    size,
    subformulas,
    unfold_cond_obl,
    unfold_head,
)
from .generators import (
    GeneratorConfig,
    random_action_model,
    random_dynamic_formula,
    random_model,
    random_static_formula,
)
from .isomorphism import IsoWitness, isomorphic, verify_isomorphism
from .model import (
    PrefActionModel,
    ValidationReport,
    Violation,
    blocks_to_relation,
    closure,
    make_model,
    relation_to_blocks,
    validate,
)
from .modelio import (
    action_model_from_dict,
    action_model_to_dict,
    dumps_action_model,
    dumps_model,
    load_action_model_file,
    load_model_file,
    model_from_dict,
    model_to_dict,
)
from .parser import parse
from .positions import (
    PositionVerdict,
    global_immunity,
    global_power,
    liability,
    local_immunity,
    local_power,
    no_power,
    permissible,
    verdict,
)
from .reduction import (
    AXIOMS,
    PAPER_ERRATA,
    PAPER_FORM,
    SOUND_FORM,
    CounterexampleReport,
    audit_axiom,
    check_equivalence,
    reduce_step,
    translate,
)
from .scenarios import (
    BUNDLES,
    ScenarioBundle,
    ScenarioReport,
    contract_bundle,
    parking_bundle,
    run_scenario,
)
from .semantics import (
    UpdatedModel,
    evaluate,
    executable,
    pair_name,
    product,
    truth_set,
)

__version__ = "0.1.0"
