"""End-to-end command-line behavior, including exit codes."""
from __future__ import annotations

import json

import pytest

import hohfeld.cli as cli
from hohfeld.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from hohfeld.actions import ActionModelEnv
from hohfeld.modelio import dumps_model, load_action_model_file, load_model_file
from hohfeld.parser import parse
from hohfeld.positions import verdict
from hohfeld.reduction import AXIOMS, VARIANTS, expected_counterexample
import hohfeld.scenarios as scenarios
from hohfeld.scenarios import export_fixture_files

from conftest import dynamic_action_model


@pytest.fixture
def files(tmp_path):
    export_fixture_files(tmp_path)
    (tmp_path / "after_john.json").write_text(
        dumps_model(scenarios.parking_after_john())
    )
    return {
        "park": str(tmp_path / "parking_model.json"),
        "john": str(tmp_path / "john_actions.json"),
        "mary": str(tmp_path / "mary_actions.json"),
        "contract": str(tmp_path / "contract_model.json"),
        "signing": str(tmp_path / "contract_actions.json"),
        "after_john": str(tmp_path / "after_john.json"),
        "dir": tmp_path,
    }


# -- check ---------------------------------------------------------------------

def test_check_true(files, capsys):
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "O i c (do i d / p)"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"


def test_check_false(files, capsys):
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "O i c (do i d / true)"])
    assert code == EXIT_FAIL
    assert capsys.readouterr().out.strip() == "false"


def test_check_with_action_models(files, capsys):
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "[act John a1] [act Mary b1] !f",
                 "--actions", files["john"], "--actions", files["mary"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"


def test_check_unknown_state_is_an_input_error(files, capsys):
    code = main(["check", "--model", files["park"], "--state", "zz",
                 "--formula", "p"])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_eval_answers_a_deeply_nested_negation(files, capsys):
    code = main(["eval", "--model", files["park"], "--formula", "!" * 1200 + "p"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == ["w1", "w2"]


def test_eval_answers_a_deeply_nested_conjunction(files, capsys):
    # 20 001 conjuncts nest 20 000 levels to the left; evaluation answers at any depth
    code = main(["eval", "--model", files["park"], "--formula", " & ".join(["p"] * 20001)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == ["w1", "w2"]


def test_check_syntax_error_is_an_input_error(files, capsys):
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "p &"])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_check_missing_file_is_an_input_error(files, capsys):
    code = main(["check", "--model", str(files["dir"] / "nosuch.json"),
                 "--state", "w1", "--formula", "p"])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_eval_deeply_nested_json_is_an_input_error(files, capsys):
    deep = files["dir"] / "deep.json"
    deep.write_text('{"states": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = main(["eval", "--model", str(deep), "--formula", "p"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON nested too deeply" in err
    assert "Traceback" not in err


def test_check_relation_falsely_marked_closed_is_an_input_error(files, capsys):
    bad = files["dir"] / "not_closed.json"
    data = json.loads((files["dir"] / "parking_model.json").read_text())
    data["pref"]["i->c"] = {"edges": [["w1", "w2"]], "closed": True}
    bad.write_text(json.dumps(data))
    code = main(["check", "--model", str(bad), "--state", "w1", "--formula", "[pref i c] p"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "marked closed" in err


def test_check_malformed_edge_is_an_input_error(files, capsys):
    bad = files["dir"] / "bad_edge.json"
    data = json.loads((files["dir"] / "parking_model.json").read_text())
    data["pref"]["i->c"]["edges"] = [["w1", ["w2"]]]
    bad.write_text(json.dumps(data))
    code = main(["check", "--model", str(bad), "--state", "w1", "--formula", "p"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_on_an_atom_no_formula_can_name_is_an_input_error(files, capsys):
    bad = files["dir"] / "keyword_atom.json"
    data = json.loads((files["dir"] / "parking_model.json").read_text())
    data["val"]["true"] = ["w1"]
    bad.write_text(json.dumps(data))
    code = main(["eval", "--model", str(bad), "--formula", "p"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "name 'true'" in err


def test_check_non_static_precondition_is_an_input_error(files, capsys):
    bad = files["dir"] / "dynamic_pre.json"
    data = json.loads((files["dir"] / "john_actions.json").read_text())
    data["pre"]["a1"] = "[act John a1] p"
    bad.write_text(json.dumps(data))
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "[act John a1] p", "--actions", str(bad)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "precondition not static" in err


def test_check_with_a_dynamic_precondition_built_in_code_is_an_input_error(files, capsys, monkeypatch):
    # the JSON loader rejects this action model, so hand the command one built in code
    act = dynamic_action_model("pre", parse("[act A a1] p"))
    monkeypatch.setattr(cli, "load_action_model_file", lambda path: act)
    code = main(["check", "--model", files["park"], "--state", "w1",
                 "--formula", "[act A a1] p", "--actions", "ignored.json"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


# -- eval -----------------------------------------------------------------------

def test_eval_prints_sorted_truth_set(files, capsys):
    code = main(["eval", "--model", files["park"], "--formula", "p"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == ["w1", "w2"]


def test_eval_empty_truth_set(files, capsys):
    code = main(["eval", "--model", files["park"], "--formula", "f"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == []


# -- update and iso ----------------------------------------------------------------

def test_update_then_iso_against_expected(files, capsys):
    out = str(files["dir"] / "updated.json")
    code = main(["update", "--model", files["park"],
                 "--actions", files["john"], "--out", out])
    assert code == EXIT_OK
    assert "wrote 4 states" in capsys.readouterr().out

    written = load_model_file(out)
    assert written.states == {"w1*a1", "w2*a2", "w3*a2", "w4*a2"}

    code = main(["iso", "--a", out, "--b", files["after_john"]])
    assert code == EXIT_OK
    mapping = json.loads(capsys.readouterr().out)
    assert mapping == {w: w for w in ("w1*a1", "w2*a2", "w3*a2", "w4*a2")}


def test_iso_reports_none_with_failure_exit(files, capsys):
    code = main(["iso", "--a", files["park"], "--b", files["contract"]])
    assert code == EXIT_FAIL
    assert capsys.readouterr().out.strip() == "none"


def test_update_with_nothing_executable_is_an_input_error(files, capsys):
    blocked = files["dir"] / "blocked.json"
    blocked.write_text(json.dumps({
        "name": "Blocked", "owner": "nobody", "actions": ["e"],
        "rel": {}, "pre": {"e": "false"}, "post": {},
    }))
    code = main(["update", "--model", files["park"],
                 "--actions", str(blocked), "--out", str(files["dir"] / "x.json")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# -- power ----------------------------------------------------------------------

def test_power_global(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--position", "true",
                 "--kind", "power", "--scope", "global"])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {
        "kind": "power", "scope": "global", "holds": True, "witnesses": ["a1"],
    }


def test_power_local(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--position", "O i k (f / true)",
                 "--kind", "power", "--scope", "local"])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {
        "kind": "power", "scope": "local", "holds": True,
        "witnesses": ["a1"], "currentTruth": False,
    }


def test_local_immunity_verdict(files, capsys):
    code = main(["power", "--model", files["park"], "--state", "w1",
                 "--actions", files["john"],
                 "--position", "O i c (do i d / true)",
                 "--kind", "immunity", "--scope", "local"])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["holds"] is True
    assert verdict["witnesses"] == []


def test_power_global_needs_no_position(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--kind", "power", "--scope", "global"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["witnesses"] == ["a1"]


def test_power_local_without_a_position_is_an_input_error(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--kind", "power", "--scope", "local"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "position" in err


def test_liability_is_global_only(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--position", "true",
                 "--kind", "liability", "--scope", "local"])
    assert code == EXIT_INPUT
    assert "global scope only" in capsys.readouterr().err
    code = main(["power", "--model", files["contract"], "--state", "w1",
                 "--actions", files["signing"], "--position", "true",
                 "--kind", "nopower", "--scope", "local"])
    assert code == EXIT_INPUT


def test_liability_global(files, capsys):
    code = main(["power", "--model", files["contract"], "--state", "w2",
                 "--actions", files["signing"], "--position", "true",
                 "--kind", "liability", "--scope", "global"])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {
        "kind": "liability", "scope": "global", "holds": True, "witnesses": ["a2"],
    }


@pytest.mark.parametrize("kind, scope", [
    ("power", "global"), ("immunity", "global"), ("liability", "global"),
    ("nopower", "global"), ("power", "local"), ("immunity", "local"),
])
@pytest.mark.parametrize("state", ["w1", "w4"])
def test_power_prints_the_table_verdict(files, capsys, kind, scope, state):
    position = "O i k (f / true)"
    code = main(["power", "--model", files["contract"], "--state", state,
                 "--actions", files["signing"], "--position", position,
                 "--kind", kind, "--scope", scope])
    assert code == EXIT_OK
    act = load_action_model_file(files["signing"])
    expected = verdict(kind, scope, load_model_file(files["contract"]), state, act,
                       parse(position), ActionModelEnv([act]))
    assert json.loads(capsys.readouterr().out) == expected.to_json_dict()


# -- translate ---------------------------------------------------------------------

def test_translate_worked_example(files, capsys):
    code = main(["translate", "--formula", "[act John a1] [pref i c] f",
                 "--actions", files["john"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "!d & p -> [pref i c] (!d & p -> true)"


def test_translate_variants_differ_on_universal_scope(files, capsys):
    argv = ["translate", "--formula", "[act John a1] U f",
            "--actions", files["john"]]
    assert main(argv) == EXIT_OK
    sound = capsys.readouterr().out.strip()
    assert main(argv + ["--variant", "paper"]) == EXIT_OK
    paper = capsys.readouterr().out.strip()
    assert sound != paper
    assert "d | !p -> false" in sound      # the other action's contribution
    assert "d | !p" not in paper


# -- audit ------------------------------------------------------------------------

def test_audit_sound_axiom_passes(capsys):
    code = main(["audit", "--axiom", "S5U", "--samples", "40"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "none"


def test_audit_paper_univ_rule_finds_the_expected_counterexample(capsys):
    code = main(["audit", "--axiom", "univRed", "--variant", "paper",
                 "--samples", "60"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["axiom"] == "univRed"
    assert payload["variant"] == "paper"
    assert payload["lhsValue"] != payload["rhsValue"]
    assert "actionModel" in payload


def test_audit_sound_univ_rule_finds_nothing(capsys):
    code = main(["audit", "--axiom", "univRed", "--samples", "60"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "none"


def test_audit_missing_expected_counterexample_fails(capsys):
    # far too few samples to hit the known countermodel
    code = main(["audit", "--axiom", "univRed", "--variant", "paper",
                 "--samples", "2"])
    assert code == EXIT_FAIL
    assert capsys.readouterr().out.strip() == "none"


@pytest.mark.parametrize("samples", ["5", "50"])
def test_audit_exit_codes_follow_the_expected_counterexample(samples, capsys):
    # at 5 samples neither paper counterexample is reached, at 50 both are
    for axiom in sorted(AXIOMS):
        for variant in VARIANTS:
            code = main(["audit", "--axiom", axiom, "--variant", variant, "--samples", samples])
            found = capsys.readouterr().out.strip() != "none"
            assert code == (EXIT_OK if found == expected_counterexample(axiom, variant)
                            else EXIT_FAIL)
            assert found == (samples == "50" and expected_counterexample(axiom, variant))


@pytest.mark.parametrize("flags", [
    ["--max-states", "0"], ["--max-agents", "0"], ["--max-atoms", "0"], ["--max-actions", "0"],
    ["--max-depth", "-1"], ["--samples", "0"], ["--samples", "-3"], ["--max-agents", "7"],
    ["--max-atoms", "7"],
])
def test_audit_bounds_out_of_range_are_input_errors(flags, capsys):
    # a bound the generators cannot meet, or an audit of no samples, is not a pass
    code = main(["audit", "--axiom", "S5U", *flags])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_audit_unknown_axiom_is_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--axiom", "nosuch"])
    assert exc.value.code == 2


# -- scenario -----------------------------------------------------------------------

@pytest.mark.parametrize("name, count", [("parking", 18), ("contract", 12)])
def test_scenario_run(name, count, capsys):
    code = main(["scenario", "run", name])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"{name}: {count}/{count} checks passed" in out
    assert out.count("PASS") == count
    assert "FAIL" not in out


def test_scenario_unknown_name_is_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "run", "nosuch"])
    assert exc.value.code == 2


def test_no_subcommand_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
