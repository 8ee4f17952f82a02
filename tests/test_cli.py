import json

import pytest

from causact.cli import main
from causact.corpus import BOMB, ROCK_THROWING


@pytest.fixture(scope="module")
def rt_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "rock-throwing.cm"
    path.write_text(ROCK_THROWING)
    return str(path)


@pytest.fixture(scope="module")
def bomb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "bomb.cm"
    path.write_text(BOMB)
    return str(path)


@pytest.fixture(scope="module")
def rt_cfs(tmp_path_factory, rt_file):
    path = str(tmp_path_factory.mktemp("structures") / "rock-throwing.cfs")
    assert main(["build-cf", "-m", rt_file, "-o", path]) == 0
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveEval:
    def test_solve(self, capsys, rt_file):
        code, out, _ = run(capsys, "solve", "-m", rt_file, "-u", "U=u11")
        assert code == 0
        assert "SH = 1" in out and "BH = 0" in out

    def test_solve_with_intervention(self, capsys, rt_file):
        code, out, _ = run(
            capsys, "solve", "-m", rt_file, "-u", "U=u11", "--intervene", "ST<-0", "--json"
        )
        assert code == 0
        asg = json.loads(out)["assignment"]
        assert asg["ST"] == "0" and asg["BH"] == "1" and asg["BS"] == "1"

    @pytest.mark.parametrize("intervention", ["XX<-1", "ST<-7", "ST<-0, ST<-1"])
    def test_bad_intervention_is_parse_error(self, capsys, rt_file, intervention):
        code, _, err = run(
            capsys, "solve", "-m", rt_file, "-u", "U=u11", "--intervene", intervention
        )
        assert code == 2 and "parse error" in err

    def test_solve_dot(self, capsys, rt_file):
        code, out, _ = run(capsys, "solve", "-m", rt_file, "--dot")
        assert code == 0
        assert '"SH" -> "BH";' in out

    def test_eval(self, capsys, rt_file):
        code, out, _ = run(capsys, "eval", "-m", rt_file, "-u", "U=u11", "[ST<-0] BS=1")
        assert code == 0 and out.strip() == "true"

    def test_empty_variable_name_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "m.cm"
        path.write_text("model m\nexo U : { 0, 1 }\nvar : { 0, 1 }\neq  = case { default: 0 }\n")
        code, out, err = run(capsys, "solve", "-m", str(path), "-u", "U=0")
        assert code == 3
        assert out == "" and "expected a variable name" in err

    def test_second_equation_for_a_variable_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "m.cm"
        path.write_text("model m\nexo U : { 0, 1 }\nvar X : { 0, 1 }\n"
                        "eq X = case { U=1 : 1 ; default: 0 }\neq X = case { default: 1 }\n")
        code, out, err = run(capsys, "solve", "-m", str(path), "-u", "U=0")
        assert code == 3
        assert out == "" and err == "error: two equations for X\n"

    @pytest.mark.parametrize("argv", [["solve"], ["eval", "Y=1"], ["cause", "--cause", "X=1", "--effect", "Y=1"]])
    def test_blank_context_is_the_empty_context(self, capsys, tmp_path, argv):
        path = tmp_path / "m.cm"
        path.write_text("model m\nvar X : { 0, 1 }\nvar Y : { 0, 1 }\n"
                        "eq X = case { default: 1 }\neq Y = case { X=1 : 1 ; default: 0 }\n")
        code, out, err = run(capsys, argv[0], "-m", str(path), "-u", "", *argv[1:])
        assert code == 0 and err == ""
        assert out.splitlines()[0] in ("X = 1", "true", "isCause: True")

    def test_blank_context_misses_the_exogenous_variables(self, capsys, rt_file):
        code, out, err = run(capsys, "eval", "-m", rt_file, "-u", " ", "BS=1")
        assert code == 3
        assert out == "" and "context is missing U" in err

    @pytest.mark.parametrize("name", ["true", "false"])
    @pytest.mark.parametrize("dsl", ["model", "structure"])
    def test_formula_constant_as_variable_name_is_semantic_error(self, capsys, tmp_path, name, dsl):
        path = tmp_path / "file"
        if dsl == "model":
            path.write_text(f"model m\nexo U : {{ 0, 1 }}\nvar {name} : {{ 0, 1 }}\neq {name} = case {{ default: 0 }}\n")
            code, out, err = run(capsys, "solve", "-m", str(path), "-u", "U=0")
        else:
            path.write_text(f"structure s\nvar {name} : {{ 0, 1 }}\nstate a {{ {name}=0 }}\n")
            code, out, err = run(capsys, "closest", "-s", str(path), "--state", "a", "true")
        assert code == 3
        assert out == "" and f"expected a variable name, got '{name}'" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "-m", "/nonexistent.cm", "-u", "U=u11", "BS=1")
        assert code == 2 and "error" in err

    def test_bad_formula_is_parse_error(self, capsys, rt_file):
        code, _, err = run(capsys, "eval", "-m", rt_file, "-u", "U=u11", "BS=")
        assert code == 2 and "parse error" in err

    def test_bad_context_value(self, capsys, rt_file):
        # u99 is not in U's declared range, a parse-level error
        code, _, _ = run(capsys, "eval", "-m", rt_file, "-u", "U=u99", "BS=1")
        assert code == 2


class TestCause:
    def test_hp_mode(self, capsys, rt_file):
        code, out, _ = run(
            capsys, "cause", "-m", rt_file, "-u", "U=u11",
            "--cause", "ST=1", "--effect", "BS=1", "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["isCause"] and d["witnesses"][0]["W"] == {"BH": "0"}

    def test_abstract_mode_on_model(self, capsys, rt_file):
        code, out, _ = run(
            capsys, "cause", "-m", rt_file, "-u", "U=u11",
            "--cause", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["isCause"] and d["tau"] is not None

    def test_negative_verdict_still_exits_zero(self, capsys, rt_file):
        code, out, _ = run(
            capsys, "cause", "-m", rt_file, "-u", "U=u11",
            "--cause", "BT=1", "--effect", "BS=1", "--json",
        )
        assert code == 0 and not json.loads(out)["isCause"]

    def test_structure_semantics_needs_structure(self, capsys, rt_file):
        code, _, err = run(
            capsys, "cause", "-m", rt_file, "--cause", "ST=1", "--effect", "BS=1",
            "--mode", "abstract", "--semantics", "structure",
        )
        assert code == 2 and "structure" in err

    def test_missing_model_is_usage_error(self, capsys):
        code, out, err = run(capsys, "cause", "--cause", "ST=1", "--effect", "BS=1")
        assert (code, out, err) == (2, "", "error: model semantics needs --model and --context\n")

    @pytest.mark.parametrize("mode", ["hp", "abstract"])
    def test_missing_context_is_usage_error(self, capsys, rt_file, mode):
        code, out, err = run(
            capsys, "cause", "-m", rt_file, "--cause", "ST=1", "--effect", "BS=1", "--mode", mode
        )
        assert (code, out, err) == (2, "", "error: model semantics needs --model and --context\n")

    def test_hp_mode_on_a_structure_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.cfs"
        path.write_text("structure toy\nvar X : { 0, 1 }\nstate s0 { X=0 }\nstate s1 { X=1 }\n")
        code, out, err = run(
            capsys, "cause", "--semantics", "structure", "-s", str(path), "--state", "s0",
            "--cause", "X=0", "--effect", "X=0",
        )
        assert (code, out) == (2, "")
        assert err == "error: hp mode checks a causal model; use --mode abstract on a structure\n"

    @pytest.mark.parametrize("pin", ["[ST<-0] BS=1", "(ST=0) ~> (BS=1)", "U=u11 & [ST<-0] BS=1"])
    def test_non_propositional_pin_is_a_parse_error(self, capsys, rt_file, pin):
        code, out, err = run(
            capsys, "cause", "-m", rt_file, "-u", "U=u11", "--cause", "ST=1",
            "--effect", "BS=1", "--mode", "abstract", "--lang", "conj", "--pin", pin,
        )
        assert (code, out) == (2, "")
        assert err == "parse error: pins must be Boolean combinations of primitive events\n"

    @pytest.mark.parametrize(
        "setting",
        [
            ["cause", "-u", "U=u11", "--cause", "ST=1"],
            ["cause", "--semantics", "structure", "--state", "s125", "--cause", "ST=1"],
            ["explain", "--K", "U=u11; U=u10", "--candidate", "ST=1"],
        ],
        ids=["cause-model", "cause-structure", "explain"],
    )
    def test_false_non_propositional_pin_is_a_parse_error(self, capsys, rt_file, tmp_path, setting):
        structure = str(tmp_path / "rt.cfs")
        run(capsys, "build-cf", "-m", rt_file, "-o", structure)
        where = ["-s", structure] if "structure" in setting else ["-m", rt_file]
        code, out, err = run(
            capsys, *setting, *where, "--effect", "BS=1", "--mode", "abstract",
            "--pin", "U=u00 & [ST<-0] BS=1",
        )
        assert (code, out) == (2, "")
        assert err == "parse error: pins must be Boolean combinations of primitive events\n"


class TestStructureWorkflow:
    def test_build_then_query_then_check(self, capsys, rt_file, tmp_path):
        out_file = str(tmp_path / "rt.cfs")
        code, out, _ = run(capsys, "build-cf", "-m", rt_file, "-o", out_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["states"] == 128
        state = payload["contextStates"]["U=u11"]

        code, out, _ = run(capsys, "closest", "-s", out_file, "--state", state, "ST=0", "--json")
        assert code == 0
        assert len(json.loads(out)["closest"]) >= 1

        code, out, _ = run(
            capsys, "cause", "--semantics", "structure", "-s", out_file, "--state", state,
            "--cause", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--lang", "pair",
            "--json",
        )
        assert code == 0 and json.loads(out)["isCause"]

        code, out, _ = run(
            capsys, "check-correspondence", "-m", rt_file, "-s", out_file, "--strong", "--json"
        )
        assert code == 0 and json.loads(out)["ok"]

    def test_state_cap_exceeded(self, capsys, rt_file, tmp_path):
        code, _, err = run(
            capsys, "build-cf", "-m", rt_file, "-o", str(tmp_path / "x.cfs"), "--state-cap", "10"
        )
        assert code == 3

    def test_unknown_base_state_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "s.cfs"
        path.write_text(
            "structure toy\nvar X : { 0, 1 }\n"
            "state a { X=0 }\nstate b { X=1 }\norder a : { b }\n"
        )
        code, out, err = run(capsys, "closest", "-s", str(path), "--state", "nosuch", "X=1")
        assert code == 3
        assert out == "" and "unknown state 'nosuch'" in err

    def test_intervention_in_a_decided_operand_is_parse_error(self, capsys, tmp_path):
        # the mask of `&` labels both operands at every state, so the
        # intervention is rejected although `X=0 & X=1` is false everywhere
        path = tmp_path / "s.cfs"
        path.write_text("structure toy\nvar X : { 0, 1 }\nstate a { X=0 }\nstate b { X=1 }\n")
        code, out, err = run(capsys, "closest", "-s", str(path), "--state", "a", "(X=0 & X=1) & [X<-1] X=1")
        assert code == 2 and out == ""
        assert err == "parse error: interventions are not evaluable in counterfactual structures\n"

    @pytest.mark.parametrize("command", ["cause", "explain"])
    def test_unknown_setting_state_is_semantic_error(self, capsys, tmp_path, command):
        path = tmp_path / "s.cfs"
        path.write_text(
            "structure toy\nvar X : { 0, 1 }\n"
            "state a { X=0 }\nstate b { X=1 }\norder a : { b }\n"
        )
        pick = ["--state", "nosuch"] if command == "cause" else ["--K-states", "a, nosuch"]
        flags = ["--cause"] if command == "cause" else ["--candidate"]
        code, out, err = run(
            capsys, command, "--semantics", "structure", "-s", str(path), *pick,
            *flags, "X=0", "--effect", "X=0", "--mode", "abstract",
        )
        assert code == 3
        assert out == "" and err == "error: unknown state 'nosuch'\n"

    def test_bare_structure_line_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "s.cfs"
        path.write_text("structure\nvar X : { 0, 1 }\nstate a { X=0 }\n")
        code, out, err = run(capsys, "closest", "-s", str(path), "--state", "a", "X=1")
        assert code == 3
        assert out == "" and "structure line needs a name" in err

    def test_empty_variable_name_in_structure_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "s.cfs"
        path.write_text("structure toy\nvar  : { 0, 1 }\nstate a { X=0 }\n")
        code, out, err = run(capsys, "closest", "-s", str(path), "--state", "a", "X=1")
        assert code == 3
        assert out == "" and "expected a variable name" in err

    def test_pinned_cause_on_structure(self, capsys, rt_file, tmp_path):
        out_file = str(tmp_path / "rt.cfs")
        _, out, _ = run(capsys, "build-cf", "-m", rt_file, "-o", out_file, "--json")
        state = json.loads(out)["contextStates"]["U=u11"]
        code, out, _ = run(
            capsys, "cause", "--semantics", "structure", "-s", out_file, "--state", state,
            "--cause", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--lang", "pair",
            "--pin", "U=u11", "--json",
        )
        assert code == 0
        verdict = json.loads(out)
        assert (verdict["isCause"], verdict["tau"]) == (True, "U=u11 & BH=0")


class TestAllowVacuous:
    # s125 is the state of U=u11; the verdicts are those without the flag.
    # The pins-only AC3' candidate `true` has the antecedent !true & tau,
    # which no state satisfies, so it would pass vacuously: it is not tried.
    def test_cause_at_a_state(self, capsys, rt_cfs):
        code, out, _ = run(
            capsys, "cause", "--semantics", "structure", "-s", rt_cfs, "--state", "s125",
            "--cause", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--allow-vacuous",
        )
        assert code == 0
        assert out.splitlines()[:2] == ["isCause: True (language conj)", "tau: BH=0"]

    def test_explanation_at_a_state(self, capsys, rt_cfs):
        code, out, _ = run(
            capsys, "explain", "--semantics", "structure", "-s", rt_cfs, "--K-states", "s125",
            "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--allow-vacuous",
        )
        assert code == 0
        assert out.startswith("isExplanation: True")


class TestDeepFormula:
    DEEP = " & ".join(["ST=1"] * 2000)
    NESTED = "(" * 3000 + "ST=1" + ")" * 3000  # too deep for the parser itself

    @pytest.mark.parametrize("call", [
        ["eval", "-m", "{cm}", "-u", "U=u11", DEEP],
        ["cause", "-m", "{cm}", "-u", "U=u11", "--cause", DEEP, "--effect", "BS=1",
         "--mode", "abstract"],
        ["cause", "--semantics", "structure", "-s", "{cfs}", "--state", "s125",
         "--cause", DEEP, "--effect", "BS=1", "--mode", "abstract"],
        ["explain", "-m", "{cm}", "--K", "U=u11", "--candidate", DEEP, "--effect", "BS=1",
         "--mode", "abstract"],
        ["eval", "-m", "{cm}", "-u", "U=u11", NESTED],
    ], ids=["eval", "cause-model", "cause-structure", "explain", "parse"])
    def test_too_deep_is_semantic_error(self, capsys, rt_file, rt_cfs, call):
        files = {"{cm}": rt_file, "{cfs}": rt_cfs}
        code, out, err = run(capsys, *[files.get(a, a) for a in call])
        assert (code, out) == (3, "")
        assert err == "error: formula too deeply nested\n"
        assert "Traceback" not in err


class TestExplain:
    def test_hp_explanation(self, capsys, tmp_path):
        from causact.corpus import THREE_CONTEXT

        path = tmp_path / "ordered.cm"
        path.write_text(THREE_CONTEXT)
        code, out, _ = run(
            capsys, "explain", "-m", str(path),
            "--K", "U=u111; U=u112; U=u101",
            "--candidate", "ST=1 & BT=1", "--effect", "BS=1", "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["isExplanation"] and d["nontrivial"]

    def test_explain_requires_K(self, capsys, rt_file):
        code, _, err = run(
            capsys, "explain", "-m", rt_file, "--candidate", "ST=1", "--effect", "BS=1"
        )
        assert code == 2 and "--K" in err

    def test_explain_requires_model(self, capsys):
        code, out, err = run(
            capsys, "explain", "--candidate", "ST=1", "--effect", "BS=1", "--K", "U=u11"
        )
        assert (code, out, err) == (2, "", "error: model semantics needs --model and --K\n")

    def test_empty_K_states_is_usage_error(self, capsys, rt_file):
        code, out, err = run(
            capsys, "explain", "--semantics", "structure", "-s", rt_file, "--K-states", " , ",
            "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract",
        )
        assert code == 2
        assert out == "" and "--K-states" in err

    @pytest.mark.parametrize("with_structure", [True, False])
    def test_hp_mode_on_a_structure_is_usage_error(self, capsys, tmp_path, with_structure):
        # the default mode is hp, and the mode is checked before the
        # structure and its states are read
        path = tmp_path / "s.cfs"
        path.write_text("structure toy\nvar X : { 0, 1 }\nstate s0 { X=0 }\nstate s1 { X=1 }\n")
        args = ["-s", str(path), "--K-states", "s0"] if with_structure else ["--mode", "hp"]
        code, out, err = run(
            capsys, "explain", "--semantics", "structure", *args,
            "--candidate", "X=0", "--effect", "X=0",
        )
        assert (code, out) == (2, "")
        assert err == "error: hp mode checks a causal model; use --mode abstract on a structure\n"


class TestLanguageSpec:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bogus", "unknown witness language 'bogus'"),
            ("gen:x", "clause budget must be an integer, got 'x'"),
            ("gen:", "clause budget must be an integer, got ''"),
            ("gen:-1", "clause budget must be nonnegative"),
        ],
    )
    def test_bad_language_is_parse_error(self, capsys, rt_file, spec, message):
        code, out, err = run(
            capsys, "cause", "-m", rt_file, "-u", "U=u11", "--cause", "ST=1", "--effect", "BS=1",
            "--mode", "abstract", "--lang", spec,
        )
        assert code == 2
        assert out == "" and err.startswith("parse error: " + message)


class TestFuzzAndCorpus:
    def test_fuzz_json(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--theorem", "1", "--trials", "5", "--seed", "3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["ok"] and d["agreements"] == 5 and d["skipped"] == 0

    def test_fuzz_disagreement_exits_3(self, capsys, monkeypatch):
        from causact.harness import DifferentialReport

        def one_disagreement(name, trials, seed=0, caps=None, negated=False):
            return DifferentialReport(name, trials, seed, trials - 1, [{"trial": 0}])

        # `fuzz` imports the harness when it runs
        monkeypatch.setattr("causact.harness.run_differential", one_disagreement)
        code, out, _ = run(capsys, "fuzz", "--theorem", "3", "--trials", "2", "--json")
        assert code == 3
        assert not json.loads(out)["ok"]

    def test_fuzz_caps(self, capsys, monkeypatch):
        from causact import harness
        from causact.harness import DEFAULT_CAPS, FuzzCaps

        asked = []
        differential = harness.run_differential

        def recording(*args, **kwargs):
            asked.append(kwargs["caps"])
            return differential(*args, **kwargs)

        monkeypatch.setattr(harness, "run_differential", recording)
        code, out, _ = run(capsys, "fuzz", "--theorem", "2", "--trials", "3", "--caps", "5,2,3", "--json")
        report = json.loads(out)
        assert code == 0 and report["agreements"] == 3
        # the report names the caps, without which a trial does not replay
        assert report["caps"] == {"maxEndogenous": 5, "maxExogenous": 2, "maxDomain": 3,
                                  "formulaDepth": DEFAULT_CAPS.formula_depth,
                                  "maxParents": DEFAULT_CAPS.max_parents}
        code, out, _ = run(capsys, "fuzz", "--theorem", "1", "--trials", "1", "--seed", "4")
        assert code == 0 and out.rstrip().endswith("(seed 4, caps 4,2,3)")
        assert "1/1 agree, 0 disagreements, 0 skipped, " in out
        assert asked == [FuzzCaps(5, 2, 3), DEFAULT_CAPS]

    @pytest.mark.parametrize("caps", ["5,2", "5,2,3,4", "5,2,x", "", "5;2;3", "0,2,3", "5,0,3", "5,2,1"])
    def test_fuzz_malformed_caps_is_usage_error(self, capsys, caps):
        code, out, err = run(capsys, "fuzz", "--theorem", "1", "--trials", "1", "--caps", caps)
        assert code == 2
        assert out == "" and err.startswith("error: --caps ")

    def test_fuzz_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--theorem", "9", "--trials", "1")
        assert code == 2

    def test_fuzz_negative_trials_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fuzz", "--theorem", "1", "--trials", "-3")
        assert code == 2
        assert out == "" and "--trials must be nonnegative" in err

    def test_corpus_runs_clean(self, capsys):
        code, out, _ = run(capsys, "corpus", "--json")
        assert code == 0
        results = json.loads(out)
        assert len(results) == 12 and all(r["holds"] for r in results)

    def test_corpus_dump(self, capsys):
        code, out, _ = run(capsys, "corpus", "--dump", "rock-throwing")
        assert code == 0 and out == ROCK_THROWING

    def test_corpus_dump_unknown(self, capsys):
        code, _, _ = run(capsys, "corpus", "--dump", "nope")
        assert code == 2
