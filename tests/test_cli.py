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
        run(capsys, "build-cf", "-m", rt_file, "-o", out_file)
        code, out, _ = run(
            capsys, "cause", "--semantics", "structure", "-s", out_file, "--state", "s107",
            "--cause", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--lang", "pair",
            "--pin", "U=u11", "--json",
        )
        assert code == 0
        assert isinstance(json.loads(out)["isCause"], bool)


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


    def test_empty_K_states_is_usage_error(self, capsys, rt_file):
        code, out, err = run(
            capsys, "explain", "--semantics", "structure", "-s", rt_file, "--K-states", " , ",
            "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract",
        )
        assert code == 2
        assert out == "" and "--K-states" in err


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
        assert d["ok"] and d["agreements"] == 5

    def test_fuzz_disagreement_exits_3(self, capsys, monkeypatch):
        from causact.harness import DifferentialReport

        def one_disagreement(name, trials, seed=0, negated=False):
            return DifferentialReport(name, trials, seed, trials - 1, [{"trial": 0}])

        monkeypatch.setattr("causact.cli.run_differential", one_disagreement)
        code, out, _ = run(capsys, "fuzz", "--theorem", "3", "--trials", "2", "--json")
        assert code == 3
        assert not json.loads(out)["ok"]

    def test_fuzz_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--theorem", "9", "--trials", "1")
        assert code == 2

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
