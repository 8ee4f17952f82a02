"""The CLI's stdout, stderr and exit code on fixed calls over the corpus
models and their derived counterpart structures, compared with a recorded
transcript (`golden_cli.json`).

`{name.cm}` in a call stands for the corpus model `name` written to a file,
and `{name.cfs}` for its counterpart as `build-cf -o` writes it; a
placeholder named in `FIXTURES` stands for that text written to a file.
`fuzz` is left out: its output reports timings.

To record the transcript again, run

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from causact.cli import main
from causact.corpus import MODELS

GOLDEN = Path(__file__).with_name("golden_cli.json")

RT, RTS = "{rock-throwing.cm}", "{rock-throwing.cfs}"
CC, CCS = "{chain-copy.cm}", "{chain-copy.cfs}"
ORD, ORDS = "{rock-throwing-ordered.cm}", "{rock-throwing-ordered.cfs}"
BOMB, BOMBS = "{bomb.cm}", "{bomb.cfs}"
C3, C3S = "{chain3.cm}", "{chain3.cfs}"
PAIR_FAIL, PAIR_FAILS = "{pair-fail.cm}", "{pair-fail.cfs}"
LANGS = ["conj", "conj-neg", "pair", "gen:1"]
K3 = "U=u111; U=u112; U=u101"
K3_STATES = "s317, s347, s213"  # the same contexts in the counterpart


# A hand-written structure whose only condition-(c) failure is a pairwise
# disjunction: (X=1) | (X=2) at base a.
FIXTURES = {
    PAIR_FAIL: """\
model pair-fail
exo U : { 0, 1 }
var X : { 0, 1, 2 }
eq X = case { U=1 : 2 ; default: 0 }
""",
    PAIR_FAILS: """\
structure pair-fail
exo U : { 0, 1 }
var X : { 0, 1, 2 }
state a { U=0, X=0 }
state b { U=0, X=1 }
state c { U=1, X=2 }
state d { U=1, X=1 }
order a : { c } ; { b } ; { d }
order b : { a } ; { d } ; { c }
order c : { d } ; { b } ; { a }
order d : { c } ; { b } ; { a }
""",
}


def _abstract(where, cause, effect, lang, *extra):
    return ["cause", *where, "--cause", cause, "--effect", effect,
            "--mode", "abstract", "--lang", lang, *extra]


RT_MODEL = ["-m", RT, "-u", "U=u11"]
RT_STATE = ["--semantics", "structure", "-s", RTS, "--state", "s125"]
CC_MODEL = ["-m", CC, "-u", "U=1"]
CC_STATE = ["--semantics", "structure", "-s", CCS, "--state", "s13"]
BOMB_STATE = ["--semantics", "structure", "-s", BOMBS, "--state", "s1"]

CALLS = [
    # cause, hp mode
    ["cause", *RT_MODEL, "--cause", "ST=1", "--effect", "BS=1"],
    ["cause", *RT_MODEL, "--cause", "ST=1", "--effect", "BS=1", "--json"],
    ["cause", *RT_MODEL, "--cause", "ST=1", "--effect", "BS=1", "--first"],
    ["cause", *RT_MODEL, "--cause", "ST=1 & BT=1", "--effect", "BS=1"],
    ["cause", *RT_MODEL, "--cause", "BT=1", "--effect", "BS=1", "--json"],
    ["cause", "-m", BOMB, "-u", "Ur=1, Uc=c3", "--cause", "Run=1", "--effect", "Explode=1"],
    ["cause", "-m", CC, "-u", "U=2", "--cause", "X=2", "--effect", "Y!=0", "--json"],
    # cause, abstract mode, every language, with and without a pin, on
    # both semantics
    *[_abstract(where, "ST=1", "BS=1", lang, *pin)
      for where in (RT_MODEL, RT_STATE)
      for lang in LANGS
      for pin in ([], ["--pin", "U=u11"])],
    _abstract(RT_MODEL, "ST=1", "BS=1", "pair", "--pin", "U=u11", "--json"),
    _abstract(RT_STATE, "ST=1", "BS=1", "pair", "--pin", "U=u11", "--json"),
    _abstract(RT_STATE, "BT=1", "BS=1", "pair", "--json"),
    _abstract(RT_MODEL, "ST=1 & BT=1", "BS=1", "conj", "--json"),
    _abstract(RT_STATE, "ST=1 & SH=1", "BS=1", "conj", "--pin", "U=u11", "--json"),
    *[_abstract(where, "X=1", "Y=1", lang) for where in (CC_MODEL, CC_STATE) for lang in LANGS],
    _abstract(CC_STATE, "X=1", "Y!=0", "conj-neg", "--pin", "U=1", "--json"),
    _abstract(CC_STATE, "X=1 | X=2", "Y=1", "pair", "--allow-vacuous"),
    *[_abstract(BOMB_STATE, "Combo=c0", "Explode=1", lang) for lang in LANGS],
    _abstract(BOMB_STATE, "Combo=c0", "Explode=1", "pair", "--pin", "Ur=0, Uc=c0", "--json"),
    _abstract(["-m", C3, "-u", "U=1"], "A=1", "C=1", "gen:1", "--json"),
    _abstract(["--semantics", "structure", "-s", C3S, "--state", "s15"], "A=1", "C=1", "gen:0"),
    _abstract(["-m", BOMB, "-u", "Ur=1, Uc=c3"], "Run=1", "Explode=1", "conj", "--json"),
    # the spelling of a language
    *[_abstract(RT_MODEL, "ST=1", "BS=1", lang) for lang in ("gen:01", "gen:x", "gen:-1", "cnf")],
    # explain
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1 & BT=1", "--effect", "BS=1"],
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1 & BT=1", "--effect", "BS=1", "--json"],
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1", "--effect", "BS=1", "--json"],
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1 & BT=1", "--effect", "BS=1",
     "--mode", "abstract"],
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1 & BT=1", "--effect", "BS=1",
     "--mode", "abstract", "--lang", "pair", "--json"],
    ["explain", "-m", ORD, "--K", K3, "--candidate", "ST=1", "--effect", "BS=1",
     "--mode", "abstract", "--pin", "BT=1", "--json"],
    ["explain", "-m", RT, "--K", "U=u11; U=u10", "--candidate", "ST=1", "--effect", "BS=1",
     "--mode", "abstract", "--lang", "conj-neg"],
    ["explain", "--semantics", "structure", "-s", ORDS, "--K-states", K3_STATES,
     "--candidate", "ST=1 & BT=1", "--effect", "BS=1", "--mode", "abstract", "--lang", "pair"],
    ["explain", "--semantics", "structure", "-s", ORDS, "--K-states", K3_STATES,
     "--candidate", "ST=1 & BT=1", "--effect", "BS=1", "--mode", "abstract", "--json"],
    ["explain", "--semantics", "structure", "-s", RTS, "--K-states", "s125, s85",
     "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--lang", "pair",
     "--json"],
    # closest
    ["closest", "-s", RTS, "--state", "s125", "ST=0"],
    ["closest", "-s", RTS, "--state", "s125", "ST=0 & BT=0", "--json"],
    ["closest", "-s", CCS, "--state", "s0", "X!=0"],
    ["closest", "-s", CCS, "--state", "s0", "X=1 & X=2", "--json"],
    # build-cf and check-correspondence
    ["build-cf", "-m", RT],
    ["build-cf", "-m", CC, "--json"],
    ["check-correspondence", "-m", RT, "-s", RTS, "--strong"],
    ["check-correspondence", "-m", RT, "-s", RTS, "--strong", "--json"],
    ["check-correspondence", "-m", CC, "-s", CCS, "--strong"],
    ["check-correspondence", "-m", C3, "-s", C3S, "--strong", "--json"],
    # corpus
    ["corpus"],
    ["corpus", "--json"],
    # condition (c) failing on a pairwise disjunction
    ["check-correspondence", "-m", PAIR_FAIL, "-s", PAIR_FAILS, "--strong"],
    ["check-correspondence", "-m", PAIR_FAIL, "-s", PAIR_FAILS, "--strong", "--json"],
    # --allow-vacuous at a structure state
    _abstract(RT_STATE, "ST=1", "BS=1", "conj", "--allow-vacuous"),
    ["explain", "--semantics", "structure", "-s", RTS, "--K-states", "s125",
     "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract", "--allow-vacuous"],
]


def _materialize(directory):
    """Write every corpus model and its counterpart, and every fixture text,
    into `directory` and return the placeholder -> path table."""
    files = {}
    for name, text in MODELS.items():
        cm, cfs = Path(directory) / f"{name}.cm", Path(directory) / f"{name}.cfs"
        cm.write_text(text)
        _run(["build-cf", "-m", str(cm), "-o", str(cfs)])
        files[f"{{{name}.cm}}"], files[f"{{{name}.cfs}}"] = str(cm), str(cfs)
    for placeholder, text in FIXTURES.items():
        path = Path(directory) / placeholder.strip("{}")
        path.write_text(text)
        files[placeholder] = str(path)
    return files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _call(files, argv):
    return {"argv": argv, **_run([files.get(a, a) for a in argv])}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _materialize(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_transcript_covers_every_call(golden):
    assert [entry["argv"] for entry in golden] == CALLS


@pytest.mark.parametrize("index", range(len(CALLS)), ids=lambda i: f"{i:02d}-{CALLS[i][0]}")
def test_call_matches_transcript(files, golden, index):
    assert _call(files, CALLS[index]) == golden[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _materialize(tmp)
        transcript = [_call(paths, argv) for argv in CALLS]
    GOLDEN.write_text(json.dumps(transcript, indent=1) + "\n")
    print(f"{len(transcript)} calls -> {GOLDEN}")
