"""Properties of the three parsers: on any text they fail only with their
own typed errors, and a model's or a structure's text reads back as the
same model or structure."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from causact.corpus import ROCK_THROWING
from causact.formula import FormulaError, Signature, parse_formula
from causact.harness import DEFAULT_CAPS, FuzzCaps, gen_random_model
from causact.model import ModelError, model_to_text, parse_model
from causact.structure import CfStructure, StructureError, TierOrder, parse_structure, structure_to_text

SIG = Signature(
    exogenous=(("U", ("u0", "u1")),),
    endogenous=(("X", ("0", "1", "2")), ("Y", ("0", "1"))),
)

# the formula grammar's tokens, some literals whole, and a few characters
# no token starts with
FORMULA_TOKENS = [
    "X", "Y", "U", "Z", "true", "false", "0", "1", "2", "u0", "u1",
    "=", "!=", "!", "&", "|", "(", ")", "[", "]", ",", "<-", "~>",
    "X=1", "Y!=0", "U=u0", "[X<-0]", " ", "  ", "\t", "@", "-", "é", "<", "~",
]

STRUCTURE = """structure toy
exo U : { 0, 1 }
var X : { 0, 1, 2 }
var Y : { 0, 1 }
state s0 { U=0, X=0, Y=0 }
state s1 { U=0, X=1, Y=1 }
state s2 { U=1, X=2, Y=0 }
order s0 : { s1 } ; { s2 }
order s1 : { s0, s2 }
"""

# what an edit may put into a model or structure text
EDIT_TOKENS = FORMULA_TOKENS + [
    "{", "}", ":", ";", "\n", "#", "", "ST", "s0", "s3", "default", "case", "model",
    "exo", "var", "eq", "structure", "state", "order", "over", "derived", "weighted-violations",
]


def token_text(tokens):
    return st.lists(st.sampled_from(tokens), max_size=24).map("".join)


@st.composite
def edited(draw, text):
    """`text` with a few short spans replaced by tokens."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.sampled_from(EDIT_TOKENS)) + text[j:]
    return text


@settings(max_examples=300)
@given(token_text(FORMULA_TOKENS))
def test_formula_text_fails_only_with_formula_error(text):
    try:
        parse_formula(text, SIG)
    except FormulaError:
        pass


@settings(max_examples=300)
@given(st.one_of(edited(ROCK_THROWING), token_text(EDIT_TOKENS)))
def test_model_text_fails_only_with_model_or_formula_error(text):
    try:
        parse_model(text)
    except (ModelError, FormulaError):
        pass


@settings(max_examples=300)
@given(st.one_of(edited(STRUCTURE), edited(ROCK_THROWING), token_text(EDIT_TOKENS)))
def test_structure_text_fails_only_with_typed_errors(text):
    try:
        parse_structure(text)
    except (StructureError, ModelError, FormulaError):
        pass


@given(st.sampled_from([DEFAULT_CAPS, FuzzCaps(6, 2, 4)]), st.integers(0, 2**32 - 1))
def test_model_text_round_trips(caps, seed):
    m = gen_random_model(caps, random.Random(seed))
    again = parse_model(model_to_text(m))
    assert again.parents == m.parents
    for x, parents in m.parents.items():
        for values in itertools.product(*(m.sig.range_of(p) for p in parents)):
            asgn = dict(zip(parents, values))
            assert again.equation_value(x, asgn) == m.equation_value(x, asgn)
    assert again.topo_order == m.topo_order


@st.composite
def tier_structures(draw):
    """States with random assignments over SIG, each ranking itself first,
    alone, then some of the others in tiers: the orders the file expresses."""
    n = draw(st.integers(1, 6))
    values = st.fixed_dictionaries({x: st.sampled_from(SIG.range_of(x)) for x in SIG.all_names()})
    states = {f"s{i}": draw(values) for i in draw(st.permutations(range(n)))}
    tiers = {}
    for s in states:
        # tier 0 leaves a state unranked
        place = {t: draw(st.integers(0, 3)) for t in states if t != s}
        tiers[s] = [frozenset({s})] + [
            frozenset(t for t, p in place.items() if p == k) for k in (1, 2, 3) if k in place.values()
        ]
    return CfStructure(SIG, states, TierOrder(tiers), name="drawn")


@given(tier_structures())
def test_structure_text_round_trips(m):
    again = parse_structure(structure_to_text(m))
    assert again.name == m.name and again.states == m.states
    assert again.interp == m.interp
    assert (again.codes == m.codes).all()
    assert all((a == b).all() for a, b in zip(again.rank_rows, m.rank_rows))
