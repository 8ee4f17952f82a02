"""Built-in worked scenarios: model texts, hand-written structures, and a
runner that re-derives each scenario's verdicts.

These are the fixtures the test suite and the `corpus` CLI command share.
"""

from __future__ import annotations

import itertools

from .formula import ExoEvent, parse_formula
from .model import parse_model, parse_context
from .correspondence import build_counterpart
from .structure import CfStructure, TierOrder
from .hp import is_actual_cause_hp
from .abstract import (
    CausalSetting,
    CfSetting,
    conj_language,
    gen_language,
    is_actual_cause_abstract,
)
from .explanation import is_explanation_hp


ROCK_THROWING = """\
# Two throwers, one bottle: Suzy's rock arrives first when both throw.
model rock-throwing
exo U : { u00, u01, u10, u11 }
var ST : { 0, 1 }
var BT : { 0, 1 }
var SH : { 0, 1 }
var BH : { 0, 1 }
var BS : { 0, 1 }
eq ST = case { U=u10 | U=u11 : 1 ; default: 0 }
eq BT = case { U=u01 | U=u11 : 1 ; default: 0 }
eq SH = case { ST=1 : 1 ; default: 0 }
eq BH = case { BT=1 & SH=0 : 1 ; default: 0 }
eq BS = case { SH=1 | BH=1 : 1 ; default: 0 }
"""

# A chain X -> Y copying a three-valued context.  At U=0, "had X been
# nonzero, Y would be 1" and "had X been nonzero, Y would be 2" both hold
# under the interventionist reading, which no single closeness order can
# reproduce.
CHAIN_COPY = """\
model chain-copy
exo U : { 0, 1, 2 }
var X : { 0, 1, 2 }
var Y : { 0, 1, 2 }
eq X = case { U=1 : 1 ; U=2 : 2 ; default: 0 }
eq Y = case { X=1 : 1 ; X=2 : 2 ; default: 0 }
"""

# Rock-throwing where the tie-break k decides whose rock lands first when
# both throw: k=1 Suzy first, k=2 Billy first, k=3 simultaneous arrival.
_K13 = " | ".join(f"U=u{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (1, 3))
_K23 = " | ".join(f"U=u{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (2, 3))
THREE_CONTEXT = f"""\
model rock-throwing-ordered
exo U : {{ u001, u002, u003, u011, u012, u013, u101, u102, u103, u111, u112, u113 }}
var ST : {{ 0, 1 }}
var BT : {{ 0, 1 }}
var SH : {{ 0, 1 }}
var BH : {{ 0, 1 }}
var BS : {{ 0, 1 }}
eq ST = case {{ U=u101 | U=u102 | U=u103 | U=u111 | U=u112 | U=u113 : 1 ; default: 0 }}
eq BT = case {{ U=u011 | U=u012 | U=u013 | U=u111 | U=u112 | U=u113 : 1 ; default: 0 }}
eq SH = case {{ ST=1 & BT=0 : 1 ; ST=1 & ({_K13}) : 1 ; default: 0 }}
eq BH = case {{ BT=1 & ST=0 : 1 ; BT=1 & ({_K23}) : 1 ; default: 0 }}
eq BS = case {{ SH=1 | BH=1 : 1 ; default: 0 }}
"""

# Bob, a ticking bomb, and a secret defusal combination (c3).
BOMB = """\
model bomb
exo Ur : { 0, 1 }
exo Uc : { c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 }
var Run : { 0, 1 }
var Combo : { c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 }
var Explode : { 0, 1 }
eq Run = case { Ur=1 : 1 ; default: 0 }
eq Combo = case { Uc=c0 : c0 ; Uc=c1 : c1 ; Uc=c2 : c2 ; Uc=c3 : c3 ; Uc=c4 : c4 ; Uc=c5 : c5 ; Uc=c6 : c6 ; Uc=c7 : c7 ; Uc=c8 : c8 ; Uc=c9 : c9 ; default: c0 }
eq Explode = case { Run=1 : 1 ; Combo=c0 | Combo=c1 | Combo=c2 | Combo=c4 | Combo=c5 | Combo=c6 | Combo=c7 | Combo=c8 | Combo=c9 : 1 ; default: 0 }
"""

# A three-step chain used to exhibit how unrestricted disjunctions in the
# witness language collapse the cause definition.
CHAIN3 = """\
model chain3
exo U : { 0, 1 }
var A : { 0, 1 }
var B : { 0, 1 }
var C : { 0, 1 }
eq A = case { U=1 : 1 ; default: 0 }
eq B = case { A=1 : 1 ; default: 0 }
eq C = case { B=1 : 1 ; default: 0 }
"""


def rock_throwing_model():
    return parse_model(ROCK_THROWING)


def chain_copy_model():
    return parse_model(CHAIN_COPY)


def three_context_model():
    return parse_model(THREE_CONTEXT)


def bomb_model():
    return parse_model(BOMB)


def chain3_model():
    return parse_model(CHAIN3)


def backtracking_structure():
    """All-assignments structure over the rock-throwing signature where the
    single closest state to the both-throw actual state is the nobody-throws
    state (context changed to u00, everything 0): backtracking in its purest
    form.  All other states order the rest in one flat tier."""
    built, state_of = build_counterpart(rock_throwing_model())
    actual = state_of({"U": "u11"})
    zero = state_of({"U": "u00"})  # nobody throws, so everything is 0
    everything = frozenset(built.states)
    tiers = {s: [frozenset({s}), everything - {s}] for s in built.states}
    tiers[actual] = [frozenset({actual}), frozenset({zero}), everything - {actual, zero}]
    m2 = CfStructure._from_codes(built.sig, built.states, built.codes, TierOrder(tiers), "rt-backtracking")
    return m2, actual


def bomb_structures():
    """Two tiny structures for the bomb story, from the viewpoint of the
    state where Bob runs and the bomb explodes.  They differ in what Bob
    enters in the closest state where he does not run: a wrong combination
    (ignorant Bob) or the secret one (knowing Bob)."""
    sig = bomb_model().sig
    s = {"Ur": "1", "Uc": "c3", "Run": "1", "Combo": "c3", "Explode": "1"}
    ignorant_alt = {"Ur": "0", "Uc": "c7", "Run": "0", "Combo": "c7", "Explode": "1"}
    knowing_alt = {"Ur": "0", "Uc": "c3", "Run": "0", "Combo": "c3", "Explode": "0"}

    def build(alt, name):
        interp = {"s": s, "t": alt}
        tiers = {
            "s": [frozenset({"s"}), frozenset({"t"})],
            "t": [frozenset({"t"}), frozenset({"s"})],
        }
        return CfStructure(sig, interp, TierOrder(tiers), name=name)

    return build(ignorant_alt, "bomb-ignorant"), build(knowing_alt, "bomb-knowing")


MODELS = {
    "rock-throwing": ROCK_THROWING,
    "chain-copy": CHAIN_COPY,
    "rock-throwing-ordered": THREE_CONTEXT,
    "bomb": BOMB,
    "chain3": CHAIN3,
}


def run_corpus():
    """Re-derive every scenario verdict; returns a list of dicts with a
    `name`, a human-readable `claim`, and `holds`."""
    results = []

    def check(name, claim, holds):
        results.append({"name": name, "claim": claim, "holds": bool(holds)})

    m = rock_throwing_model()
    u11 = parse_context("U=u11", m.sig)
    bs1 = parse_formula("BS=1", m.sig)
    v = is_actual_cause_hp(m, u11, parse_formula("ST=1", m.sig), bs1)
    check(
        "rock-throwing/suzy",
        "ST=1 causes BS=1 at U=u11 with witness W={BH: 0}, x'=0",
        v.is_cause
        and v.witnesses
        and v.witnesses[0].w == ("BH",)
        and v.witnesses[0].wstar == ("0",)
        and v.witnesses[0].xprime == ("0",),
    )
    v = is_actual_cause_hp(m, u11, parse_formula("BT=1", m.sig), bs1)
    check("rock-throwing/billy", "BT=1 does not cause BS=1 at U=u11", not v.is_cause)

    mc = chain_copy_model()
    u0 = parse_context("U=0", mc.sig)
    phi = parse_formula("(X!=0 ~> Y=1) & (X!=0 ~> Y=2)", mc.sig)
    check(
        "chain-copy/divergent-counterfactuals",
        "both nonzero-antecedent counterfactuals hold at U=0",
        mc.evaluate(u0, phi),
    )

    m2, actual = backtracking_structure()
    setting = CfSetting(m2, actual)
    bt1 = parse_formula("BT=1", m2.sig)
    v = is_actual_cause_abstract(setting, bt1, bs1, conj_language())
    check(
        "backtracking/unpinned",
        "BT=1 causes BS=1 in the backtracking structure (conjunctive witnesses)",
        v.is_cause,
    )
    pinned = conj_language(pins=[ExoEvent("U", "u11")])
    v = is_actual_cause_abstract(setting, bt1, bs1, pinned)
    check(
        "backtracking/pinned",
        "with the context pinned to U=u11, BT=1 no longer causes BS=1",
        not v.is_cause,
    )

    mt = three_context_model()
    both = parse_formula("ST=1 & BT=1", mt.sig)
    st1 = parse_formula("ST=1", mt.sig)
    bt1m = parse_formula("BT=1", mt.sig)
    bs1m = parse_formula("BS=1", mt.sig)

    def K(*names):
        return [parse_context(f"U={n}", mt.sig) for n in names]

    v = is_explanation_hp(mt, K("u111", "u112", "u101"), both, bs1m)
    check(
        "explanation/K1",
        "ST=1 & BT=1 is a nontrivial explanation of BS=1 relative to {u111, u112, u101}",
        v.is_explanation and v.nontrivial,
    )
    v = is_explanation_hp(mt, K("u111", "u112"), both, bs1m)
    check(
        "explanation/K2",
        "relative to {u111, u112} it is an explanation but a trivial one",
        v.is_explanation and not v.nontrivial,
    )
    K3 = K("u003", "u103", "u013", "u113")
    va = is_explanation_hp(mt, K3, st1, bs1m)
    vb = is_explanation_hp(mt, K3, bt1m, bs1m)
    vc = is_explanation_hp(mt, K3, both, bs1m)
    check(
        "explanation/K3",
        "each throw alone explains BS=1 relative to K3; the conjunction fails minimality",
        va.is_explanation and vb.is_explanation and not vc.is_explanation and not vc.ex2,
    )

    mb = bomb_model()
    ub = parse_context("Ur=1, Uc=c3", mb.sig)
    run1 = parse_formula("Run=1", mb.sig)
    boom = parse_formula("Explode=1", mb.sig)
    v = is_actual_cause_hp(mb, ub, run1, boom)
    check("bomb/interventionist", "running away causes the explosion under AC1-3", v.is_cause)
    ignorant, knowing = bomb_structures()
    v = is_actual_cause_abstract(CfSetting(ignorant, "s"), run1, boom, conj_language())
    check(
        "bomb/ignorant",
        "if the closest not-running state enters a wrong combination, running is not a cause",
        not v.is_cause,
    )
    v = is_actual_cause_abstract(CfSetting(knowing, "s"), run1, boom, conj_language())
    check(
        "bomb/knowing",
        "if the closest not-running state enters the secret combination, running is a cause",
        v.is_cause,
    )

    m3 = chain3_model()
    u1 = parse_context("U=1", m3.sig)
    s3 = CausalSetting(m3, u1)
    c1 = parse_formula("C=1", m3.sig)
    lang = gen_language(1)
    degenerate = True
    actual = m3.solve(u1)
    events = [f"{x}={actual[x]}" for x in m3.sig.endo_names]
    for size in range(1, len(events) + 1):
        for combo in itertools.combinations(events, size):
            cand = parse_formula(" & ".join(combo), m3.sig)
            if not is_actual_cause_abstract(s3, cand, c1, lang).ac2:
                degenerate = False
    check(
        "degeneracy/disjunctive-witnesses",
        "with two-literal disjunctions as witnesses, every true conjunction passes the "
        "counterfactual condition for C=1",
        degenerate,
    )

    return results
