import itertools

import pytest

from causact.formula import (
    And,
    BoxArrow,
    ExoEvent,
    FormulaError,
    Intervene,
    Not,
    Or,
    PrimEvent,
    conjoin,
    evaluate_prop,
    free_endogenous,
    parse_formula,
    variables_of,
)
from causact.harness import (
    DEFAULT_CAPS,
    FuzzCaps,
    gen_random_model,
    random_context,
    random_prop_formula,
    trial_rng,
)
from causact import abstract, explanation, hp
from causact.abstract import CausalSetting, conj_language, conj_neg_language
from causact.explanation import is_explanation_hp
from causact.hp import is_actual_cause_hp
from causact.model import (
    CausalModel,
    ModelError,
    model_to_text,
    parse_context,
    parse_model,
)
from causact.corpus import CHAIN_COPY, ROCK_THROWING


@pytest.fixture(scope="module")
def rt():
    return parse_model(ROCK_THROWING)


@pytest.fixture(scope="module")
def chain():
    return parse_model(CHAIN_COPY)


class TestParsing:
    def test_names_and_ranges(self, rt):
        assert rt.sig.exo_names == ("U",)
        assert rt.sig.endo_names == ("ST", "BT", "SH", "BH", "BS")
        assert rt.sig.range_of("U") == ("u00", "u01", "u10", "u11")

    def test_serialize_round_trip(self, rt):
        text = model_to_text(rt)
        again = parse_model(text)
        assert model_to_text(again) == text
        for u in rt.sig.assignments(rt.sig.exo_names):
            assert again.solve(u) == rt.solve(u)

    def test_missing_equation_rejected(self):
        with pytest.raises(ModelError):
            parse_model(
                "model m\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar Y : { 0, 1 }\n"
                "eq X = case { U=1 : 1 ; default: 0 }\n"
            )

    def test_cyclic_model_rejected(self):
        with pytest.raises(ModelError) as exc:
            parse_model(
                "model m\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar Y : { 0, 1 }\n"
                "eq X = case { Y=1 : 1 ; default: 0 }\n"
                "eq Y = case { X=1 : 1 ; default: 0 }\n"
            )
        assert "cycl" in str(exc.value).lower() or "cycle" in str(exc.value).lower()

    def test_self_reference_rejected(self):
        with pytest.raises(ModelError):
            parse_model(
                "model m\nexo U : { 0 }\nvar X : { 0, 1 }\n"
                "eq X = case { X=0 : 1 ; default: 0 }\n"
            )

    def test_vacuous_mention_is_not_a_dependency(self):
        # Y syntactically mentions Z but the value never varies with it
        m = parse_model(
            "model m\nexo U : { 0, 1 }\nvar Y : { 0, 1 }\nvar Z : { 0, 1 }\n"
            "eq Y = case { Z=0 | Z=1 : 1 ; default: 0 }\n"
            "eq Z = case { U=1 : 1 ; default: 0 }\n"
        )
        assert "Z" not in m.parents["Y"]
        assert m.solve({"U": "0"})["Y"] == "1"

    def test_out_of_range_equation_value_rejected(self):
        with pytest.raises(ModelError):
            parse_model(
                "model m\nexo U : { 0 }\nvar X : { 0, 1 }\n"
                "eq X = case { U=0 : 2 ; default: 0 }\n"
            )

    def test_value_that_is_not_a_token_rejected(self):
        # no formula could name the value "a b"
        with pytest.raises(ModelError, match="not an identifier or a number"):
            parse_model("model m\nexo U : { 0 }\nvar X : { a b, c }\neq X = case { default: c }\n")


    @pytest.mark.parametrize(
        "text",
        [
            "model m\nexo U : { 0 }\nvar : { 0, 1 }\neq  = case { default: 0 }\n",
            "model m\nexo : { 0 }\nvar X : { 0, 1 }\neq X = case { default: 0 }\n",
            "model m\nexo U : { 0 }\nvar X : { 0, 1 }\neq  = case { default: 0 }\n",
            "model m\nexo U : { 0 }\nvar X-1 : { 0, 1 }\neq X-1 = case { default: 0 }\n",
        ],
        ids=["empty-var-and-eq", "empty-exo", "empty-eq", "not-an-identifier"],
    )
    def test_declaration_needs_a_variable_name(self, text):
        with pytest.raises(ModelError, match="expected a variable name"):
            parse_model(text)


class TestSolve:
    def test_both_throw(self, rt):
        assert rt.solve({"U": "u11"}) == {
            "U": "u11", "ST": "1", "BT": "1", "SH": "1", "BH": "0", "BS": "1",
        }

    def test_billy_only(self, rt):
        assert rt.solve({"U": "u01"}) == {
            "U": "u01", "ST": "0", "BT": "1", "SH": "0", "BH": "1", "BS": "1",
        }

    def test_nobody(self, rt):
        sol = rt.solve({"U": "u00"})
        assert all(sol[v] == "0" for v in rt.sig.endo_names)

    def test_intervention_changes_downstream_only(self, rt):
        sol = rt.solve({"U": "u11"}, {"ST": "0"})
        assert sol["ST"] == "0" and sol["BT"] == "1"
        assert sol["SH"] == "0" and sol["BH"] == "1" and sol["BS"] == "1"

    def test_partial_context_rejected(self, rt):
        with pytest.raises(ModelError):
            rt.solve({})

    def test_out_of_range_context_rejected(self, rt):
        with pytest.raises(ModelError):
            rt.solve({"U": "u99"})

    def test_validate_recursive_gives_topological_order(self, rt):
        order = rt.topo_order
        assert sorted(order) == sorted(rt.sig.endo_names)
        pos = {v: i for i, v in enumerate(order)}
        for x in rt.sig.endo_names:
            for p in rt.parents[x]:
                if rt.sig.is_endogenous(p):
                    assert pos[p] < pos[x]


class TestEvaluate:
    def test_events_and_connectives(self, rt):
        u = {"U": "u11"}
        assert rt.evaluate(u, parse_formula("ST=1 & BH=0", rt.sig))
        assert rt.evaluate(u, parse_formula("U=u11", rt.sig))
        assert not rt.evaluate(u, parse_formula("BH=1 | BS=0", rt.sig))

    def test_intervention_formula(self, rt):
        u = {"U": "u11"}
        assert rt.evaluate(u, parse_formula("[ST<-0] BS=1", rt.sig))
        assert rt.evaluate(u, parse_formula("[ST<-0, BH<-0] BS=0", rt.sig))

    def test_nested_interventions_rejected(self, rt):
        with pytest.raises((FormulaError, ModelError)):
            rt.evaluate({"U": "u11"}, parse_formula("[ST<-0] [ST<-1] SH=1", rt.sig))

    def test_counterfactual_with_event_antecedent(self, rt):
        # with an event-conjunction antecedent the counterfactual is the
        # corresponding intervention
        u = {"U": "u11"}
        assert rt.evaluate(u, parse_formula("(ST=0 & BH=0) ~> (BS=0)", rt.sig))
        assert rt.evaluate(u, parse_formula("(ST=0) ~> (BS=1)", rt.sig))

    def test_counterfactual_negated_antecedent_is_existential(self, chain):
        # X!=0 can be realized by X=1 or X=2; each choice is tried
        u = {"U": "0"}
        assert chain.evaluate(u, parse_formula("(X!=0) ~> (Y=1)", chain.sig))
        assert chain.evaluate(u, parse_formula("(X!=0) ~> (Y=2)", chain.sig))
        assert not chain.evaluate(u, parse_formula("(X!=0) ~> (Y=0)", chain.sig))

    def test_counterfactual_inconsistent_antecedent_false(self, chain):
        u = {"U": "0"}
        assert not chain.evaluate(u, parse_formula("(X=1 & X=2) ~> (Y=1)", chain.sig))

    def test_counterfactual_exogenous_antecedent(self, chain):
        # no endogenous variables to set: the antecedent only needs to be
        # propositionally consistent, and the consequent is evaluated at
        # the actual context
        u = {"U": "0"}
        assert chain.evaluate(u, parse_formula("(U=0) ~> (Y=0)", chain.sig))
        assert chain.evaluate(u, parse_formula("(U=1) ~> (Y=0)", chain.sig))
        assert not chain.evaluate(u, parse_formula("(U=0 & U=1) ~> (Y=0)", chain.sig))

    def test_nested_boxarrow_rejected(self, rt):
        with pytest.raises((FormulaError, ModelError)):
            rt.evaluate({"U": "u11"}, parse_formula("((ST=1) ~> (BS=1)) ~> (BS=1)", rt.sig))


def _evaluates(text):
    return lambda m: m.evaluate({"U": "u11"}, parse_formula(text, m.sig))


def _intervenes(assignments):
    return lambda m: m.evaluate({"U": "u11"}, Intervene(assignments, PrimEvent("BS", "1")))


@pytest.mark.parametrize(
    "call, message",
    [
        (_evaluates("(ST=1) ~> ((ST=0) ~> (BS=1))"),
         "nested counterfactuals are not evaluable in causal models"),
        (_evaluates("((ST=1) ~> (BS=1)) ~> (BS=1)"), "box-arrow antecedents must be propositional"),
        (_evaluates("([ST<-1] BS=1) ~> (BS=1)"), "box-arrow antecedents must be propositional"),
        (_evaluates("[ST<-1] [BT<-0] BS=1"), "intervention bodies must be propositional"),
        (_evaluates("[ST<-1] ((BT=1) ~> (BS=1))"), "intervention bodies must be propositional"),
        (_intervenes((("U", "u11"),)), "cannot intervene on U: not endogenous"),
        (_intervenes((("ST", "7"),)), "value '7' outside the range of ST"),
        (lambda m: evaluate_prop(BoxArrow(PrimEvent("ST", "1"), PrimEvent("BS", "1")), m.solve({"U": "u11"})),
         "formula is not propositional: contains BoxArrow"),
    ],
    ids=[
        "nested-boxarrow-in-consequent",
        "boxarrow-in-antecedent",
        "intervention-in-antecedent",
        "intervention-in-intervention-body",
        "boxarrow-in-intervention-body",
        "exogenous-intervention-target",
        "out-of-range-intervention-value",
        "evaluate-prop-without-modal-hook",
    ],
)
def test_rejection_messages(rt, call, message):
    with pytest.raises(FormulaError) as exc:
        call(rt)
    assert str(exc.value) == message


def test_top_level_boxarrow_solves_only_its_consequents(monkeypatch):
    # (ST=0) ~> (BS=1) tries the one vector ST=0, so its consequent is the
    # only formula solved for; the box-arrow itself needs no solution.
    m = parse_model(ROCK_THROWING)
    calls = []
    solve = m._solve
    monkeypatch.setattr(m, "_solve", lambda u, inter: calls.append(inter) or solve(u, inter))
    assert m.evaluate({"U": "u11"}, parse_formula("(ST=0) ~> (BS=1)", m.sig))
    assert calls == [{"ST": "0"}]


def test_each_query_validates_its_context_once(monkeypatch):
    # the box-arrow solves for each of the three vectors it tries; those
    # solves take the context the query has already validated
    m = parse_model(ROCK_THROWING)
    calls = []
    validate = m.validate_context
    monkeypatch.setattr(m, "validate_context", lambda u: calls.append(u) or validate(u))
    assert not m.evaluate({"U": "u11"}, parse_formula("(ST=0 | BT=0) ~> (BS=1 & BS=0)", m.sig))
    assert len(calls) == 1
    with pytest.raises(ModelError, match="outside the range of U"):
        m.solve({"U": "u99"})


class TestContextParsing:
    def test_single(self, rt):
        assert parse_context("U=u11", rt.sig) == {"U": "u11"}

    def test_multi_exogenous(self):
        m = parse_model(
            "model m\nexo A : { 0, 1 }\nexo B : { 0, 1 }\nvar X : { 0 }\n"
            "eq X = case { default: 0 }\n"
        )
        assert parse_context("A=1, B=0", m.sig) == {"A": "1", "B": "0"}
        assert parse_context("A=1 & B=0", m.sig) == {"A": "1", "B": "0"}

    def test_incomplete_rejected(self):
        m = parse_model(
            "model m\nexo A : { 0, 1 }\nexo B : { 0, 1 }\nvar X : { 0 }\n"
            "eq X = case { default: 0 }\n"
        )
        with pytest.raises((ModelError, FormulaError)):
            parse_context("A=1", m.sig)

    def test_endogenous_assignment_rejected(self, rt):
        with pytest.raises((ModelError, FormulaError)):
            parse_context("ST=1", rt.sig)


def _brute_boxarrow(m, u, ant, cons):
    """Reference reading of ant ~> cons: every value vector over the
    antecedent's endogenous variables, kept when some exogenous completion
    satisfies the antecedent."""
    ys = [n for n in m.sig.endo_names if n in free_endogenous(ant)]
    exo = [n for n in m.sig.exo_names if n in variables_of(ant)]
    for values in itertools.product(*(m.sig.range_of(n) for n in ys)):
        fixed = dict(zip(ys, values))
        consistent = any(
            evaluate_prop(ant, {**fixed, **dict(zip(exo, ev))})
            for ev in itertools.product(*(m.sig.range_of(n) for n in exo))
        )
        if consistent and evaluate_prop(cons, m.solve(u, fixed)):
            return True
    return False


def _random_antecedent(m, rng):
    """A conjunction (sometimes a disjunction of two) of endogenous events,
    X!=x literals, disjunctions, negated conjunctions and exogenous atoms."""

    def event():
        v = rng.choice(m.sig.endo_names)
        return PrimEvent(v, rng.choice(m.sig.range_of(v)))

    def part():
        kind = rng.choice(["event", "event", "neq", "neq", "or", "not-and", "exo"])
        if kind == "event":
            return event()
        if kind == "neq":
            return Not(event())
        if kind == "or":
            return Or(event(), rng.choice([event(), Not(event())]))
        if kind == "not-and":
            return Not(And(event(), event()))
        v = rng.choice(m.sig.exo_names)
        atom = ExoEvent(v, rng.choice(m.sig.range_of(v)))
        return rng.choice([atom, Not(atom)])

    def conj():
        return conjoin([part() for _ in range(rng.randint(1, 4))])

    return Or(conj(), conj()) if rng.random() < 0.15 else conj()


class TestBoxArrowAgainstBruteForce:
    @pytest.mark.parametrize(
        "caps, seed", [(DEFAULT_CAPS, 3), (FuzzCaps(max_domain=4), 4)], ids=["default", "domain4"]
    )
    def test_matches_full_product(self, caps, seed):
        outcomes = set()
        for i in range(40):
            rng = trial_rng(seed, i)
            m = gen_random_model(caps, rng)
            u = random_context(m, rng)
            for _ in range(10):
                ant = _random_antecedent(m, rng)
                cons = random_prop_formula(m, rng, 2)
                expected = _brute_boxarrow(m, u, ant, cons)
                assert m.evaluate(u, BoxArrow(ant, cons)) == expected, (i, str(ant), str(cons))
                outcomes.add(expected)
        assert outcomes == {True, False}


def _row_value(eq, asgn):
    """An equation's value read straight off its rows: the first guard that
    holds wins, the default covers the rest."""
    return next((v for g, v in eq.rows if evaluate_prop(g, asgn)), eq.default)


def _ref_parents(m, x):
    """The variables mentioned in x's guards on which x's value varies: some
    assignment of the mentioned variables and another value of one of them
    give x a different value."""
    eq = m.equations[x]
    mentioned = set().union(*(variables_of(g) for g, _ in eq.rows))
    names = [n for n in m.sig.all_names() if n in mentioned]
    parents = []
    for z in names:
        for asgn in m.sig.assignments(names):
            if any(_row_value(eq, {**asgn, z: v}) != _row_value(eq, asgn) for v in m.sig.range_of(z)):
                parents.append(z)
                break
    return tuple(parents)


def _ref_solution(m, u, inter):
    """The unique assignment that agrees with u and `inter` and satisfies
    every equation not intervened on."""
    found = []
    for endo in m.sig.assignments(m.sig.endo_names):
        asgn = {**u, **endo}
        if all(asgn[x] == inter[x] if x in inter else asgn[x] == _row_value(m.equations[x], asgn)
               for x in m.sig.endo_names):
            found.append(asgn)
    assert len(found) == 1
    return found[0]


def _random_model_text(rng):
    """A recursive model whose guards mix real dependencies on earlier
    variables with vacuous mentions (X=v | !X=v) of later ones; some ranges
    have a single value."""
    exo = [f"U{i}" for i in range(rng.randint(1, 2))]
    endo = [f"V{i}" for i in range(rng.randint(1, 4))]
    dom = {n: [str(k) for k in range(rng.choice([1, 2, 2, 3]))] for n in exo + endo}

    def event(pool):
        n = rng.choice(pool)
        return f"{n}={rng.choice(dom[n])}"

    lines = ["model gen"]
    lines += [f"exo {n} : {{ {', '.join(dom[n])} }}" for n in exo]
    lines += [f"var {n} : {{ {', '.join(dom[n])} }}" for n in endo]
    for i, x in enumerate(endo):
        up, later = exo + endo[:i], endo[i + 1 :]
        rows = []
        for _ in range(rng.randint(0, 3)):
            guard = rng.choice(["{}", "!{}", "({} & {})", "({} | {})"]).format(event(up), event(up))
            if later and rng.random() < 0.5:
                w = event(later)
                guard = f"({guard} & ({w} | !{w}))"
            rows.append(f"{guard} : {rng.choice(dom[x])} ; ")
        lines.append(f"eq {x} = case {{ {''.join(rows)}default : {rng.choice(dom[x])} }}")
    return "\n".join(lines) + "\n"


def _ref_compile(m):
    """The reference tabulation: every assignment of the variables x's
    guards mention, in `itertools.product` order, reads its value off the
    rows with `evaluate_prop`; the parents are the positions where two keys
    that differ only there map to different values, and the table is
    re-keyed over them."""
    tables, parents = {}, {}
    for x, eq in m.equations.items():
        mentioned = set().union(*(variables_of(g) for g, _ in eq.rows))
        order = [n for n in m.sig.all_names() if n in mentioned]
        table = {
            values: _row_value(eq, dict(zip(order, values)))
            for values in itertools.product(*(m.sig.range_of(n) for n in order))
        }
        keep = []
        for i in range(len(order)):
            seen = {}
            if any(seen.setdefault(k[:i] + k[i + 1 :], v) != v for k, v in table.items()):
                keep.append(i)
        parents[x] = tuple(order[i] for i in keep)
        tables[x] = {tuple(k[i] for i in keep): v for k, v in table.items()}
    return tables, {x: parents[x] for x in m.sig.endo_names}


def _table_model_text(rng, n_parents, kind):
    """A model whose last variable Y has a decision table over n_parents
    earlier variables: `full` has one row per assignment of binary parents;
    `overlap` has random guards of one to three literals that overlap, so
    row order decides; `connectives` mixes `true`, `false`, `!` and `|`;
    `narrow` gives some variables a single value."""
    names = [f"P{i}" for i in range(n_parents)]
    width = {n: 1 if kind == "narrow" and rng.random() < 0.4 else rng.choice([2, 2, 3]) for n in names}
    if kind == "full":
        width = dict.fromkeys(names, 2)
    dom = {n: [str(k) for k in range(width[n])] for n in names}
    lit = lambda n: f"{n}{rng.choice(['=', '!='])}{rng.choice(dom[n])}"
    if kind == "full":
        guards = [" & ".join(f"{n}={v}" for n, v in zip(names, vals)) for vals in itertools.product("01", repeat=n_parents)]
    elif kind == "overlap":
        guards = [" & ".join(lit(n) for n in rng.sample(names, rng.randint(1, 3))) for _ in range(12)]
    else:
        atoms = lambda: rng.choice(["true", "false"]) if rng.random() < 0.2 else lit(rng.choice(names))
        guards = [
            rng.choice(["{} | {}", "!({} & {})", "!{} & {}", "({} | {}) & !{}"]).format(atoms(), atoms(), atoms())
            for _ in range(8)
        ]
    rows = " ; ".join(f"{g} : {rng.choice('012')}" for g in guards)
    lines = ["model table", "exo U : { 0, 1 }"]
    lines += [f"var {n} : {{ {', '.join(dom[n])} }}" for n in names]
    lines += ["var Y : { 0, 1, 2 }"]
    lines += [f"eq {n} = case {{ U=1 : {dom[n][-1]} ; default : 0 }}" for n in names]
    lines += [f"eq Y = case {{ {rows} ; default : {rng.choice('012')} }}"]
    return "\n".join(lines) + "\n"


class TestEquationsAgainstReference:
    @pytest.mark.parametrize(
        "kind, n_parents, trials",
        [("full", 8, 2), ("full", 9, 1), ("full", 10, 1), ("overlap", 6, 20), ("connectives", 5, 30), ("narrow", 6, 20)],
    )
    def test_tables_match_the_reference_tabulation(self, kind, n_parents, trials):
        for i in range(trials):
            m = parse_model(_table_model_text(trial_rng(n_parents, i), n_parents, kind))
            assert (m._tables, m.parents) == _ref_compile(m), (kind, i)

    def test_a_guard_of_2000_literals_compiles(self):
        # the guard is a left-nested chain of 2000 conjunctions; it holds
        # where A=1, B=0 and C!=2
        guard = " & ".join(["A=1", "B=0", "C!=2", "A!=0"] * 500)
        m = parse_model(
            "model deep\nexo U : { 0, 1 }\nvar A : { 0, 1 }\nvar B : { 0, 1 }\nvar C : { 0, 1, 2 }\n"
            "var Y : { 0, 1 }\neq A = case { U=1 : 1 ; default : 0 }\neq B = case { default : 0 }\n"
            f"eq C = case {{ default : 1 }}\neq Y = case {{ {guard} : 1 ; default : 0 }}\n"
        )
        assert m.parents["Y"] == ("A", "B", "C")
        assert m._tables["Y"] == {
            (a, b, c): "1" if (a, b) == ("1", "0") and c != "2" else "0"
            for a, b, c in itertools.product("01", "01", "012")
        }
        assert m.solve({"U": "1"})["Y"] == "1"

    def test_parents_solutions_and_order(self):
        vacuous = 0
        for i in range(150):
            rng = trial_rng(21, i)
            m = parse_model(_random_model_text(rng))
            endo = m.sig.endo_names
            assert list(m.parents) == list(endo)
            for x in endo:
                assert m.parents[x] == _ref_parents(m, x), (i, x)
                mentioned = set().union(*(variables_of(g) for g, _ in m.equations[x].rows))
                vacuous += bool(mentioned - set(m.parents[x]))
            assert sorted(m.topo_order) == sorted(endo)
            pos = {x: k for k, x in enumerate(m.topo_order)}
            assert all(pos[p] < pos[x] for x in endo for p in m.parents[x] if p in pos)
            for u in m.sig.assignments(m.sig.exo_names):
                for _ in range(3):
                    inter = {x: rng.choice(m.sig.range_of(x)) for x in endo if rng.random() < 0.3}
                    assert m.solve(u, inter) == _ref_solution(m, u, inter), (i, u, inter)
        assert vacuous > 50

    def test_topological_order_takes_the_first_ready_variable(self):
        # A waits for C, and C for B; D's mention of A is vacuous
        m = parse_model(
            "model m\nexo U : { 0, 1 }\n"
            "var A : { 0, 1 }\nvar B : { 0, 1 }\nvar C : { 0, 1 }\nvar D : { 0, 1 }\n"
            "eq A = case { C=1 : 1 ; default: 0 }\n"
            "eq B = case { U=1 : 1 ; default: 0 }\n"
            "eq C = case { B=1 : 1 ; default: 0 }\n"
            "eq D = case { (A=0 | A=1) & U=1 : 1 ; default: 0 }\n"
        )
        assert m.parents == {"A": ("C",), "B": ("U",), "C": ("B",), "D": ("U",)}
        assert m.topo_order == ("B", "C", "A", "D")

    def test_three_cycle_is_named_from_the_first_stuck_variable(self):
        # D is stuck behind the cycle; the walk starts at D and reports the
        # cycle it reaches
        with pytest.raises(ModelError) as exc:
            parse_model(
                "model m\nexo U : { 0, 1 }\n"
                "var D : { 0, 1 }\nvar X : { 0, 1 }\nvar Y : { 0, 1 }\nvar Z : { 0, 1 }\n"
                "eq D = case { X=1 : 1 ; default: 0 }\n"
                "eq X = case { Z=1 : 1 ; default: 0 }\n"
                "eq Y = case { X=1 : 1 ; default: 0 }\n"
                "eq Z = case { Y=1 | U=1 : 1 ; default: 0 }\n"
            )
        assert str(exc.value) == "cyclic dependency: X -> Z -> Y -> X"


class TestRelevantVariables:
    """`relevant(moved, targets)`: the variables outside `moved` that
    descend from it and are, or are ancestors of, a target."""

    def test_rock_throwing(self, rt):
        assert rt.relevant(["ST"], ["BS"]) == {"SH", "BH", "BS"}
        assert rt.relevant(["BH"], ["BS"]) == {"BS"}
        assert rt.relevant(["BS"], ["ST"]) == set()

    def test_fork(self):
        m = parse_model(
            "model fork\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar A : { 0, 1 }\nvar B : { 0, 1 }\n"
            "eq X = case { U=1 : 1 ; default: 0 }\n"
            "eq A = case { X=1 : 1 ; default: 0 }\neq B = case { X=1 : 1 ; default: 0 }\n"
        )
        assert m.relevant(["X"], ["A"]) == {"A"}
        assert m.relevant(["X"], ["A", "B"]) == {"A", "B"}
        assert m.relevant(["A"], ["B"]) == set()

    def test_chain(self):
        m = parse_model(
            "model chain\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar Y : { 0, 1 }\nvar Z : { 0, 1 }\n"
            "eq X = case { U=1 : 1 ; default: 0 }\n"
            "eq Y = case { X=1 : 1 ; default: 0 }\neq Z = case { Y=1 : 1 ; default: 0 }\n"
        )
        assert m.relevant(["X"], ["Z"]) == {"Y", "Z"}
        assert m.relevant(["Y"], ["Z"]) == {"Z"}
        assert m.relevant(["X"], ["Y"]) == {"Y"}
        assert m.relevant(["Z"], ["X"]) == set()


# X -> M -> E with eight side variables: S1..S4 do not descend from X (S1
# is a parent of E), D1..D4 descend from M but reach nothing.  At U=1, S1=1
# holds E at 1 whatever X does, so both searches fail and try all they try.
SIDE_VARIABLES = (
    "model side\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar M : { 0, 1 }\n"
    + "".join(f"var S{i} : {{ 0, 1 }}\nvar D{i} : {{ 0, 1 }}\n" for i in range(1, 5))
    + "var E : { 0, 1 }\n"
    "eq X = case { U=1 : 1 ; default: 0 }\neq M = case { X=1 : 1 ; default: 0 }\n"
    + "".join(f"eq S{i} = case {{ U=1 : 1 ; default: 0 }}\neq D{i} = case {{ M=1 : 1 ; default: 0 }}\n"
              for i in range(1, 5))
    + "eq E = case { M=1 : 1 ; S1=1 : 1 ; default: 0 }\n"
)


class TestSearchesStayRelevant:
    """Both AC2 searches do work exponential in the relevant variables R
    only, not in all endogenous variables: a return to the exhaustive walk
    (2^10 witness sets, 2^11 members here) fails these bounds."""

    @pytest.fixture
    def side(self):
        m = parse_model(SIDE_VARIABLES)
        assert m.relevant(["X"], ["E"]) == {"M", "E"}
        return m

    def test_hp_search_evaluates_only_relevant_witness_sets(self, side, monkeypatch):
        calls = []
        evaluate = CausalModel._eval
        monkeypatch.setattr(CausalModel, "_eval", lambda m, *a: calls.append(a) or evaluate(m, *a))
        cause, effect = parse_formula("X=1", side.sig), parse_formula("E=1", side.sig)
        for first_only in (False, True):
            calls.clear()
            assert hp._ac2_search(side, {"U": "1"}, [("X", "1")], effect, first_only) == []
            assert 0 < len(calls) <= 2**2 * 1  # 2^|R| sets W, one x'
        assert not is_actual_cause_hp(side, {"U": "1"}, cause, effect).ac2

    def test_abstract_search_tries_only_relevant_members(self, side, monkeypatch):
        calls = []
        search = CausalModel.boxarrow_search
        monkeypatch.setattr(CausalModel, "boxarrow_search", lambda m, *a: calls.append(a) or search(m, *a))
        setting = CausalSetting(side, {"U": "1"})
        cause, effect = parse_formula("X=1", side.sig), parse_formula("E=1", side.sig)
        for lang in (conj_language(), conj_neg_language()):
            calls.clear()
            assert abstract._ac2_at_context(setting, cause, effect, lang) is None
            assert 0 < len(calls) <= 2**2  # one search per member over R

    def test_explanation_extends_conjuncts_by_ancestors_only(self, side, monkeypatch):
        # E depends on M and S1 only, so a conjunct is extended by X, M, S1
        # and E: at most 2^5 cause sets, where every other variable would
        # give 2^11
        ancestors = {"X", "M", "S1", "E"}
        assert side.ancestors(["E"]) - {"U"} == ancestors
        calls = []
        search = hp._ac2_search

        def record(m, u, pairs, *args, **kwargs):
            calls.append({v for v, _ in pairs})
            return search(m, u, pairs, *args, **kwargs)

        monkeypatch.setattr(hp, "_ac2_search", record)  # a single event's, through its cause check
        monkeypatch.setattr(explanation, "_ac2_search", record)
        effect = parse_formula("E=1", side.sig)
        for cand, cert in [("X=1", {"conjunct": "X=1", "augmented_with": {"S1": "1"}}), ("D1=1", None)]:
            calls.clear()
            v = is_explanation_hp(side, [{"U": "1"}], parse_formula(cand, side.sig), effect)
            assert v.certificates == {0: cert}
            conjunct = {cand.split("=")[0]}
            assert 0 < len(calls) < 2**5 and all(vs - conjunct <= ancestors for vs in calls), calls
