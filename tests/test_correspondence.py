import gc
import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from causact.formula import parse_formula
from causact import correspondence, structure
from causact.cli import main
from causact.model import parse_model
from causact.structure import (
    CfStructure,
    ClosenessOrder,
    RelationOrder,
    StructureError,
    TierOrder,
    structure_to_text,
    validate_structure,
)
from causact.correspondence import (
    CorrespondenceError,
    CounterpartOrder,
    build_counterpart,
    check_correspondence,
    compatible,
    compatible_K,
    endo_depths,
    state_space_size,
    strongly_consistent,
)
from causact.corpus import CHAIN_COPY, ROCK_THROWING, backtracking_structure
from causact.harness import (
    DEFAULT_CAPS,
    FuzzCaps,
    gen_random_model,
    random_context,
    trial_rng,
)


@pytest.fixture(scope="module")
def rt():
    return parse_model(ROCK_THROWING)


@pytest.fixture(scope="module")
def rt_counterpart(rt):
    return build_counterpart(rt)


class TestBuilder:
    def test_state_count(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        assert state_space_size(rt) == 128
        assert len(m2.states) == 128

    def test_context_state_matches_solution(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        for u in rt.sig.assignments(rt.sig.exo_names):
            assert m2.interp[ctx_state(u)] == rt.solve(u)

    def test_deterministic_state_ids(self, rt):
        a, _ = build_counterpart(rt)
        b, _ = build_counterpart(rt)
        assert a.states == b.states
        assert a.interp == b.interp

    def test_order_is_centered(self, rt_counterpart):
        m2, _ = rt_counterpart
        assert validate_structure(m2) == []

    def test_depths_follow_the_dag(self, rt):
        d = endo_depths(rt)
        assert d["ST"] == 0 and d["BT"] == 0
        assert d["SH"] == 1 and d["BH"] == 2 and d["BS"] == 3

    def test_rank_is_the_weighted_violation_cost(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        n = len(rt.sig.endo_names)
        depth = endo_depths(rt)

        def viol(a):
            return sum((n + 1) ** (n - depth[y]) for y in rt.sig.endo_names if a[y] != rt.equation_value(y, a))

        for s in m2.states[::9]:
            for t in m2.states:
                a, b = m2.interp[s], m2.interp[t]
                diffs = sum(a[u] != b[u] for u in rt.sig.exo_names)
                rank = m2.order.rank(s, t)
                assert rank == (int(s != t), diffs, viol(b))
                assert all(type(part) is int for part in rank)

    def test_violation_costs_stay_exact_past_int64(self):
        # Fifteen binary variables that all read only U: every weight is
        # 16^15, and a state breaking all fifteen equations costs more than
        # 2^63.
        names = [f"V{i}" for i in range(1, 16)]
        m = parse_model("\n".join(
            ["model flat", "exo U : { 0, 1 }"]
            + [f"var {v} : {{ 0, 1 }}" for v in names]
            + [f"eq {v} = case {{ U=1 : 1 ; default : 0 }}" for v in names]
        ))
        m2, _ = build_counterpart(m)
        assert len(m2.states) == 65536

        def viol(a):
            return sum(16 ** 15 for y in names if a[y] != m.equation_value(y, a))

        every_violation = 2**15 - 1  # U=0, every V=1
        for j in [0, every_violation, 2**16 - 1] + random.Random(0).sample(range(2**16), 200):
            cost = m2.order.viol[j]
            assert type(cost) is int
            assert cost == viol(m2.interp[m2.states[j]])
        assert m2.order.viol[every_violation] == 15 * 16**15 > 2**63

    def test_peak_memory_of_a_large_counterpart(self):
        # 65,536 states of fifteen binary variables: the builder makes the
        # value codes and no dict per state
        names = [f"V{i}" for i in range(1, 16)]
        m = parse_model("\n".join(
            ["model flat", "exo U : { 0, 1 }"]
            + [f"var {v} : {{ 0, 1 }}" for v in names]
            + [f"eq {v} = case {{ U=1 : 1 ; default : 0 }}" for v in names]
        ))
        gc.collect()
        tracemalloc.start()
        try:
            m2, _ = build_counterpart(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m2.states) == 65536
        assert peak < 50 * 10**6

    def test_strong_correspondence_of_a_large_counterpart(self):
        # 65,536 states of fifteen binary variables in two contexts: two
        # rank rows of 256 KiB where the rank matrix would take 16 GiB
        names = [f"V{i}" for i in range(1, 16)]
        m = parse_model("\n".join(
            ["model flat", "exo U : { 0, 1 }"]
            + [f"var {v} : {{ 0, 1 }}" for v in names]
            + [f"eq {v} = case {{ U=1 : 1 ; default : 0 }}" for v in names]
        ))
        m2, _ = build_counterpart(m)
        gc.collect()
        tracemalloc.start()
        try:
            report = check_correspondence(m2, m, strong=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        conjunctions = 3**15 - 1
        assert report.ok
        assert report.checked_psi_count == conjunctions + conjunctions * (conjunctions - 1) // 2
        assert m2.rank_rows[1].shape == (2, 65536)
        assert peak < 150 * 10**6

    def test_cap_enforced(self, rt):
        with pytest.raises(CorrespondenceError):
            build_counterpart(rt, state_cap=100)

    def test_intervention_counterfactuals_transfer(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        s = ctx_state({"U": "u11"})
        for text in [
            "(ST=0) ~> (BS=1)",
            "(ST=0 & BH=0) ~> (BS=0)",
            "(BT=0) ~> (BS=1)",
            "(ST=0 & BT=0) ~> (BS=0)",
        ]:
            phi = parse_formula(text, rt.sig)
            assert m2.satisfies_at(s, phi) == rt.evaluate({"U": "u11"}, phi), text

    def test_closest_states_do_not_backtrack(self, rt, rt_counterpart):
        # the exogenous part is preserved in the closest antecedent states
        m2, ctx_state = rt_counterpart
        s = ctx_state({"U": "u11"})
        for t in m2.closest_states(s, parse_formula("ST=0", rt.sig)):
            assert m2.interp[t]["U"] == "u11"


class TestChecker:
    def test_counterpart_strongly_corresponds(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        report = check_correspondence(m2, rt, strong=True)
        assert report.ok
        assert report.condition_a.ok and report.condition_b.ok and report.condition_c.ok
        assert report.checked_psi_count > 200

    def test_strict_mode_flags_equation_violating_bases(self, rt, rt_counterpart):
        # at a state that itself breaks an equation while satisfying the
        # corresponding parent setting, centering contradicts the literal
        # reading, so the strict check must fail on the all-assignments space
        m2, _ = rt_counterpart
        report = check_correspondence(m2, rt, strict=True)
        assert not report.condition_a.ok

    def test_backtracking_structure_fails_strong_check(self, rt):
        m2, actual = backtracking_structure()
        report = check_correspondence(m2, rt, strong=True)
        assert not report.ok

    def test_missing_assignment_fails_condition_b(self, rt):
        chain = parse_model(CHAIN_COPY)
        m2, _ = build_counterpart(chain)
        interp = {s: dict(a) for s, a in m2.interp.items()}
        del interp["s0"]
        flat = {
            s: [frozenset({s}), frozenset(set(interp) - {s})] for s in interp
        }
        pruned = CfStructure(chain.sig, interp, TierOrder(flat))
        report = check_correspondence(pruned, chain, strong=True)
        assert report.condition_b is not None and not report.condition_b.ok

    def test_signature_mismatch_rejected(self, rt):
        chain = parse_model(CHAIN_COPY)
        m2, _ = build_counterpart(chain)
        with pytest.raises(CorrespondenceError):
            check_correspondence(m2, rt)


class TestLargeSignatures:
    def test_seventy_binary_variables(self):
        # Keys over all variables but one have 70 binary digits.  t0 and t1
        # differ only in U, whose digit would wrap to 0 in an int64 key,
        # merging their settings; no table may be sized by 2^70 either.
        names = [f"V{i}" for i in range(1, 71)]
        m = parse_model("\n".join(
            ["model wide", "exo U : { 0, 1 }"]
            + [f"var {v} : {{ 0, 1 }}" for v in names]
            + ["eq V1 = case { U=1 : 1 ; default : 0 }"]
            + [f"eq {v} = case {{ {p}=1 : 1 ; default : 0 }}" for p, v in zip(names, names[1:])]
        ))
        zero = {"U": "0", **{v: "0" for v in names}}
        interp = {"t0": zero, "t1": {**zero, "U": "1"}, "t2": {**zero, "U": "1", "V1": "1"}}
        tiers = {
            "t0": [frozenset({"t0"}), frozenset({"t1"}), frozenset({"t2"})],
            "t1": [frozenset({"t1"}), frozenset({"t0", "t2"})],
            "t2": [frozenset({"t2"}), frozenset({"t0", "t1"})],
        }
        m2 = CfStructure(m.sig, interp, TierOrder(tiers))
        m2.rank_rows
        start = time.perf_counter()
        report = check_correspondence(m2, m)
        assert time.perf_counter() - start < 0.5
        assert report.condition_a.counterexample == {
            "Y": "V1",
            "setting": {**{x: "0" for x in names[1:]}, "U": "1"},
            "base_state": "t0",
            "closest_state": "t1",
            "expected": "1",
            "got": "0",
        }
        _agrees(m2, m)
        _agrees(m2, m, strict=True)


class TestArrayBudget:
    # SIX_BINARY's counterpart has 256 states in 4 contexts: its rank rows
    # take 4 x 256 x 4 bytes (4 KiB), and condition (a) gathers 9 bytes per
    # state and row for each Y (9 KiB).  Its classes are all closed, so
    # condition (c) holds no lattice.  The flat tier order over the same
    # states has one rank row per state (256 KiB), and condition (c) holds
    # two conjunction lattices of 729 x 256 x 4 bytes (729 KiB each), one
    # suffix array as large and three boolean masks: 2.9 MiB at once.

    @pytest.fixture
    def six(self):
        m = parse_model(SIX_BINARY)
        return m, build_counterpart(m)[0]

    @staticmethod
    def flat(m2):
        order = TierOrder({s: [frozenset({s}), frozenset(m2.states) - {s}] for s in m2.states})
        return CfStructure(m2.sig, m2.interp, order)

    def test_lattice_over_the_budget(self, six, monkeypatch):
        # each lattice fits in 2 MiB; what condition (c) holds at once does not
        m, m2 = six
        flat = self.flat(m2)
        monkeypatch.setattr(structure, "_ARRAY_BUDGET", 2 << 20)
        with pytest.raises(CorrespondenceError, match="728 conjunctions and 256 rank rows exceeds the budget"):
            check_correspondence(flat, m, strong=True)
        assert not check_correspondence(flat, m).ok
        assert check_correspondence(m2, m, strong=True).ok

    def test_rank_matrix_over_the_budget(self, six, monkeypatch):
        # the tier order's rows are its rank matrix; the counterpart's are
        # one row per context
        m, m2 = six
        monkeypatch.setattr(structure, "_ARRAY_BUDGET", 2 << 10)
        with pytest.raises(StructureError, match="rank rows of 4 classes over 256 states exceed the budget"):
            check_correspondence(m2, m)
        monkeypatch.setattr(structure, "_ARRAY_BUDGET", 128 << 10)
        with pytest.raises(StructureError, match="rank rows of 256 classes over 256 states exceed the budget"):
            check_correspondence(self.flat(m2), m)
        assert check_correspondence(m2, m, strong=True).ok

    def test_condition_a_in_chunks(self, six, monkeypatch):
        # 16 KiB gathers one Y at a time; the first failure is the same
        m, m2 = six
        other = parse_model(SIX_BINARY.replace("eq F = case { E=1 : 1", "eq F = case { E=1 : 0"))
        whole = check_correspondence(m2, other).to_dict()
        assert whole["conditionA"]["counterexample"]["Y"] == "F"
        monkeypatch.setattr(structure, "_ARRAY_BUDGET", 16 << 10)
        assert check_correspondence(m2, other).to_dict() == whole

    def test_cli_exits_3(self, six, tmp_path, capsys, monkeypatch):
        model = tmp_path / "six.cm"
        model.write_text(SIX_BINARY)
        derived = str(tmp_path / "six.cfs")
        assert main(["build-cf", "-m", str(model), "-o", derived]) == 0
        tiers = tmp_path / "flat.cfs"
        tiers.write_text(structure_to_text(self.flat(six[1])))
        for path, budget, flag, message in [
            (str(tiers), 2 << 20, ["--strong"], "728 conjunctions and 256 rank rows exceeds the budget"),
            (derived, 2 << 10, [], "rank rows of 4 classes over 256 states exceed the budget"),
        ]:
            argv = ["check-correspondence", "-m", str(model), "-s", path] + flag
            monkeypatch.setattr(structure, "_ARRAY_BUDGET", budget)
            capsys.readouterr()
            assert main(argv) == 3
            assert message in capsys.readouterr().err
            monkeypatch.undo()
            assert main(argv) == 0


class TestConsistencyAndCompatibility:
    def test_strongly_consistent_at_matching_state(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        u = {"U": "u11"}
        assert strongly_consistent(m2, ctx_state(u), rt, u)

    def test_not_consistent_at_other_state(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        assert not strongly_consistent(m2, ctx_state({"U": "u00"}), rt, {"U": "u11"})

    def test_counterpart_is_compatible(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        assert compatible(rt, m2)

    def test_context_sets_compatibility(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        K = [{"U": "u11"}, {"U": "u01"}]
        K2 = [ctx_state(u) for u in K]
        assert compatible_K(rt, m2, K, K2)
        assert not compatible_K(rt, m2, K, K2[:1] + [ctx_state({"U": "u00"})])
        assert not compatible_K(rt, m2, K, K2[:1])

    def test_verdicts_belong_to_the_structure_checked(self):
        # Each round drops its structure before building the next, so the
        # new one often gets the old one's id; the two orders disagree on
        # strong correspondence.
        rng = trial_rng(3, 0)
        m = gen_random_model(DEFAULT_CAPS, rng)
        u = random_context(m, rng)
        built, ctx_state = build_counterpart(m)
        flat = TierOrder({s: [frozenset({s}), frozenset(built.states) - {s}] for s in built.states})
        orders = [built.order, flat]
        verdicts = set()
        for i in range(30):
            m2 = CfStructure(m.sig, built.interp, orders[i % 2])
            fresh = check_correspondence(m2, m, strong=True).ok
            assert compatible(m, m2) == fresh, i
            assert strongly_consistent(m2, ctx_state(u), m, u) == fresh, i
            verdicts.add(fresh)
            del m2
            gc.collect()
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The rank-matrix checker against the per-mask checker it replaced.  The
# reference decides condition (a) from `rank()` per base and group,
# and condition (c) by masking an n x n cost matrix for every psi.


def _ref_condition_a(m2, m, strict):
    sig = m.sig
    names = sig.all_names()
    for y in sig.endo_names:
        rest = [n for n in names if n != y]
        groups = {}
        for s in m2.states:
            groups.setdefault(tuple(m2.interp[s][n] for n in rest), []).append(s)
        for setting, candidates in groups.items():
            s_y = dict(zip(rest, setting))
            expected = m.equation_value(y, s_y)
            for s in m2.states:
                base = m2.interp[s]
                if not strict and all(base[n] == v for n, v in s_y.items()) and base[y] != expected:
                    continue
                ranks = [_ref_rank(m2, s, t) for t in candidates]
                for t, r in zip(candidates, ranks):
                    if r == min(ranks) and m2.interp[t][y] != expected:
                        return {
                            "ok": False,
                            "counterexample": {
                                "Y": y,
                                "setting": s_y,
                                "base_state": s,
                                "closest_state": t,
                                "expected": expected,
                                "got": m2.interp[t][y],
                            },
                        }
    return {"ok": True, "counterexample": None}


def _ref_rank(m2, s, t):
    """rank(s, t), with unranked states after every ranked one."""
    r = m2.order.rank(s, t)
    return (1, 0) if r is None else (0, r)


def _ref_rank_tuple(m2, s, t):
    r = m2.order.rank(s, t)
    if r is None:
        return (2, 0, 0)
    if isinstance(r, tuple) and len(r) == 3:
        return r
    return (0 if s == t else 1, 0, int(r))


def _ref_condition_c(m2, m):
    sig = m.sig
    states = list(m2.states)
    n = len(states)
    endo_vals = np.array(
        [[sig.range_of(v).index(m2.interp[s][v]) for v in sig.endo_names] for s in states]
    )
    exo_ids = np.array(
        [[sig.range_of(x).index(m2.interp[s][x]) for x in sig.exo_names] for s in states]
    )
    same_exo = (exo_ids[:, None, :] == exo_ids[None, :, :]).all(axis=2)
    cost = np.empty((n, n), dtype=np.int64)
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            a, b, c = _ref_rank_tuple(m2, s, t)
            cost[i, j] = (a * 64 + b) * (1 << 40) + c
    INF = np.int64(2**62)

    def violates(mask):
        if not mask.any():
            return None
        a = np.where(mask[None, :], cost, INF)
        min_same = np.where(same_exo, a, INF).min(axis=1)
        min_diff = np.where(~same_exo, a, INF).min(axis=1)
        bad = ~(min_same < min_diff) & (min_same < INF)
        nz = np.nonzero(bad)[0]
        return int(nz[0]) if nz.size else None

    def describe(combo):
        return " & ".join(f"{v}={w}" for v, w in zip(sig.endo_names, combo) if w is not None)

    def fail(psi, bad, checked):
        return {"ok": False, "counterexample": {"psi": psi, "base_state": states[bad]}}, checked

    checked = 0
    conj_masks = []
    options = [[None] + list(sig.range_of(v)) for v in sig.endo_names]
    for combo in itertools.product(*options):
        if all(v is None for v in combo):
            continue
        mask = np.ones(n, dtype=bool)
        for col, want in enumerate(combo):
            if want is not None:
                mask &= endo_vals[:, col] == sig.range_of(sig.endo_names[col]).index(want)
        conj_masks.append((combo, mask))
    for combo, mask in conj_masks:
        checked += 1
        bad = violates(mask)
        if bad is not None:
            return fail(describe(combo), bad, checked)
    for (c1, k1), (c2, k2) in itertools.combinations(conj_masks, 2):
        checked += 1
        bad = violates(k1 | k2)
        if bad is not None:
            return fail(f"({describe(c1)}) | ({describe(c2)})", bad, checked)
    return {"ok": True, "counterexample": None}, checked


def _reference(m2, m, strong=False, strict=False):
    a = _ref_condition_a(m2, m, strict)
    b = c = None
    checked = 0
    if strong:
        b = check_correspondence(m2, m, strong=True).to_dict()["conditionB"]
        c, checked = _ref_condition_c(m2, m)
    return {
        "ok": all(x is None or x["ok"] for x in (a, b, c)),
        "conditionA": a,
        "conditionB": b,
        "conditionC": c,
        "checkedPsiCount": checked,
    }


def _agrees(m2, m, **kw):
    got = check_correspondence(m2, m, **kw).to_dict()
    assert json.dumps(got) == json.dumps(_reference(m2, m, **kw))
    return got


class _CostOrder(ClosenessOrder):
    """A counterpart's states by violation cost alone, whatever their
    context: one rank row for every base, each base first from itself."""

    def __init__(self, counterpart: CounterpartOrder):
        self.viol = counterpart.viol

    def rank(self, base, other):
        return (int(base != other), 0, self.viol[int(other[1:])])

    def rank_rows(self, states):
        viol = [self.viol[int(s[1:])] for s in states]
        level = {c: i for i, c in enumerate(sorted(set(viol)))}
        own = np.array([level[c] for c in viol], dtype=np.int32)
        return np.zeros(len(states), dtype=np.intp), (own + len(level))[None], own


def _random_tier_structure(m, rng):
    """A centered tier order over random copies of the assignments (none,
    one or two of each).  Centered, because on an order that is not, the
    reference's condition (c) puts the base first whatever its rank, while
    the checker follows `rank()` as condition (a) and `closest_states` do.  From a base s, states with s's exogenous values
    sit in tier 1 or 3; states with other values whose endogenous part
    also occurs with s's exogenous values sit in tier 4 or are unranked;
    the others sit in tier 1 or 2, which makes some disjunctions fail
    where both of their conjunctions pass."""
    names = m.sig.all_names()
    interp = {}
    for values in itertools.product(*(m.sig.range_of(x) for x in names)):
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            interp[f"t{len(interp)}"] = dict(zip(names, values))
    interp = interp or {"t0": dict(zip(names, values))}
    exo_of = {s: tuple(a[x] for x in m.sig.exo_names) for s, a in interp.items()}
    endo_of = {s: tuple(a[y] for y in m.sig.endo_names) for s, a in interp.items()}
    tiers = {}
    for s in interp:
        seen = {endo_of[t] for t in interp if exo_of[t] == exo_of[s]}
        place = {}
        for t in interp:
            r = rng.random()
            if t == s:
                continue
            if exo_of[t] == exo_of[s]:
                place[t] = 1 if r < 0.8 else 3
            elif endo_of[t] in seen:
                place[t] = 4 if r < 0.9 else None
            else:
                place[t] = 1 if r < 0.4 else 2
        tiers[s] = [frozenset({s})] + [
            tier
            for k in (1, 2, 3, 4)
            if (tier := frozenset(t for t, p in place.items() if p == k))
        ]
    return CfStructure(m.sig, interp, TierOrder(tiers))


_SHAPES = [
    FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2),
    FuzzCaps(max_endogenous=3, max_exogenous=1, max_domain=3),
    FuzzCaps(max_endogenous=2, max_exogenous=2, max_domain=4),
    FuzzCaps(max_endogenous=4, max_exogenous=1, max_domain=2),
]


class TestRankMatrixAgainstReference:
    @pytest.mark.parametrize("shape", range(len(_SHAPES)))
    def test_seeded_counterparts(self, shape):
        domains = set()
        for trial in range(6):
            rng = trial_rng(40 + shape, trial)
            m = gen_random_model(_SHAPES[shape], rng)
            m2, _ = build_counterpart(m)
            domains |= {len(r) for _, r in m.sig.endogenous}
            for strict in (False, True):
                _agrees(m2, m, strong=True, strict=strict)
            # the counterpart of one model checked against another with the
            # same signature fails condition (a)
            other = gen_random_model(_SHAPES[shape], trial_rng(40 + shape, trial + 100))
            if other.sig == m.sig:
                _agrees(m2, other, strong=True)
            # a counterpart order over part of its states
            kept = {s: a for s, a in m2.interp.items() if rng.random() < 0.7}
            _agrees(CfStructure(m.sig, kept, m2.order), m, strong=True)
        if shape in (1, 2):
            assert domains & {3, 4}

    def test_one_rank_row_for_every_context(self):
        # An order by violation cost alone shares one row among all bases,
        # whatever their contexts, and ranks each base first from itself:
        # condition (c) splits the row by context and gives each base a
        # column of its own.
        outcomes = set()
        for trial in range(40):
            rng = trial_rng(60, trial)
            m = gen_random_model(_SHAPES[trial % len(_SHAPES)], rng)
            m2, _ = build_counterpart(m)
            kept = {s: a for s, a in m2.interp.items() if rng.random() < 0.7} or dict(m2.interp)
            for interp in (m2.interp, kept):
                cheap = CfStructure(m.sig, interp, _CostOrder(m2.order))
                assert validate_structure(cheap) == []
                report = _agrees(cheap, m, strong=True)
                _agrees(cheap, m, strong=True, strict=True)
                c = report["conditionC"]
                outcomes.add("c-ok" if c["ok"] else "c-pair" if "|" in c["counterexample"]["psi"] else "c-conj")
        assert {"c-ok", "c-conj"} <= outcomes

    def test_backtracking_structure(self, rt):
        m2, _ = backtracking_structure()
        report = _agrees(m2, rt, strong=True)
        assert not report["ok"]

    def test_strict_mode_on_rock_throwing(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        report = _agrees(m2, rt, strict=True)
        assert not report["conditionA"]["ok"]

    def test_structure_failing_condition_b(self):
        chain = parse_model(CHAIN_COPY)
        m2, _ = build_counterpart(chain)
        interp = {s: dict(a) for s, a in m2.interp.items() if s != "s0"}
        flat = {s: [frozenset({s}), frozenset(set(interp) - {s})] for s in interp}
        report = _agrees(CfStructure(chain.sig, interp, TierOrder(flat)), chain, strong=True)
        assert not report["conditionB"]["ok"]

    def test_random_tier_structures(self):
        small = FuzzCaps(max_endogenous=2, max_exogenous=2, max_domain=3)
        outcomes = set()
        for trial in range(120):
            rng = trial_rng(91, trial)
            m = gen_random_model(small if trial % 2 else _SHAPES[trial // 2 % len(_SHAPES)], rng)
            m2 = _random_tier_structure(m, rng)
            report = _agrees(m2, m, strong=True)
            _agrees(m2, m, strict=True)
            c = report["conditionC"]
            outcomes.add("a" if not report["conditionA"]["ok"] else "a-ok")
            outcomes.add("c-ok" if c["ok"] else "c-pair" if "|" in c["counterexample"]["psi"] else "c-conj")
        assert outcomes == {"a", "a-ok", "c-ok", "c-conj", "c-pair"}

    def test_setting_keys_with_and_without_the_full_key(self, monkeypatch):
        # Condition (a) keys each Y's settings by the mixed-radix key of all
        # the variables less Y's digit where that key fits in `_KEY_LIMIT`,
        # and by `_row_keys` of the other columns where it does not.
        cases = []
        for trial in range(30):
            rng = trial_rng(93, trial)
            m = gen_random_model(_SHAPES[trial % len(_SHAPES)], rng)
            m2, _ = build_counterpart(m)
            other = gen_random_model(_SHAPES[trial % len(_SHAPES)], rng)
            cases += [(m2, m), (_random_tier_structure(m, rng), m)]
            cases += [(m2, other)] if other.sig == m.sig else []
        full = [check_correspondence(m2, m, strict=strict).to_dict() for m2, m in cases for strict in (False, True)]
        assert {r["conditionA"]["ok"] for r in full} == {False, True}
        monkeypatch.setattr(correspondence, "_KEY_LIMIT", 1 << 3)
        assert [check_correspondence(m2, m, strict=strict).to_dict()
                for m2, m in cases for strict in (False, True)] == full

    def test_relation_order_has_no_ranks(self):
        sig = parse_model(CHAIN_COPY).sig
        m2, _ = build_counterpart(parse_model(CHAIN_COPY))
        related = CfStructure(sig, m2.interp, RelationOrder({(s, s, s) for s in m2.states}))
        with pytest.raises(StructureError, match="relation orders have no numeric ranks"):
            check_correspondence(related, parse_model(CHAIN_COPY))

    def test_condition_a_reports_the_first_y_then_the_first_state(self):
        # Under a flat order a group fails wherever it holds a state that
        # breaks Y's equation.  X fails in the groups {t1, t3} and {t2, t4},
        # and Y fails in {t0, t1}, whose first state comes first.  The report
        # names X, the first endogenous variable, and its group with the
        # first state t1, though {t2, t4}'s setting (U=0, Y=0) is the
        # smaller key.
        m = parse_model("""\
model xy
exo U : { 0, 1 }
var X : { 0, 1 }
var Y : { 0, 1 }
eq X = case { U=1 : 1 ; default : 0 }
eq Y = case { X=1 : 1 ; default : 0 }
""")
        rows = [(1, 1, 0), (1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 1, 0)]
        interp = {f"t{i}": dict(zip("UXY", map(str, row))) for i, row in enumerate(rows)}
        flat = {s: [frozenset({s}), frozenset(interp) - {s}] for s in interp}
        m2 = CfStructure(m.sig, interp, TierOrder(flat))
        report = _agrees(m2, m, strong=True)
        assert report["conditionA"]["counterexample"] == {
            "Y": "X",
            "setting": {"U": "1", "Y": "1"},
            "base_state": "t0",
            "closest_state": "t3",
            "expected": "1",
            "got": "0",
        }
        _agrees(m2, m, strict=True)

    def test_256_state_counterpart(self):
        # Six binary endogenous variables and two binary exogenous ones.
        # The per-mask checker takes over a minute here.  Every conjunction
        # and every pair is checked: 728 + 728 * 727 / 2.
        m = parse_model(SIX_BINARY)
        m2, _ = build_counterpart(m)
        assert len(m2.states) == 256
        report = check_correspondence(m2, m, strong=True)
        assert report.ok
        assert report.checked_psi_count == 265356


class TestChainCounterparts:
    # One binary exogenous variable U and n binary endogenous ones, each
    # reading the two variables before it.  Their counterparts strongly
    # correspond, so every conjunction and every pair is checked.

    @staticmethod
    def chain(n):
        names = ["U"] + [f"V{i}" for i in range(1, n + 1)]
        lines = ["model chain", "exo U : { 0, 1 }"] + [f"var {v} : {{ 0, 1 }}" for v in names[1:]]
        lines.append("eq V1 = case { U=1 : 1 ; default : 0 }")
        for a, b, v in zip(names, names[1:], names[2:]):
            lines.append(f"eq {v} = case {{ {a}=1 & {b}=0 : 1 ; {a}=0 & {b}=1 : 1 ; default : 0 }}")
        return parse_model("\n".join(lines))

    @pytest.mark.parametrize("n", [8, 9])
    def test_every_pair_is_counted(self, n):
        m = self.chain(n)
        m2, _ = build_counterpart(m)
        assert len(m2.states) == 2 ** (n + 1)
        report = check_correspondence(m2, m, strong=True)
        assert report.ok
        conjunctions = 3**n - 1
        assert report.checked_psi_count == conjunctions + conjunctions * (conjunctions - 1) // 2


SIX_BINARY = """\
model six
exo U1 : { 0, 1 }
exo U2 : { 0, 1 }
var A : { 0, 1 }
var B : { 0, 1 }
var C : { 0, 1 }
var D : { 0, 1 }
var E : { 0, 1 }
var F : { 0, 1 }
eq A = case { U1=1 : 1 ; default : 0 }
eq B = case { U2=1 : 1 ; default : 0 }
eq C = case { A=1 & B=1 : 1 ; default : 0 }
eq D = case { A=1 : 1 ; U2=1 : 1 ; default : 0 }
eq E = case { C=1 : 0 ; D=1 : 1 ; default : 0 }
eq F = case { E=1 : 1 ; B=0 : 1 ; default : 0 }
"""
