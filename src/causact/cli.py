"""Command-line front end.

Subcommands: solve, eval, cause, explain, closest, build-cf,
check-correspondence, fuzz, corpus.  `--json` switches every command to
machine-readable output.  Exit codes: 0 the command ran (the verdict may
still be negative), 2 parse or usage error, 3 semantic error (cyclic
model, signature mismatch, state-space cap exceeded, a formula nested too
deeply to parse or evaluate, ...), a failing `corpus` claim, or a `fuzz`
report with disagreements.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formula import ExoEvent, FormulaError, format_formula, parse_formula, parse_intervention
from .model import CausalModel, ModelError, parse_context, parse_model
from .structure import StructureError, parse_structure, structure_to_text, validate_structure
from .hp import is_actual_cause_hp
from .abstract import (
    CausalSetting,
    CfSetting,
    is_actual_cause_abstract,
    parse_language,
)
from .explanation import is_explanation_abstract, is_explanation_hp
from .correspondence import (
    CorrespondenceError,
    build_counterpart,
    check_correspondence,
)
from .harness import DEFAULT_CAPS, FuzzCaps, run_differential
from .corpus import MODELS, run_corpus


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_model(path: str) -> CausalModel:
    with open(path) as f:
        return parse_model(f.read(), name_hint=path.rsplit("/", 1)[-1].removesuffix(".cm"))


def _load_structure(path: str):
    with open(path) as f:
        text = f.read()
    return parse_structure(
        text, load_model=_load_model, name_hint=path.rsplit("/", 1)[-1].removesuffix(".cfs")
    )


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _parse_pins(pin_args, sig):
    pins = []
    for text in pin_args or []:
        try:
            ctx = parse_context(text, sig)
        except (FormulaError, ModelError):
            pins.append(parse_formula(text, sig))
        else:
            pins.extend(ExoEvent(n, v) for n, v in ctx.items())
    return pins


def cmd_solve(args):
    m = _load_model(args.model)
    if args.dot:
        lines = ["digraph dependencies {"]
        for x in m.sig.endo_names:
            for p in m.parents[x]:
                lines.append(f'  "{p}" -> "{x}";')
        lines.append("}")
        print("\n".join(lines))
        return 0
    u = parse_context(args.context, m.sig)
    inter = parse_intervention(args.intervene, m.sig) if args.intervene else None
    sol = m.solve(u, inter)
    _emit(args, {"assignment": sol}, "\n".join(f"{n} = {sol[n]}" for n in m.sig.all_names()))
    return 0


def cmd_eval(args):
    m = _load_model(args.model)
    u = parse_context(args.context, m.sig)
    phi = parse_formula(args.formula, m.sig)
    result = m.evaluate(u, phi)
    _emit(args, {"formula": format_formula(phi), "holds": result}, str(result).lower())
    return 0


def _model_and_context(args):
    """The model of --model and the context of --context."""
    if args.model is None:
        raise CliError("model semantics needs --model and --context", 2)
    m = _load_model(args.model)
    if args.context is None:
        raise CliError("model semantics needs --model and --context", 2)
    return m, parse_context(args.context, m.sig)


def _setting_for(args):
    """Build the (model or structure) setting of an abstract cause check."""
    if args.semantics == "structure":
        if not args.structure or not args.state:
            raise CliError("structure semantics needs --structure and --state", 2)
        return CfSetting(_load_structure(args.structure), args.state)
    return CausalSetting(*_model_and_context(args))


def cmd_cause(args):
    if args.mode == "hp":
        if args.semantics == "structure":
            raise CliError("hp mode checks a causal model; use --mode abstract on a structure", 2)
        m, u = _model_and_context(args)
        cause = parse_formula(args.cause, m.sig)
        effect = parse_formula(args.effect, m.sig)
        verdict = is_actual_cause_hp(m, u, cause, effect, first_only=args.first)
        human = [f"isCause: {verdict.is_cause}"]
        for w in verdict.witnesses:
            wtxt = ", ".join(f"{v}={s}" for v, s in zip(w.w, w.wstar)) or "(empty)"
            human.append(f"witness: W = {{{wtxt}}}, x' = {', '.join(w.xprime)}")
        if verdict.ac3_violator:
            human.append(
                "minimality violated by " + " & ".join(f"{v}={x}" for v, x in verdict.ac3_violator)
            )
        _emit(args, verdict.to_dict(), "\n".join(human))
        return 0

    setting = _setting_for(args)
    sig = setting.sig
    cause = parse_formula(args.cause, sig)
    effect = parse_formula(args.effect, sig)
    lang = parse_language(args.lang, pins=_parse_pins(args.pin, sig))
    verdict = is_actual_cause_abstract(
        setting, cause, effect, lang, allow_vacuous=args.allow_vacuous
    )
    human = [f"isCause: {verdict.is_cause} (language {lang.describe()})"]
    if verdict.tau is not None:
        human.append(f"tau: {format_formula(verdict.tau)}")
    if verdict.ac3_violator is not None:
        human.append(f"minimality violated by {format_formula(verdict.ac3_violator)}")
    _emit(args, verdict.to_dict(), "\n".join(human))
    return 0


def cmd_explain(args):
    effect_src = args.effect
    if args.semantics == "structure":
        if args.mode == "hp":
            raise CliError("hp mode checks a causal model; use --mode abstract on a structure", 2)
        states = [s.strip() for s in (args.K_states or "").split(",") if s.strip()]
        if not args.structure or not states:
            raise CliError("structure semantics needs --structure and --K-states", 2)
        m2 = _load_structure(args.structure)
        settings = [CfSetting(m2, s) for s in states]
        sig = m2.sig
        cand = parse_formula(args.candidate, sig)
        effect = parse_formula(effect_src, sig)
        lang = parse_language(args.lang, pins=_parse_pins(args.pin, sig))
        verdict = is_explanation_abstract(settings, cand, effect, lang, args.allow_vacuous)
    else:
        if args.model is None:
            raise CliError("model semantics needs --model and --K", 2)
        m = _load_model(args.model)
        if not args.K:
            raise CliError("explain needs --K with one or more contexts", 2)
        K = [parse_context(part, m.sig) for part in args.K.split(";")]
        cand = parse_formula(args.candidate, m.sig)
        effect = parse_formula(effect_src, m.sig)
        if args.mode == "hp":
            verdict = is_explanation_hp(m, K, cand, effect)
        else:
            lang = parse_language(args.lang, pins=_parse_pins(args.pin, m.sig))
            settings = [CausalSetting(m, u) for u in K]
            verdict = is_explanation_abstract(settings, cand, effect, lang, args.allow_vacuous)
    human = (
        f"isExplanation: {verdict.is_explanation} (nontrivial: {verdict.nontrivial})\n"
        f"ex1a={verdict.ex1a} ex1b={verdict.ex1b} ex2={verdict.ex2} "
        f"ex3={verdict.ex3} ex4={verdict.ex4}"
    )
    _emit(args, verdict.to_dict(), human)
    return 0


def cmd_closest(args):
    m2 = _load_structure(args.structure)
    phi = parse_formula(args.formula, m2.sig)
    closest = sorted(m2.closest_states(args.state, phi))
    _emit(
        args,
        {"state": args.state, "formula": format_formula(phi), "closest": closest},
        ", ".join(closest) if closest else "(no antecedent states)",
    )
    return 0


def cmd_build_cf(args):
    m = _load_model(args.model)
    m2, ctx_state = build_counterpart(m, state_cap=args.state_cap)
    mapping = {}
    for u in m.sig.assignments(m.sig.exo_names):
        key = ", ".join(f"{n}={u[n]}" for n in m.sig.exo_names)
        mapping[key] = ctx_state(u)
    text = structure_to_text(m2, over=args.model)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    payload = {"states": len(m2.states), "contextStates": mapping, "written": args.out}
    human = [f"{len(m2.states)} states" + (f" -> {args.out}" if args.out else "")]
    human += [f"  {k}: {v}" for k, v in mapping.items()]
    _emit(args, payload, "\n".join(human))
    return 0


def cmd_check_correspondence(args):
    m = _load_model(args.model)
    m2 = _load_structure(args.structure)
    violations = validate_structure(m2)
    if violations:
        raise CliError(f"structure order invalid: {violations[0]}", 3)
    report = check_correspondence(m2, m, strong=args.strong, strict=args.strict)
    lines = [f"correspondence: {'ok' if report.ok else 'FAILED'}"]
    for label, cond in (
        ("equations (a)", report.condition_a),
        ("all assignments (b)", report.condition_b),
        ("context preservation (c)", report.condition_c),
    ):
        if cond is None:
            continue
        lines.append(f"  {label}: {'ok' if cond.ok else f'failed: {cond.counterexample}'}")
    _emit(args, report.to_dict(), "\n".join(lines))
    return 0


_THEOREM_NAMES = {"1": "theorem1", "2": "theorem2", "3": "prop3", "4": "theorem4", "5": "theorem5"}


def _parse_caps(text):
    """`--caps E,X,D`: the most endogenous and exogenous variables, and the
    largest domain, of a generated model; the harness's defaults if None."""
    if text is None:
        return DEFAULT_CAPS
    try:
        endogenous, exogenous, domain = (int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--caps must be three integers E,X,D, got {text!r}", 2) from None
    if endogenous < 1 or exogenous < 1 or domain < 2:
        raise CliError(f"--caps needs E >= 1, X >= 1 and D >= 2, got {text!r}", 2)
    return FuzzCaps(endogenous, exogenous, domain)


def cmd_fuzz(args):
    name = _THEOREM_NAMES.get(str(args.theorem))
    if name is None:
        raise CliError(f"unknown theorem {args.theorem!r} (1-5)", 2)
    if args.trials < 0:
        raise CliError(f"--trials must be nonnegative, got {args.trials}", 2)
    report = run_differential(name, args.trials, seed=args.seed, caps=_parse_caps(args.caps),
                              negated=args.negated)
    caps = report.caps
    human = (
        f"{report.differential}: {report.agreements}/{report.trials} agree, "
        f"{len(report.disagreements)} disagreements, {report.skipped} skipped, {report.elapsed:.1f}s "
        f"(seed {report.seed}, caps {caps.max_endogenous},{caps.max_exogenous},{caps.max_domain})"
    )
    _emit(args, report.to_dict(), human)
    return 3 if report.disagreements else 0


def cmd_corpus(args):
    if args.dump:
        if args.dump not in MODELS:
            raise CliError(f"unknown builtin model {args.dump!r} (choose from {sorted(MODELS)})", 2)
        print(MODELS[args.dump], end="")
        return 0
    results = run_corpus()
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r['holds'] else 'FAIL'}  {r['name']}: {r['claim']}")
    return 0 if all(r["holds"] for r in results) else 3


def build_parser():
    p = argparse.ArgumentParser(prog="causact", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("solve", cmd_solve, help="solve a model at a context")
    sp.add_argument("-m", "--model", required=True)
    sp.add_argument("-u", "--context", default="")
    sp.add_argument("--intervene", help='e.g. "X<-1, Y<-0"')
    sp.add_argument("--dot", action="store_true", help="print the dependency DAG as DOT")

    sp = add("eval", cmd_eval, help="evaluate a formula at a context")
    sp.add_argument("-m", "--model", required=True)
    sp.add_argument("-u", "--context", required=True)
    sp.add_argument("formula")

    sp = add("cause", cmd_cause, help="actual-cause check")
    sp.add_argument("-m", "--model")
    sp.add_argument("-u", "--context")
    sp.add_argument("--cause", required=True)
    sp.add_argument("--effect", required=True)
    sp.add_argument("--mode", choices=["hp", "abstract"], default="hp")
    sp.add_argument("--semantics", choices=["model", "structure"], default="model")
    sp.add_argument("-s", "--structure")
    sp.add_argument("--state")
    sp.add_argument("--lang", default="conj", help="conj | conj-neg | pair | gen:K")
    sp.add_argument("--pin", action="append", help="formula conjoined to every witness")
    sp.add_argument("--first", action="store_true", help="stop at the first witness")
    sp.add_argument("--allow-vacuous", action="store_true")

    sp = add("explain", cmd_explain, help="explanation check relative to an epistemic state")
    sp.add_argument("-m", "--model")
    sp.add_argument("--K", help='contexts, e.g. "U=u111; U=u112"')
    sp.add_argument("--K-states", dest="K_states", help='state ids, e.g. "s0,s3"')
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--effect", required=True)
    sp.add_argument("--mode", choices=["hp", "abstract"], default="hp")
    sp.add_argument("--semantics", choices=["model", "structure"], default="model")
    sp.add_argument("-s", "--structure")
    sp.add_argument("--lang", default="conj")
    sp.add_argument("--pin", action="append")
    sp.add_argument("--allow-vacuous", action="store_true")

    sp = add("closest", cmd_closest, help="closest antecedent states in a structure")
    sp.add_argument("-s", "--structure", required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("formula")

    sp = add("build-cf", cmd_build_cf, help="build the counterpart structure of a model")
    sp.add_argument("-m", "--model", required=True)
    sp.add_argument("-o", "--out")
    sp.add_argument("--state-cap", type=int, default=10**6)

    sp = add("check-correspondence", cmd_check_correspondence, help="structure/model agreement")
    sp.add_argument("-m", "--model", required=True)
    sp.add_argument("-s", "--structure", required=True)
    sp.add_argument("--strong", action="store_true")
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--strict", action="store_true")
    grp.add_argument("--lenient", dest="strict", action="store_false")
    sp.set_defaults(strict=False)

    sp = add("fuzz", cmd_fuzz, help="differential testing of the equivalence results")
    sp.add_argument("--theorem", required=True, help="1, 2, 3, 4 or 5")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--negated", action="store_true", help="theorem 1 with negated conjuncts")
    sp.add_argument("--caps", metavar="E,X,D",
                    help="most endogenous and exogenous variables, largest domain (default 4,2,3)")

    sp = add("corpus", cmd_corpus, help="re-derive the built-in worked scenarios")
    sp.add_argument("--dump", help="print a builtin model file instead")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except FormulaError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ModelError, StructureError, CorrespondenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # until the parser and formula walkers stop recursing
        print("error: formula too deeply nested", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
