"""What the `causact` modules import.

Every name a module imports is used in that module.  `__init__` is left
out: its imports are the package's public names.  A name counts as used
where the module's syntax tree loads it, annotations included; a mention
in a docstring or comment does not count.

The causal-model side loads no numpy: `import causact`, the cause and
explanation checks in a model, and the CLI's model commands run in a
fresh interpreter without it.  The array-backed group (structures,
correspondence, the harness and the corpus) is bound on first use.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causact
from causact.corpus import ROCK_THROWING

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\n"
    assert unused_imports(source) == ["os (line 1)", "z (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def run_fresh(*args, code=None):
    """Run `python -c code args` (or `python -m causact.cli args`) in a
    fresh interpreter that imports causact from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    argv = ["-c", code] if code is not None else ["-m", "causact.cli"]
    return subprocess.run([sys.executable, *argv, *args], env=env, capture_output=True, text=True)


MODEL_ONLY = """
import sys

from causact import (CausalSetting, cli, is_actual_cause_abstract, is_actual_cause_hp,
                     is_explanation_abstract, is_explanation_hp, parse_context, parse_formula,
                     parse_language, parse_model)

path = sys.argv[1]
with open(path) as f:
    m = parse_model(f.read())
u = parse_context("U=u11", m.sig)
cause, effect = parse_formula("ST=1", m.sig), parse_formula("BS=1", m.sig)
verdicts = [is_actual_cause_hp(m, u, cause, effect).is_cause]
for spec in ("conj", "conj-neg", "pair", "gen:1"):
    verdicts.append(is_actual_cause_abstract(CausalSetting(m, u), cause, effect, parse_language(spec)).is_cause)
K = [parse_context(c, m.sig) for c in ("U=u11", "U=u10")]
verdicts.append(is_explanation_hp(m, K, cause, effect).is_explanation)
verdicts.append(is_explanation_abstract([CausalSetting(m, u) for u in K], cause, effect,
                                        parse_language("conj")).is_explanation)
codes = [
    cli.main(["solve", "-m", path, "-u", "U=u11"]),
    cli.main(["eval", "-m", path, "-u", "U=u11", "[ST<-0] BS=1"]),
    cli.main(["cause", "-m", path, "-u", "U=u11", "--cause", "ST=1", "--effect", "BS=1"]),
    cli.main(["explain", "--semantics", "model", "-m", path, "--K", "U=u11; U=u10",
              "--candidate", "ST=1", "--effect", "BS=1", "--mode", "abstract"]),
]
loaded = [name for name in ("numpy", "causact.structure", "causact.correspondence") if name in sys.modules]
print(verdicts, codes, loaded)
"""


def test_model_only_work_loads_no_numpy(tmp_path):
    path = tmp_path / "rock-throwing.cm"
    path.write_text(ROCK_THROWING)
    proc = run_fresh(str(path), code=MODEL_ONLY)
    assert proc.returncode == 0, proc.stderr
    # Suzy's throw causes the shattering in every language, and explains it
    assert proc.stdout.splitlines()[-1] == "[True, True, True, True, True, True, True] [0, 0, 0, 0] []"


def test_lazily_bound_names_are_the_modules_own():
    for module_name, names in causact._ARRAY_SIDE.items():
        module = importlib.import_module(f"causact.{module_name}")
        assert getattr(causact, module_name) is module
        for name in names:
            assert getattr(causact, name) is getattr(module, name), name
            assert name in dir(causact)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        causact.nosuch


@pytest.mark.parametrize("first, before", [
    ("from causact import CfStructure", []),
    # structure and correspondence load as modules, and bind no package name
    ("import causact.correspondence", ["harness", "corpus"]),
])
def test_the_first_use_binds_the_whole_group(first, before):
    proc = run_fresh(code=f"""
import sys
{first}
import causact
print([m for m in causact._ARRAY_SIDE if f"causact.{{m}}" not in sys.modules])
causact.CorrespondenceError
print([n for names in causact._ARRAY_SIDE.values() for n in names if n not in vars(causact)])
print([m for m in causact._ARRAY_SIDE if f"causact.{{m}}" not in sys.modules])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(before), "[]", "[]"]


def test_a_malformed_structure_is_a_semantic_error_in_a_fresh_process(tmp_path):
    path = tmp_path / "s.cfs"
    path.write_text("structure toy\nvar X : { 0, 1 }\nstate a { X=2 }\n")
    proc = run_fresh("closest", "-s", str(path), "--state", "a", "X=1")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: state a: value '2' outside the range of X\n"
