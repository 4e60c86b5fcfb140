"""Only ``transforms.normalize_chunk`` turns a list of episodes into (E, ...)
arrays; every chunk evaluator reads the ``NormalizedChunk`` it returns, and
the refinement API of ``fsosr.ostim`` and the package's exports take only
chunks. Only ``transforms.unit_rows`` constructs a DegenerateFeatureError,
so every vector, centroid and prototype at its centering point is named by
one rule. Only ``feature_store.read_json`` parses JSON, so every input
document is read and refused by one rule. Only ``fsosr.workers`` forks, so
every worker process is started, reused and ended by one rule."""

from __future__ import annotations

import ast
import inspect
from collections.abc import Callable
from pathlib import Path

import fsosr

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fsosr").glob("*.py"))

STACKERS = {"stack", "array", "concatenate"}
COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp)


def _over_episodes(arg: ast.AST) -> bool:
    """Whether ``arg`` holds a comprehension over the name ``episodes``."""
    return any(
        isinstance(node, COMPREHENSIONS)
        and any(isinstance(gen.iter, ast.Name) and gen.iter.id == "episodes"
                for gen in node.generators)
        for node in ast.walk(arg)
    )


def episode_stacks(source: str, name: str) -> set[tuple[str, str]]:
    """(file, function) of every ``np.stack``/``np.array``/``np.concatenate``
    call in ``source`` whose arguments hold a comprehension over ``episodes``."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STACKERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and any(map(_over_episodes, [*node.args, *(kw.value for kw in node.keywords)]))
        ):
            found.add((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, name), "<module>")
    return found


def test_the_guard_flags_comprehensions_over_episodes_only():
    source = (
        "def a(episodes):\n    return np.stack([ep.x for ep in episodes])\n"
        "def b(episodes):\n    return np.array(list(ep.y for ep in episodes))\n"
        "def c(episodes):\n    return numpy.concatenate((ep.z for ep in episodes), axis=0)\n"
        "def d(states):\n    return np.stack([s.w for s in states])\n"
    )
    assert episode_stacks(source, "m.py") == {("m.py", "a"), ("m.py", "b"), ("m.py", "c")}


def test_only_normalize_chunk_stacks_episodes():
    assert SOURCES
    found = set()
    for path in SOURCES:
        found |= episode_stacks(path.read_text(), path.name)
    assert found == {("transforms.py", "normalize_chunk")}


def callers(source: str, name: str, called: Callable[[ast.expr], bool]) -> set[tuple[str, str]]:
    """(file, function) of every call in ``source`` whose callee ``called`` accepts."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and called(node.func):
            found.add((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, name), "<module>")
    return found


def named(callee: str) -> Callable[[ast.expr], bool]:
    """Whether a callee is ``callee``, by name or as an attribute."""
    return lambda func: callee in (getattr(func, "id", None), getattr(func, "attr", None))


def parses_json(func: ast.expr) -> bool:
    """Whether a callee is ``json.load`` or ``json.loads``."""
    return (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name) and func.value.id == "json")


def forks(func: ast.expr) -> bool:
    """Whether a callee is ``os.fork``."""
    return (isinstance(func, ast.Attribute) and func.attr == "fork"
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def test_the_guard_flags_constructions_of_the_error_only():
    source = (
        "def a(x):\n    raise DegenerateFeatureError(f'{x} coincides')\n"
        "def b():\n    return errors.DegenerateFeatureError('row 0')\n"
        "def c():\n    try:\n        a(0)\n    except DegenerateFeatureError:\n        raise\n"
        "def d():\n    raise DivergenceError('overflows')\n"
        "error = DegenerateFeatureError('at import')\n"
    )
    assert callers(source, "m.py", named("DegenerateFeatureError")) == {
        ("m.py", "a"), ("m.py", "b"), ("m.py", "<module>")
    }


def test_only_unit_rows_constructs_a_degenerate_feature_error():
    found = set()
    for path in SOURCES:
        found |= callers(path.read_text(), path.name, named("DegenerateFeatureError"))
    assert found == {("transforms.py", "unit_rows")}


def test_the_guard_flags_json_parsing_only():
    source = (
        "def a(path):\n    return json.loads(path.read_text())\n"
        "def b(fh):\n    return json.load(fh)\n"
        "def c(data):\n    return pickle.loads(data)\n"
        "def d(doc):\n    return json.dumps(doc)\n"
    )
    assert callers(source, "m.py", parses_json) == {("m.py", "a"), ("m.py", "b")}


def test_only_read_json_parses_json():
    found = set()
    for path in SOURCES:
        found |= callers(path.read_text(), path.name, parses_json)
    assert found == {("feature_store.py", "read_json")}


def test_no_public_ostim_function_takes_an_episode():
    tree = ast.parse((ROOT / "src" / "fsosr" / "ostim.py").read_text())
    public = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert {"init_prototypes", "refine", "predict", "loss_and_grad", "logits"} <= {
        function.name for function in public
    }
    takes_episode = {
        (function.name, arg.arg)
        for function in public
        for arg in [*function.args.posonlyargs, *function.args.args, *function.args.kwonlyargs]
        if "episode" in arg.arg.lower()
        or (arg.annotation is not None and "Episode" in ast.unparse(arg.annotation))
    }
    assert not takes_episode


def test_no_exported_function_takes_an_episode():
    functions = [getattr(fsosr, name) for name in fsosr.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    takes_episode = {
        (function.__name__, name)
        for function in functions
        for name, parameter in inspect.signature(function, eval_str=True).parameters.items()
        if parameter.annotation is fsosr.Episode
    }
    assert not takes_episode
    assert fsosr.normalize_chunk in functions


def test_the_guard_flags_forks_only():
    source = (
        "def a():\n    return os.fork()\n"
        "def b(pool):\n    return pool.fork()\n"
        "def c():\n    return os.forkpty()\n"
        "pid = os.fork()\n"
    )
    assert callers(source, "m.py", forks) == {("m.py", "a"), ("m.py", "<module>")}


def test_only_workers_forks_and_in_workers_is_gone():
    found = set()
    for path in SOURCES:
        found |= callers(path.read_text(), path.name, forks)
    assert {name for name, _ in found} == {"workers.py"}
    names = {
        getattr(node, attr, None)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        for attr in ("id", "attr", "name")
    }
    assert "in_workers" not in names
