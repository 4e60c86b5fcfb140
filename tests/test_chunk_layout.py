"""Only ``transforms.normalize_chunk`` turns a list of episodes into (E, ...)
arrays; every chunk evaluator reads the ``NormalizedChunk`` it returns, and
the refinement API of ``fsosr.ostim`` and the package's exports take only
chunks. Only ``transforms.unit_rows`` constructs a DegenerateFeatureError,
so every vector, centroid and prototype at its centering point is named by
one rule. Only ``feature_store.read_json`` parses JSON, so every input
document is read and refused by one rule. Only ``fsosr.workers`` forks, so
every worker process is started, reused and ended by one rule. Only
``feature_store.load_feature_store`` maps a file, and ``fsosr.workers`` maps
only anonymous memory, so every mapping of a store is made by one rule. Only
``feature_store.load_feature_store`` starts a thread, which it joins before
it returns, so ``fsosr.workers`` never forks while a helper thread runs. In
``fsosr.runner`` only the ``PARTS`` table names the chunk functions of
``baselines`` and the refinement of ``ostim``, so every method is composed
of its parts in one place."""

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


def callers(source: str, name: str, called: Callable[[ast.Call], bool]) -> set[tuple[str, str]]:
    """(file, function) of every call in ``source`` that ``called`` accepts."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and called(node):
            found.add((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, name), "<module>")
    return found


def named(callee: str) -> Callable[[ast.Call], bool]:
    """Whether a call's callee is ``callee``, by name or as an attribute."""
    return lambda call: callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))


def module_call(module: str, *functions: str) -> Callable[[ast.Call], bool]:
    """Whether a call's callee is ``module.function`` for one of ``functions``."""
    return lambda call: (isinstance(call.func, ast.Attribute) and call.func.attr in functions
                         and isinstance(call.func.value, ast.Name) and call.func.value.id == module)


parses_json = module_call("json", "load", "loads")
forks = module_call("os", "fork")


def maps_anonymous_memory(call: ast.Call) -> bool:
    """Whether a call is ``mmap.mmap(-1, ...)``."""
    return (module_call("mmap", "mmap")(call) and bool(call.args)
            and ast.unparse(call.args[0]) == "-1")


def maps_a_file(call: ast.Call) -> bool:
    """Whether a call maps a file: ``mmap.mmap`` of anything but -1, or any
    ``memmap``."""
    return ((module_call("mmap", "mmap")(call) and not maps_anonymous_memory(call))
            or named("memmap")(call))


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


def test_the_guard_flags_file_mappings_only():
    source = (
        "def a(fh):\n    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\n"
        "def b(path):\n    return np.memmap(path, mode='r')\n"
        "def c(n):\n    return mmap.mmap(-1, n)\n"
        "def d(path):\n    return memmap(path)\n"
        "shared = mmap.mmap(-1, 8)\n"
    )
    assert callers(source, "m.py", maps_a_file) == {("m.py", "a"), ("m.py", "b"), ("m.py", "d")}
    assert callers(source, "m.py", maps_anonymous_memory) == {("m.py", "c"), ("m.py", "<module>")}


def test_only_load_feature_store_maps_a_file_and_workers_only_anonymous_memory():
    files, anonymous = set(), set()
    for path in SOURCES:
        files |= callers(path.read_text(), path.name, maps_a_file)
        anonymous |= callers(path.read_text(), path.name, maps_anonymous_memory)
    assert files == {("feature_store.py", "load_feature_store")}
    assert {name for name, _ in anonymous} == {"workers.py"}


def starts_a_thread(call: ast.Call) -> bool:
    """Whether a call constructs a ``Thread``, a ``Timer`` or a
    ``ThreadPoolExecutor``, by name or as an attribute, or is
    ``start_new_thread``."""
    return any(named(callee)(call) for callee in
               ("Thread", "Timer", "ThreadPoolExecutor", "start_new_thread"))


def test_the_guard_flags_thread_starts_only():
    source = (
        "def a(f):\n    return threading.Thread(target=f)\n"
        "def b(f):\n    return Thread(target=f)\n"
        "def c(f):\n    return ThreadPoolExecutor(2).submit(f)\n"
        "def d():\n    return threading.Lock(), threading.RLock(), threading.local()\n"
        "def e(pool, f):\n    return pool.submit(f)\n"
        "ticker = threading.Timer(1.0, print)\n"
    )
    assert callers(source, "m.py", starts_a_thread) == {
        ("m.py", "a"), ("m.py", "b"), ("m.py", "c"), ("m.py", "<module>")}


def test_only_load_feature_store_starts_a_thread():
    found = set()
    for path in SOURCES:
        found |= callers(path.read_text(), path.name, starts_a_thread)
    assert found == {("feature_store.py", "load_feature_store")}


# The functions that compute a part of a method, by module.
PART_FUNCTIONS = {"baselines": {"simpleshot_chunk", "knn_chunk"},
                  "ostim": {"init_prototypes", "refine", "predict"}}


def names_a_part_function(node: ast.AST) -> bool:
    """Whether a node is ``module.function`` of ``PART_FUNCTIONS``, a bare
    name of one of those functions, or an import of one."""
    functions = set().union(*PART_FUNCTIONS.values())
    return (
        (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
         and node.attr in PART_FUNCTIONS.get(node.value.id, ()))
        or (isinstance(node, ast.Name) and node.id in functions)
        or (isinstance(node, ast.alias) and node.name in functions)
    )


def defined_name(statement: ast.stmt) -> str:
    """The function, class or variable a top-level statement defines, else ``<module>``."""
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        return ast.unparse(getattr(statement, "target", None) or statement.targets[0])
    return getattr(statement, "name", "<module>")


def statements_naming_part_functions(source: str, name: str) -> set[str]:
    """What each top-level statement of ``source`` that names a part
    function defines."""
    return {defined_name(statement) for statement in ast.parse(source, name).body
            if any(map(names_a_part_function, ast.walk(statement)))}


def test_the_guard_flags_statements_naming_part_functions_only():
    source = (
        "def a(ps, view, cfg):\n    return ostim.refine(ps, view, cfg)\n"
        "PARTS: dict = {'knn': lambda b, v: baselines.knn_chunk(v, b.knn_k)}\n"
        "OTHER = {'s': baselines.simpleshot_chunk}\n"
        "from .ostim import predict as p\n"
        "def b(episode):\n    return baselines.knn_outlier_score(episode)\n"
        "def c(sheet, run):\n    return sheet.predict, run.refine\n"
        "class D:\n    init = staticmethod(init_prototypes)\n"
    )
    assert statements_naming_part_functions(source, "m.py") == {
        "a", "PARTS", "OTHER", "<module>", "D"
    }


def test_only_the_parts_table_names_the_part_functions_in_runner():
    path = ROOT / "src" / "fsosr" / "runner.py"
    assert statements_naming_part_functions(path.read_text(), path.name) == {"PARTS"}
