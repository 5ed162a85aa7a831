import ast
import importlib.util
from pathlib import Path

import spherecurv


def test_all_matches_the_imports():
    # __all__ is kept by hand: every name it lists must exist, and every
    # name __init__ imports must be listed once
    tree = ast.parse(Path(spherecurv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    names = spherecurv.__all__
    assert [n for n in names if not hasattr(spherecurv, n)] == []
    assert sorted(imported - set(names)) == []
    assert len(names) == len(set(names))


def test_tracer_targets_exist():
    # bench/tracing.py wraps package attributes and SphereGrid methods by
    # name, so a rename would silently blind `bench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [key for key in tracing.FUNCTIONS if not callable(getattr(getattr(spherecurv, key[0]), key[1], None))] == []
    grid_methods = vars(spherecurv.geometry.SphereGrid)
    assert [name for name in tracing.METHODS if name not in grid_methods] == []
