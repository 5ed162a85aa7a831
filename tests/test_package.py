import ast
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
