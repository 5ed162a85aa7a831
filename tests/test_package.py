import ast
import dataclasses
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import spherecurv
from spherecurv import cli


def test_star_export_is_the_import_block():
    # the public surface is the import block of __init__: `from spherecurv import *`
    # binds exactly the names it imports, so a stray public global there (a bare
    # `import numpy as np`, say) fails here.  A fresh interpreter runs the star
    # import, because importing a submodule such as spherecurv.cli binds it on
    # the package as well
    tree = ast.parse(Path(spherecurv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    script = "ns = {}; exec('from spherecurv import *', ns); del ns['__builtins__']; print(' '.join(sorted(ns)))"
    env = {**os.environ, "PYTHONPATH": str(Path(spherecurv.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == sorted(imported)


def test_numpy_alone_until_the_radial_probe():
    # the solve, classify and dbar paths run on numpy alone; scipy loads on the
    # radial probe's first call (solve_ivp, brentq).  A fresh interpreter, because
    # this test session has imported scipy already
    script = """
import sys
from fractions import Fraction
import numpy as np
import spherecurv, spherecurv.cli
from spherecurv import BundleSpec, HoloClass, SolveConfig, b_coords, build_grid, dbar_solve, div_classifier
from spherecurv import solve_phi_system, solve_radial
heavy = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
def loaded():
    return sorted(name for name in sys.modules if name.startswith(heavy))
phi = HoloClass(BundleSpec(0, 4), np.array([1.0, 0.5j, 0.25]))
res = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=8))
b = b_coords(phi, res.u, build_grid(8)).b
div_classifier(b, phi.spec)
div_classifier([Fraction(1), Fraction(1, 2), Fraction(1, 4)], phi.spec, exact=True)
dbar_solve(phi, res.u, build_grid(8))
assert loaded() == [], loaded()
radial = solve_radial(HoloClass(BundleSpec(0, 4), np.array([0, 1.0, 0])), 4 * np.pi, SolveConfig(l_max=16))
assert radial.converged
assert "scipy.integrate" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(spherecurv.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    # the tracer counts MINRES iterations by replacing pde.minres itself
    assert callable(getattr(spherecurv.pde, "minres", None))


def test_pde_reads_no_private_grid_attribute():
    # geometry alone knows its coefficient format (the Legendre table, the
    # latitude weights, the sqrt(2) scale of m = 0): pde reaches a grid through
    # public methods, so no attribute pde reads may be one of a grid's private names
    grid = spherecurv.geometry.build_grid(8)
    private = {name for name in {*vars(grid), *vars(type(grid))} if name.startswith("_") and not name.endswith("__")}
    tree = ast.parse(Path(spherecurv.pde.__file__).read_text())
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in private]
    assert [f"line {node.lineno}: {ast.unparse(node)}" for node in reads] == []


def test_pde_reads_no_grid_layout():
    # geometry alone knows how a solve grid sits in the full grid (symmetric_step,
    # SphereGrid.fold, SphereGrid.tile and SphereGrid.embed_packed): pde counts
    # no longitudes, picks no step, reshapes or tiles no node values and reads
    # no array's shape or size, nor a grid's node counts
    tree = ast.parse(Path(spherecurv.pde.__file__).read_text())
    names = [node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in names
        if ast.unparse(node) in {"longitudes", "np.tile", "math.gcd"}
        or getattr(node, "attr", None) in {"reshape", "shape", "size", "n_lat", "n_lon"}
    ]
    assert found == []


def test_one_owner_for_solve_cells():
    # lab._row alone turns a solve into a row's solve cells, for sweep rows,
    # the radial row and the solve verb's report: no other dict literal in
    # lab or cli writes one
    found = []
    for module in (spherecurv.lab, spherecurv.cli):
        tree = ast.parse(Path(module.__file__).read_text())
        owned = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_row" for node in ast.walk(fn)}
        found += [
            f"{Path(module.__file__).name} line {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict) and id(node) not in owned
            and {"stall_lambda", "residual_sup", "offset"} & {getattr(key, "value", None) for key in node.keys}
        ]
    assert found == []


def test_no_json_hook_in_the_package():
    # every payload is built from native values, None where a value is
    # missing, so json.dumps needs no default= hook to write standard JSON
    package = Path(spherecurv.__file__).parent
    calls = [
        f"{path.name} line {node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "json.dumps"
        and any(kw.arg == "default" for kw in node.keywords)
    ]
    assert calls == []


def test_readme_lists_every_solver_constant():
    # the README's SolveConfig bullet quotes each fixed solver constant with
    # its value; a constant that moves or appears must move or appear there too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = re.search(r"^- `SolveConfig` has one setting.*?(?=^- |^$)", readme, re.M | re.S).group()
    quoted = dict(re.findall(r"`(\w+)`\s+(\d+(?:\.\d+)?(?:e[-+]?\d+)?)", bullet))
    solver = spherecurv.pde.SolveConfig
    settings = {f.name for f in dataclasses.fields(solver)}
    constants = {name for name, value in vars(solver).items() if isinstance(value, (int, float))} - settings
    assert sorted(quoted) == sorted(constants)
    assert {name: float(text) for name, text in quoted.items()} == {name: getattr(solver, name) for name in quoted}


def test_readme_verb_table_is_the_cli():
    # the README's `| verb | flags |` table lists every CLI verb once, with
    # exactly the flags it reads; a verb or flag that comes or goes must
    # come or go there too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^\| verb \| flags \|\n\|---\|---\|\n((?:\|.*\|\n)+)", readme, re.M).group(1)
    listed = []
    for line in table.splitlines():
        verbs, flags = line.strip("|").split("|")
        listed += [(verb, sorted(re.findall(r"`--([\w-]+)`", flags))) for verb in re.findall(r"`([\w-]+)`", verbs)]
    assert sorted(listed) == sorted((verb, sorted(flags)) for verb, (_, flags) in cli.VERBS.items())


def test_readme_grid_calls_bind_to_the_signatures():
    # every `build_grid(...)` or `SphereGrid(...)` call the README writes binds
    # to the real callable's signature, so a grid parameter that goes or comes
    # must go from or come to the README too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    calls = []
    for match in re.finditer(r"\b(build_grid|SphereGrid)\(", readme):
        depth = 0
        for end in range(match.end() - 1, len(readme)):  # to the matching parenthesis
            depth += {"(": 1, ")": -1}.get(readme[end], 0)
            if depth == 0:
                break
        calls.append(ast.parse(readme[match.start() : end + 1], mode="eval").body)
    unbound = []
    for call in calls:
        signature = inspect.signature(getattr(spherecurv.geometry, call.func.id))
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError:
            unbound.append(ast.unparse(call))
    assert calls and unbound == []


def test_beta_diagonal_has_one_owner():
    # the flat Gram diagonal 2*pi/((k-1) C(k-2, i)) is evaluated in cohomology
    # alone (the flat dual, its condition and the flat mass); another module
    # that needs one of those calls cohomology instead of its own factorials
    package = Path(spherecurv.__file__).parent
    names = {"comb", "factorial"}
    users = {
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in names and ast.unparse(node.value) == "math")
        or (isinstance(node, ast.ImportFrom) and node.module == "math" and names & {a.name for a in node.names})
    }
    assert users == {"cohomology"}
