"""The names other code imports from the package.

Every name in `redfield_slippage.__all__`, and every module attribute the
benchmark scripts under `bench/` reach: `bench/worker.py` imports the
modules and fits the default kernel, `bench/workloads.py` runs the CLI,
the oracle entry points and the closed-form TCL2 reference, and
`bench/tracing.py` wraps layer entry points by name in every module that
imported them and looks up `regions.default_time_grid`. A rename then
fails here instead of first showing up as a failed benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import redfield_slippage
from redfield_slippage import cli

BENCH_NAMES = {
    "bath": ["fit_exponential_mixture", "correlation_quadrature"],
    "cli": [
        "main",
        "fit_exponential_mixture",
        "propagate_markovian",
        "propagate_tcl2",
        "u_prime_membership",
        "region_scan",
        "slipped_initial_condition",
        "_dump_json",
        "_write",
    ],
    "config": [
        "fit_exponential_mixture",
        "RunConfig.load",
        "RunConfig.kernel",
        "RunConfig.model",
        "RunConfig.oracle_lambdas",
        "RunConfig.propagation_times",
    ],
    "corrections": [
        "NATURAL_SIGN",
        "NaturalFamily",
        "delta_rho1",
        "perturbative_solution",
        "slipped_initial_condition",
    ],
    "master": [
        "propagate_markovian",
        "propagate_tcl2",
        "golden_min",
        "RedfieldGenerator.theta_tail",
        "PositivityScanner.evaluate",
        "Trajectory.to_csv",
        "Trajectory.blochs",
    ],
    "operators": [
        "bloch_to_density",
        "Superoperator.expm_action",
        "Superoperator.expm_action_many",
    ],
    "oracle": [
        "delta_rho1",
        "default_oracle_bath",
        "pin_natural_sign",
        "validate_scaling",
        "short_time_markovianity",
        "build_total_hamiltonian",
        "thermal_total_state",
        "evolve_exact",
        "delta_rho2_direct",
    ],
    "regions": [
        "default_time_grid",
        "golden_min",
        "u_prime_membership",
        "region_scan",
        "VariationalTables.__init__",
        "VariationalTables.tables",
        "RegionScanResult.to_csv",
    ],
}


@pytest.mark.parametrize("name", redfield_slippage.__all__)
def test_all_names_import(name):
    assert hasattr(redfield_slippage, name)


@pytest.mark.parametrize(
    "module, dotted", [(m, n) for m, names in BENCH_NAMES.items() for n in names]
)
def test_bench_names_resolve(module, dotted):
    # `tracing.Patches.wrap` replaces vars(owner)[name]: a name that is
    # only inherited or reached through getattr would silently leave its
    # metrics absent
    obj = importlib.import_module(f"redfield_slippage.{module}")
    for part in dotted.split("."):
        assert part in vars(obj), f"{part} is not in vars() of {obj!r}"
        obj = vars(obj)[part]
    assert obj is not None


# `bench/worker.py` appends `--out DIR --jobs 1` to every command it runs,
# so every subcommand parses both, even those that ignore --jobs: the
# option is not dead on them
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_parses_the_bench_arguments(command):
    args = cli.build_parser().parse_args([command, "--out", "d", "--jobs", "1"])
    assert (args.command, args.out, args.jobs) == (command, "d", 1)


def test_config_kernel_exposes_its_rates():
    from redfield_slippage.bath import LorentzDrudeBath, fit_exponential_mixture
    from redfield_slippage.config import RunConfig

    kernel = RunConfig.load(None, ["bath.beta=2.0"]).kernel()
    assert kernel is fit_exponential_mixture(LorentzDrudeBath(omega_c=1.0, beta=2.0))
    assert kernel.real_rates and kernel.g[0] == 1.0


# `bench/tracing.py` counts the time points passed to these layers by
# position (or by keyword when passed so), and rebuilds the sup search
# grid as default_time_grid(model, kernel, t_window); a moved or renamed
# parameter would silently zero a per-layer counter or fail its call
BENCH_TIME_ARGS = [
    ("oracle", "evolve_exact", 2, "times"),
    ("oracle", "delta_rho2_direct", 4, "times"),
    ("bath", "correlation_quadrature", 1, "t"),
    ("regions", "default_time_grid", 2, "t_window"),
]


@pytest.mark.parametrize("module, func, pos, name", BENCH_TIME_ARGS)
def test_bench_time_argument_positions(module, func, pos, name):
    fn = getattr(importlib.import_module(f"redfield_slippage.{module}"), func)
    params = list(inspect.signature(fn).parameters.values())
    assert params[pos].name == name
    assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_every_config_key_is_read():
    # a key that no package code reads, its validation aside, changes no
    # run; the former quadrature.rel_tol was one
    from redfield_slippage.config import DEFAULTS

    read = set()
    for path in sorted(Path(redfield_slippage.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        checks = {
            id(n)
            for d in ast.walk(tree)
            if isinstance(d, ast.FunctionDef) and d.name == "validate"
            for n in ast.walk(d)
        }
        read |= {
            node.slice.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and id(node) not in checks
        }
    assert not set(DEFAULTS) - read


def _definitions(node, prefix=""):
    """(qualified name, node) of every function, class and method below
    node, dunders excepted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_has_a_production_caller():
    # a function, class or method of the package that no package code
    # reaches is surface kept alive only by tests, and goes. Exempt are
    # the benchmark surface and max_radial_depth, the entry point of
    # acceptance criterion 4. A definition counts as reached when any
    # name or attribute of its name is read outside it, so a parameter
    # or variable of the same name hides it: a `correlation` parameter
    # hid the former bath.correlation entry point from this check.
    src = Path(redfield_slippage.__file__).parent
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    allowed = {"max_radial_depth"} | {n for names in BENCH_NAMES.values() for n in names}
    unreached = []
    for tree in trees:
        for qualname, definition in _definitions(tree):
            if qualname in allowed:
                continue
            inside = {id(n) for n in ast.walk(definition)}
            name = qualname.rsplit(".", 1)[-1]
            if not any(r == name and id(n) not in inside for r, n in refs):
                unreached.append(qualname)
    assert not unreached


def test_every_import_is_read():
    # a name that a module imports and never reads is dead weight, or a
    # leftover of deleted code that still loads its module. Exempt are the
    # re-exports of __init__.py and `from __future__ import annotations`
    src = Path(redfield_slippage.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}: {name}")
    assert not unread


def test_every_module_constant_is_read():
    # an upper-case module-level constant that no package code reads
    # configures nothing: the leftover of a deleted loop or option
    src = Path(redfield_slippage.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    constants = [
        (name, target.id)
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(stmt)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store) and target.id.isupper()
    ]
    assert constants
    assert [f"{name}: {const}" for name, const in constants if const not in read] == []
