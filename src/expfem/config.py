"""Run configuration: the TOML config text and its validation.

Config text is TOML, read with the standard library's `tomllib`; its
tables flatten to dotted keys (`[domain]` then `n = ...` is `domain.n`).
`parse_config` takes each key out of that mapping as it reads it, and
reads only the keys of the chosen mode and problem; a key left over,
misspelt or one that the mode or the problem does not read, is an
error.  Config checks the TOML types and the rules no other object
owns (T > 0, dt * nt = T and the cadences); every other value rule is
its owner's: `stepper.SchemeConfig` checks the scheme, c2, dt and that
T is a multiple of dt, `mesh_for` the subinterval counts, a builtin
factory's signature names the parameters its problem takes, and `cli`
owns every rule on the files that the output names give; config checks
only that each name is a non-empty string.

Custom problems may define their PDE data through a small expression
language over t, u and the coordinates, supporting arithmetic, exp, ln,
tanh, sin, cos and pi.  `compile_expression` turns each expression
straight into the callable a `Problem` takes: f(t, u, xs), u0(xs),
the trace g(t, xs) of its `Dirichlet` boundary and exact(t, xs), with
x, y and z the entries of the coordinate tuple xs.  All of these
functions are analytic, so the trace g and the exact solution also take
the complex arguments of the complex-step derivatives.  Every number
of an expression is a double, so its arithmetic gives inf or nan where
Python's would hang on a huge integer, raise or go complex; the run's
admissibility checks then stop a non-finite u0, f or g.
"""

import ast
import inspect
import math
import tomllib
from dataclasses import dataclass

import numpy as np

from .mesh import Dirichlet, Periodic, dof_shape
from .problems import BUILTIN_FACTORIES, Problem, mesh_for
from .stepper import SchemeConfig


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config text parsing

def parse_keyvalues(text):
    """Parse TOML config text into a flat {dotted.key: value} mapping."""
    try:
        tree = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(f"malformed config: {err}") from None
    values = {}

    def flatten(table, prefix):
        for key, value in table.items():
            if isinstance(value, dict):
                flatten(value, f"{prefix}{key}.")
            else:
                values[prefix + key] = value

    flatten(tree, "")
    return values


# ---------------------------------------------------------------------------
# expression mini-language

_FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
}
_CONSTANTS = {"pi": np.float64(math.pi)}
# the syntax an expression may hold: names, numbers, calls, the unary
# signs and + - * / **; any other node is "unsupported syntax"
_NODES = (ast.Expression, ast.Name, ast.Load, ast.Constant, ast.Call,
          ast.UnaryOp, ast.UAdd, ast.USub,
          ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def compile_expression(source, scalars, coords):
    """Compile an expression into the callable `fn(*scalars, xs)`.

    The callable binds the names of `scalars` (such as "t" and "u") to
    its leading arguments in order, and those of `coords` to the
    entries of the coordinate tuple `xs`, as a `Problem` calls it.
    Besides them an expression may use numbers, + - * / and ** (or ^),
    the constant pi and one-argument calls of exp, ln, tanh, sin and cos.

    Every number is a double: each literal, pi and each scalar argument
    is a numpy scalar, so the arithmetic is numpy's, which overflows to
    inf and divides by zero to inf or nan, where Python's integers would
    grow without bound and its floats and complex numbers raise.
    """
    if not isinstance(source, str):
        raise ConfigError(f"expression must be a string, got {source!r}")
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"bad expression {source!r}: {err.msg}") from None
    names = {*scalars, *coords, *_CONSTANTS}
    callees = set()  # ast.walk meets a call before its callee
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ConfigError(f"unsupported syntax in expression {source!r}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in _FUNCTIONS
                    and len(node.args) == 1 and not node.keywords):
                raise ConfigError(f"unsupported call in expression {source!r}")
            callees.add(node.func)
        elif (isinstance(node, ast.Name) and node not in callees
              and node.id not in names):
            raise ConfigError(f"unknown name {node.id!r} in expression {source!r}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            # True and False are ints to Python; u + True must not read u + 1
            raise ConfigError(
                f"boolean constant {node.value!r} in expression {source!r}")
        elif isinstance(node, ast.Constant) and not isinstance(
                node.value, (int, float)):
            raise ConfigError(f"unsupported syntax in expression {source!r}")
    namespace = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

    class Doubles(ast.NodeTransformer):
        """Each literal becomes a name bound to its double, one that the
        checks above keep out of the expression's own names."""

        def visit_Constant(self, node):
            name = f"_{len(namespace)}"
            namespace[name] = np.float64(_to_float(node.value))
            return ast.copy_location(ast.Name(name, ast.Load()), node)

    code = compile(Doubles().visit(tree), "<config-expression>", "eval")

    def fn(*args):
        *head, xs = args
        # a Python number becomes a numpy scalar, an array stays one
        return eval(code, namespace, {
            name: np.asarray(value)[()]
            for name, value in zip((*scalars, *coords), (*head, *xs))})

    return fn


# ---------------------------------------------------------------------------
# run configuration

_AXES = ("x", "y", "z")
_MODES = ("run", "convergence", "timing")


@dataclass
class RunConfig:
    """Validated run description built by `parse_config`.

    A run sets `subdivisions`, `dt`, `nt`, the cadences and the series
    and snapshot names; a ladder sets `rungs`, its (per-axis
    subdivisions, nt) pairs, and the report name, and a spatial ladder
    `dt` and `nt` too.
    """

    mode: str = "run"
    problem: Problem = None
    scheme: str = "rk2"
    c2: float = 0.5
    dt: float = None
    nt: int = None
    T: float = None
    seed: int = None
    subdivisions: list = None
    rungs: list = None
    observe_every: int = None
    snapshot_every: int = 0
    out_report: str = "report.csv"
    out_series: str = "series.csv"
    out_snapshot: str = "snapshot_{step:06d}.vtk"


def _require(values, key):
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")
    return values.pop(key)


def _is_int(value):
    # TOML's true and false are Python ints too
    return isinstance(value, int) and not isinstance(value, bool)


def _to_float(value):
    """An int or a float as a float; an integer beyond the float range
    is inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite(value, key):
    """A config number as a finite float; booleans, strings, NaN and
    infinities are errors."""
    if _is_int(value) or isinstance(value, float):
        number = _to_float(value)
        if math.isfinite(number):
            return number
    raise ConfigError(f"key {key!r} must be a finite number, got {value!r}")


def _bounds(value):
    """domain.bounds as a tuple of finite (a, b) pairs."""
    if not isinstance(value, list) or not all(
            isinstance(b, list) and len(b) == 2 for b in value):
        raise ConfigError("domain.bounds must be a list of [a, b] pairs")
    pairs = tuple((_finite(a, "domain.bounds"), _finite(b, "domain.bounds"))
                  for a, b in value)
    for a, b in pairs:
        if not b > a:
            raise ConfigError(f"domain.bounds pair [{a}, {b}] needs b > a")
    return pairs


def _int_list(value, key):
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ConfigError(f"key {key!r} must be a list of integers")
    return value


def _counts(problem, value, key):
    """Per-axis subinterval counts, checked by building the mesh."""
    try:
        mesh_for(problem, _int_list(value, key))
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    return value


def _build_problem(values, seed):
    name = _require(values, "problem")
    if name == "custom":
        return _build_custom_problem(values)
    if not isinstance(name, str) or name not in BUILTIN_FACTORIES:
        raise ConfigError(
            f"unknown problem {name!r}; expected one of "
            f"{sorted(BUILTIN_FACTORIES)} or \"custom\"")
    factory = BUILTIN_FACTORIES[name]
    # a factory's float parameters are config keys (allen_cahn_wave's
    # integer `dim` is not); `seed` is read for every problem, as --seed
    # sets it for all, and passed where taken
    params = inspect.signature(factory).parameters
    kwargs = {key: _finite(values.pop(key), key) for key, p in params.items()
              if isinstance(p.default, float) and key in values}
    if seed is not None and "seed" in params:
        kwargs["seed"] = seed
    try:
        problem = factory(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    declared = "periodic" if problem.periodic else "dirichlet"
    bc = values.pop("domain.bc", declared)
    if bc != declared:
        raise ConfigError(f"domain.bc = {bc!r} conflicts with problem "
                          f"{name!r} (declares {declared!r})")
    if "domain.bounds" in values:
        given = _bounds(values.pop("domain.bounds"))
        if len(given) != problem.dim or any(
                abs(ga - pa) > 1e-12 or abs(gb - pb) > 1e-12
                for (ga, gb), (pa, pb) in zip(given, problem.domain)):
            raise ConfigError(f"domain.bounds conflicts with problem {name!r}")
    return problem


def _build_custom_problem(values):
    domain = _bounds(_require(values, "domain.bounds"))
    dim = len(domain)
    if not 1 <= dim <= 3:
        raise ConfigError(f"domain.bounds must have 1..3 axes, got {dim}")
    coords = _AXES[:dim]
    bc = values.pop("domain.bc", "dirichlet")
    if bc not in ("dirichlet", "periodic"):
        raise ConfigError(f"domain.bc must be 'dirichlet' or 'periodic', got {bc!r}")

    diffusion = _finite(_require(values, "custom.d"), "custom.d")
    if diffusion <= 0:
        raise ConfigError(f"custom.d must be positive, got {diffusion}")
    f = compile_expression(_require(values, "custom.f"), ("t", "u"), coords)
    u0 = compile_expression(_require(values, "custom.u0"), (), coords)
    kind = Periodic() if bc == "periodic" else Dirichlet()
    if "custom.g" in values:
        if bc == "periodic":
            raise ConfigError("key custom.g conflicts with periodic domain.bc")
        kind = Dirichlet(compile_expression(values.pop("custom.g"), ("t",), coords))
    exact = None
    if "custom.exact" in values:
        exact = compile_expression(values.pop("custom.exact"), ("t",), coords)
    return Problem(name="custom", diffusion=diffusion, f=f, domain=domain,
                   bc=kind, u0=u0, exact=exact)


def parse_config(text, seed_override=None):
    """Parse and validate config text into a RunConfig."""
    values = parse_keyvalues(text)
    seed = values.pop("seed", None)
    if seed_override is not None:
        seed = int(seed_override)
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    cfg = RunConfig(mode=values.pop("mode", "run"), seed=seed)
    if cfg.mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg.mode!r}")
    where = f"mode {cfg.mode!r}"
    cfg.problem = _build_problem(values, seed)
    if cfg.mode == "convergence" and cfg.problem.exact is None:
        raise ConfigError(
            f"convergence mode needs an exact solution, which problem "
            f"{cfg.problem.name!r} does not have")
    cfg.scheme = values.pop("scheme", cfg.scheme)
    cfg.c2 = _finite(values.pop("c2", cfg.c2), "c2")
    cfg.T = _finite(values.pop("T", cfg.problem.T_default), "T")
    if cfg.T <= 0:
        raise ConfigError(f"T must be positive, got {cfg.T}")

    if cfg.mode == "run":
        _resolve_steps(cfg, values)
        cfg.subdivisions = _counts(cfg.problem, _require(values, "domain.n"),
                                   "domain.n")
        _resolve_outputs(cfg, values)
    else:
        kind = _require(values, "ladder.kind")
        where += f" with ladder.kind {kind!r}"
        cfg.rungs = _resolve_ladder(cfg, values, kind)
        cfg.out_report = _output_name(values, "report", cfg.out_report)
    if values:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, sorted(values)))}: not "
            f"read for problem {cfg.problem.name!r} in {where}")
    return cfg


def _steps(cfg, dt):
    """Steps of length dt to T, by the run's `SchemeConfig`, whose checks
    of dt, the scheme and c2 become config errors."""
    try:
        return SchemeConfig(dt=dt, T=cfg.T, scheme=cfg.scheme,
                            c2=cfg.c2).num_steps()
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _resolve_steps(cfg, values):
    dt = values.pop("dt", None)
    nt = values.pop("nt", None)
    if dt is None and nt is None:
        raise ConfigError("one of dt or nt is required")
    if nt is not None and not (_is_int(nt) and nt >= 1):
        raise ConfigError(f"nt must be a positive integer, got {nt!r}")
    cfg.dt = cfg.T / nt if dt is None else _finite(dt, "dt")
    cfg.nt = _steps(cfg, cfg.dt)
    if nt is not None and nt != cfg.nt:
        raise ConfigError(f"dt * nt = {cfg.dt * nt} does not equal T = {cfg.T}")


def _output_name(values, key, default):
    name = values.pop(f"output.{key}", default)
    if not (isinstance(name, str) and name):
        raise ConfigError(
            f"output.{key} must be a string naming a file, got {name!r}")
    return name


def _resolve_outputs(cfg, values):
    """A run's cadences and file names; `cli` checks the files the names
    give before any step runs."""
    cadence = values.pop("observe_every", max(1, cfg.nt // 100))
    if not _is_int(cadence) or cadence < 1:
        raise ConfigError(f"observe_every must be a positive integer, got {cadence!r}")
    cfg.observe_every = cadence
    snap = values.pop("snapshot_every", 0)
    if not _is_int(snap) or snap < 0:
        raise ConfigError(f"snapshot_every must be a nonnegative integer, got {snap!r}")
    cfg.snapshot_every = snap
    cfg.out_series = _output_name(values, "series", cfg.out_series)
    cfg.out_snapshot = _output_name(values, "snapshot", cfg.out_snapshot)


def _resolve_ladder(cfg, values, kind):
    """A ladder's (per-axis subdivisions, nt) rungs: a spatial ladder
    refines ladder.n at the run's nt, a temporal one ladder.nt on
    domain.n."""
    if kind not in ("spatial", "temporal"):
        raise ConfigError(f"ladder.kind must be 'spatial' or 'temporal', got {kind!r}")
    if cfg.mode == "timing" and kind != "spatial":
        raise ConfigError("timing mode requires ladder.kind = \"spatial\"")
    if kind == "temporal":
        nts = _int_list(_require(values, "ladder.nt"), "ladder.nt")
        if not nts or min(nts) < 1:
            raise ConfigError(f"ladder.nt must list positive step counts, got {nts}")
        for nt in nts:
            _steps(cfg, cfg.T / nt)
        base = _counts(cfg.problem, _require(values, "domain.n"), "domain.n")
        return [(base, nt) for nt in nts]
    _resolve_steps(cfg, values)
    raw = _require(values, "ladder.n")
    if not (isinstance(raw, list) and raw
            and all(isinstance(r, list) for r in raw)):
        raise ConfigError("ladder.n must be a list of per-axis count lists")
    ladder = [_counts(cfg.problem, r, "ladder.n") for r in raw]
    if cfg.mode == "timing":
        # the growth exponent divides by the log of the ratio of
        # consecutive owned-node counts, so no two consecutive may match
        nodes = [math.prod(dof_shape(mesh_for(cfg.problem, r))) for r in ladder]
        for a, b, na, nb in zip(ladder, ladder[1:], nodes, nodes[1:]):
            if na == nb:
                raise ConfigError(
                    f"ladder.n rungs {a} and {b} both have {na} owned nodes; "
                    "a timing ladder needs consecutive rungs of different size")
    return [(r, cfg.nt) for r in ladder]
