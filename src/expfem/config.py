"""Run configuration: the TOML config text and its validation.

Config text is TOML, read with the standard library's `tomllib`; its
tables flatten to dotted keys (`[domain]` then `n = ...` is `domain.n`).
Custom problems may define their PDE data through a small expression
language over t, u and the coordinates, supporting arithmetic, exp, ln,
tanh, sin, cos and pi.  All of these are analytic, so the trace g and
the exact solution also take the complex arguments of the complex-step
derivatives.
"""

import ast
import math
import tomllib

import numpy as np

from .mesh import dof_shape
from .problems import BUILTIN_FACTORIES, Problem, mesh_for


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

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
}
_CONSTANTS = {"pi": math.pi}


def compile_expression(source, variables):
    """Compile an arithmetic expression over the named variables.

    Returns a callable taking the variables as keyword arguments (numpy
    arrays or scalars).  Only arithmetic operators, the functions exp,
    ln, tanh, sin, cos and the constant pi are allowed.
    """
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"bad expression {source!r}: {err.msg}") from None

    allowed = set(variables)

    def check(node):
        if isinstance(node, ast.Expression):
            return check(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            check(node.left)
            check(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, bool):
            # True and False are ints to Python; u + True must not read u + 1
            raise ConfigError(
                f"boolean constant {node.value!r} in expression {source!r}")
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return
        if isinstance(node, ast.Name):
            if node.id in allowed or node.id in _CONSTANTS:
                return
            raise ConfigError(f"unknown name {node.id!r} in expression {source!r}")
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                    and not node.keywords and len(node.args) == 1):
                check(node.args[0])
                return
            raise ConfigError(f"unsupported call in expression {source!r}")
        raise ConfigError(f"unsupported syntax in expression {source!r}")

    check(tree)
    code = compile(tree, "<config-expression>", "eval")
    namespace = dict(_FUNCTIONS)
    namespace.update(_CONSTANTS)

    def evaluate(**kwargs):
        scope = dict(namespace)
        scope.update(kwargs)
        return eval(code, {"__builtins__": {}}, scope)

    return evaluate


# ---------------------------------------------------------------------------
# run configuration

_AXES = ("x", "y", "z")

_TOP_KEYS = {
    "mode", "problem", "scheme", "c2", "dt", "nt", "T", "seed",
    "observe_every", "snapshot_every", "eps", "theta", "theta_c",
}
_SECTION_KEYS = {
    "domain": {"bounds", "n", "bc"},
    "custom": {"d", "f", "u0", "g", "exact"},
    "ladder": {"kind", "n", "nt"},
    "output": {"report", "series", "snapshot"},
}

_MODES = ("run", "convergence", "timing")


class RunConfig:
    """Validated run description built by `parse_config`."""

    def __init__(self):
        self.mode = "run"
        self.problem = None
        self.scheme = "rk2"
        self.c2 = 0.5
        self.dt = None
        self.nt = None
        self.T = None
        self.seed = None
        self.subdivisions = None
        self.observe_every = None
        self.snapshot_every = 0
        self.ladder_kind = None
        self.ladder_n = None
        self.ladder_nt = None
        self.out_report = "report.csv"
        self.out_series = "series.csv"
        self.out_snapshot = "snapshot_{step:06d}.vtk"


def _require(values, key):
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")
    return values[key]


def _is_int(value):
    # TOML's true and false are Python ints too
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value, key):
    """A config number as a finite float; booleans, strings, NaN and
    infinities are errors."""
    if _is_int(value) or isinstance(value, float):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
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
    return list(value)


def _subdivisions(value, key):
    counts = _int_list(value, key)
    if any(n < 2 for n in counts):
        raise ConfigError(
            f"key {key!r} needs at least 2 subintervals per axis, got {counts}")
    return counts


# the top-level parameter keys each problem's factory takes: the float
# parameters, and the integer seed; `seed` is accepted for every problem,
# as --seed sets it for all
_PROBLEM_KEYS = {
    "linear_rd": (),
    "allen_cahn_wave": ("eps",),
    "flory_huggins": ("eps", "theta", "theta_c", "seed"),
    "custom": (),
}
_PARAMETER_KEYS = ("eps", "theta", "theta_c")


def _build_problem(values):
    name = _require(values, "problem")
    if name not in _PROBLEM_KEYS:
        raise ConfigError(
            f"unknown problem {name!r}; expected one of "
            f"{sorted(BUILTIN_FACTORIES)} or \"custom\"")
    takes = _PROBLEM_KEYS[name]
    for key in _PARAMETER_KEYS:
        if key in values and key not in takes:
            raise ConfigError(f"key {key!r} does not apply to problem {name!r}")
    if name == "custom":
        return _build_custom_problem(values)
    kwargs = {k: values[k] if k == "seed" else _finite(values[k], k)
              for k in takes if k in values}
    try:
        return BUILTIN_FACTORIES[name](**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _build_custom_problem(values):
    domain = _bounds(_require(values, "domain.bounds"))
    dim = len(domain)
    if not 1 <= dim <= 3:
        raise ConfigError(f"domain.bounds must have 1..3 axes, got {dim}")
    coords = _AXES[:dim]
    bc = values.get("domain.bc", "dirichlet")
    if bc not in ("dirichlet", "periodic"):
        raise ConfigError(f"domain.bc must be 'dirichlet' or 'periodic', got {bc!r}")

    diffusion = _finite(_require(values, "custom.d"), "custom.d")
    if diffusion <= 0:
        raise ConfigError(f"custom.d must be positive, got {diffusion}")
    f_expr = compile_expression(_require(values, "custom.f"), ("t", "u") + coords)
    u0_expr = compile_expression(_require(values, "custom.u0"), coords)

    def unpack(xs):
        return dict(zip(coords, xs))

    def f(t, u, xs):
        return f_expr(t=t, u=u, **unpack(xs))

    def u0(xs):
        return u0_expr(**unpack(xs))

    g = None
    if "custom.g" in values:
        if bc == "periodic":
            raise ConfigError("key custom.g conflicts with periodic domain.bc")
        g_expr = compile_expression(values["custom.g"], ("t",) + coords)

        def g(t, xs):
            return g_expr(t=t, **unpack(xs))

    exact = None
    if "custom.exact" in values:
        e_expr = compile_expression(values["custom.exact"], ("t",) + coords)

        def exact(t, xs):
            return e_expr(t=t, **unpack(xs))

    return Problem(
        name="custom",
        diffusion=diffusion,
        f=f,
        domain=domain,
        periodic=(bc == "periodic"),
        u0=u0,
        g=g,
        exact=exact,
    )


def parse_config(text, seed_override=None):
    """Parse and validate config text into a RunConfig."""
    values = parse_keyvalues(text)
    if seed_override is not None:
        values["seed"] = int(seed_override)
    if "seed" in values and not (_is_int(values["seed"])
                                 and values["seed"] >= 0):
        raise ConfigError(
            f"seed must be a nonnegative integer, got {values['seed']!r}")
    for key in values:
        if "." in key:
            section, _, sub = key.partition(".")
            if section not in _SECTION_KEYS:
                raise ConfigError(f"unknown section {section!r}")
            if sub not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r}")
        elif key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}")

    cfg = RunConfig()
    cfg.mode = values.get("mode", "run")
    if cfg.mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg.mode!r}")

    cfg.problem = _build_problem(values)
    if cfg.mode == "convergence" and cfg.problem.exact is None:
        raise ConfigError(
            f"convergence mode needs an exact solution, which problem "
            f"{cfg.problem.name!r} does not have")

    if "domain.bc" in values and cfg.problem.name != "custom":
        declared = "periodic" if cfg.problem.periodic else "dirichlet"
        if values["domain.bc"] != declared:
            raise ConfigError(
                f"domain.bc = {values['domain.bc']!r} conflicts with problem "
                f"{cfg.problem.name!r} (declares {declared!r})")
    if "domain.bounds" in values and cfg.problem.name != "custom":
        given = _bounds(values["domain.bounds"])
        if len(given) != cfg.problem.dim or any(
                abs(ga - pa) > 1e-12 or abs(gb - pb) > 1e-12
                for (ga, gb), (pa, pb) in zip(given, cfg.problem.domain)):
            raise ConfigError(
                f"domain.bounds conflicts with problem {cfg.problem.name!r}")

    cfg.scheme = values.get("scheme", "rk2")
    if cfg.scheme not in ("euler", "rk2"):
        raise ConfigError(f"scheme must be 'euler' or 'rk2', got {cfg.scheme!r}")
    cfg.c2 = _finite(values.get("c2", 0.5), "c2")
    if not 0 < cfg.c2 <= 1:
        raise ConfigError(f"c2 must lie in (0, 1], got {cfg.c2}")

    cfg.T = _finite(values.get("T", cfg.problem.T_default), "T")
    if cfg.T <= 0:
        raise ConfigError(f"T must be positive, got {cfg.T}")

    cfg.seed = values.get("seed")

    if cfg.mode in ("convergence", "timing"):
        _resolve_ladder(cfg, values)
    else:
        _resolve_steps(cfg, values)
        cfg.subdivisions = _subdivisions(_require(values, "domain.n"),
                                         "domain.n")
        if len(cfg.subdivisions) != cfg.problem.dim:
            raise ConfigError(
                f"domain.n has {len(cfg.subdivisions)} axes, problem "
                f"{cfg.problem.name!r} is {cfg.problem.dim}D")

    cadence = values.get("observe_every", max(1, (cfg.nt or 1) // 100))
    if not _is_int(cadence) or cadence < 1:
        raise ConfigError(f"observe_every must be a positive integer, got {cadence!r}")
    cfg.observe_every = cadence
    snap = values.get("snapshot_every", 0)
    if not _is_int(snap) or snap < 0:
        raise ConfigError(f"snapshot_every must be a nonnegative integer, got {snap!r}")
    cfg.snapshot_every = snap

    # checked here, so that a bad name fails before any step runs
    for key in ("report", "series", "snapshot"):
        name = values.get(f"output.{key}", getattr(cfg, f"out_{key}"))
        if not isinstance(name, str):
            raise ConfigError(f"output.{key} must be a string, got {name!r}")
        setattr(cfg, f"out_{key}", name)
    try:
        names = [cfg.out_snapshot.format(step=step) for step in (0, 1)]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(
            f"output.snapshot {cfg.out_snapshot!r} must format with {{step}} "
            f"alone ({type(err).__name__}: {err})") from None
    if cfg.snapshot_every > 0 and names[0] == names[1]:
        raise ConfigError(
            f"output.snapshot {cfg.out_snapshot!r} gives steps 0 and 1 the "
            f"same file name {names[0]!r}, which every snapshot would "
            "overwrite")
    return cfg


def _resolve_steps(cfg, values):
    dt = values.get("dt")
    nt = values.get("nt")
    if dt is None and nt is None:
        raise ConfigError("one of dt or nt is required")
    if nt is not None:
        if not _is_int(nt) or nt < 1:
            raise ConfigError(f"nt must be a positive integer, got {nt!r}")
        cfg.nt = nt
    if dt is not None:
        dt = _finite(dt, "dt")
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        cfg.dt = dt
    if dt is not None and nt is not None:
        if abs(dt * nt - cfg.T) > 1e-9 * max(cfg.T, dt):
            raise ConfigError(
                f"dt * nt = {dt * nt} does not equal T = {cfg.T}")
    elif dt is not None:
        steps = round(cfg.T / dt)
        if steps < 1 or abs(steps * dt - cfg.T) > 1e-9 * max(cfg.T, dt):
            raise ConfigError(
                f"T = {cfg.T} is not an integer multiple of dt = {dt}")
        cfg.nt = steps
    else:
        cfg.dt = cfg.T / cfg.nt


def _resolve_ladder(cfg, values):
    kind = _require(values, "ladder.kind")
    if kind not in ("spatial", "temporal"):
        raise ConfigError(f"ladder.kind must be 'spatial' or 'temporal', got {kind!r}")
    if cfg.mode == "timing" and kind != "spatial":
        raise ConfigError("timing mode requires ladder.kind = \"spatial\"")
    cfg.ladder_kind = kind
    dim = cfg.problem.dim
    if kind == "spatial":
        _resolve_steps(cfg, values)
        raw = _require(values, "ladder.n")
        if not (isinstance(raw, list) and raw
                and all(isinstance(r, list) for r in raw)):
            raise ConfigError("ladder.n must be a list of per-axis count lists")
        cfg.ladder_n = [_subdivisions(r, "ladder.n") for r in raw]
        for r in cfg.ladder_n:
            if len(r) != dim:
                raise ConfigError(
                    f"ladder.n entry {r} has {len(r)} axes, problem is {dim}D")
        cfg.ladder_nt = [cfg.nt] * len(cfg.ladder_n)
        if cfg.mode == "timing":
            _check_node_growth(cfg)
    else:
        cfg.ladder_nt = _int_list(_require(values, "ladder.nt"), "ladder.nt")
        if any(nt < 1 for nt in cfg.ladder_nt):
            raise ConfigError("ladder.nt entries must be positive")
        base = _subdivisions(_require(values, "domain.n"), "domain.n")
        if len(base) != dim:
            raise ConfigError(
                f"domain.n has {len(base)} axes, problem is {dim}D")
        cfg.ladder_n = [base] * len(cfg.ladder_nt)


def _check_node_growth(cfg):
    """A timing ladder's growth exponent divides by the log of the ratio of
    consecutive owned-node counts, so no two consecutive rungs may match."""
    nodes = [math.prod(dof_shape(mesh_for(cfg.problem, r)))
             for r in cfg.ladder_n]
    for a, b, na, nb in zip(cfg.ladder_n, cfg.ladder_n[1:], nodes, nodes[1:]):
        if na == nb:
            raise ConfigError(
                f"ladder.n rungs {a} and {b} both have {na} owned nodes; "
                "a timing ladder needs consecutive rungs of different size")
