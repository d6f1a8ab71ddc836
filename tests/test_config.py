import math

import numpy as np
import pytest

from expfem.config import (ConfigError, compile_expression, parse_config,
                           parse_keyvalues)

MINIMAL = """
mode = "run"
problem = "linear_rd"
nt = 1024
[domain]
n = [8, 4]
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem.name == "linear_rd"
    assert cfg.scheme == "rk2" and cfg.c2 == 0.5
    assert cfg.T == 1.0 and cfg.nt == 1024
    assert cfg.dt == pytest.approx(1.0 / 1024)
    assert cfg.observe_every == 10  # max(1, nt // 100)
    assert cfg.subdivisions == [8, 4]


def test_inconsistent_dt_nt_rejected():
    text = MINIMAL + "dt = 0.5\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "dt" in str(exc.value)


def test_consistent_dt_nt_accepted():
    text = 'mode = "run"\nproblem = "linear_rd"\nnt = 4\ndt = 0.25\n' \
           '[domain]\nn = [8, 4]\n'
    cfg = parse_config(text)
    assert cfg.nt == 4 and cfg.dt == 0.25


def test_missing_step_keys_rejected():
    text = 'problem = "linear_rd"\n[domain]\nn = [8, 4]\n'
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "dt" in str(exc.value) or "nt" in str(exc.value)


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "frobnicate = 3\n")
    assert "frobnicate" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("[domain]\n", "[domain]\nwidth = 3\n"))
    assert "width" in str(exc.value)
    # TOML allows each table header once
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[domain]\nbc = \"dirichlet\"\n")


def test_bc_conflict_with_builtin_problem():
    text = 'mode = "run"\nproblem = "allen_cahn_wave"\nnt = 16\n' \
           '[domain]\nn = [8, 4, 4]\nbc = "periodic"\n'
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "periodic" in str(exc.value)


def test_seed_override_rebuilds_problem():
    text = 'mode = "run"\nproblem = "flory_huggins"\nnt = 16\nseed = 7\n' \
           '[domain]\nn = [8, 8, 8]\n'
    a = parse_config(text)
    b = parse_config(text, seed_override=9)
    mesh_shape = (8, 8, 8)
    from expfem.problems import mesh_for
    ua = a.problem.u0_nodal(mesh_for(a.problem, mesh_shape))
    ub = b.problem.u0_nodal(mesh_for(b.problem, mesh_shape))
    assert not np.array_equal(ua, ub)
    assert b.seed == 9


def test_observer_cadence_validation():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "observe_every = 0\n")
    assert "observe_every" in str(exc.value)


def test_temporal_ladder_config():
    text = """
mode = "convergence"
problem = "linear_rd"
scheme = "euler"
[domain]
n = [64, 32]
[ladder]
kind = "temporal"
nt = [4, 8, 16]
"""
    cfg = parse_config(text)
    assert cfg.ladder_nt == [4, 8, 16]
    assert cfg.ladder_n == [[64, 32]] * 3


def test_spatial_ladder_requires_fixed_stepping():
    text = """
mode = "convergence"
problem = "linear_rd"
[ladder]
kind = "spatial"
n = [[8, 4], [16, 8]]
"""
    with pytest.raises(ConfigError):
        parse_config(text)
    cfg = parse_config("nt = 64\n" + text)
    assert cfg.ladder_n == [[8, 4], [16, 8]]
    assert cfg.ladder_nt == [64, 64]


def test_keyvalue_parsing_features():
    values = parse_keyvalues("""
# comment line
a = 1
b = 2.5   # trailing comment
c = "hello"
d = true
[section]
e = [1, 2, 3]
f = [[1, 2], [3, 4]]
""")
    assert values == {
        "a": 1, "b": 2.5, "c": "hello", "d": True,
        "section.e": [1, 2, 3], "section.f": [[1, 2], [3, 4]],
    }


def test_keyvalue_duplicate_and_malformed():
    with pytest.raises(ConfigError):
        parse_keyvalues("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_keyvalues("just some words\n")
    with pytest.raises(ConfigError):
        parse_keyvalues("a = [1, 2\n")


def test_expression_compiler_evaluates():
    f = compile_expression("-(u^3 - u) / 0.0025", ("t", "u", "x"))
    u = np.array([0.5, -0.5])
    out = f(t=0.0, u=u, x=np.zeros(2))
    assert np.allclose(out, (u - u**3) / 0.0025)
    g = compile_expression("exp(-pi^2 * t) * sin(pi * x)", ("t", "x"))
    assert g(t=0.1, x=0.5) == pytest.approx(math.exp(-math.pi**2 * 0.1))
    h = compile_expression("tanh(x) + ln(1 + x) + cos(x)", ("x",))
    assert h(x=0.3) == pytest.approx(
        math.tanh(0.3) + math.log(1.3) + math.cos(0.3))


def test_expression_compiler_rejects_unsafe_syntax():
    for bad in (
            "__import__('os')",
            "x.__class__",
            "open('f')",
            "lambda: 1",
            "unknown_var + 1",
            "sin(x, 2)",
    ):
        with pytest.raises(ConfigError):
            compile_expression(bad, ("x",))


def test_custom_problem_from_config():
    text = """
mode = "run"
problem = "custom"
T = 0.5
nt = 8
[domain]
bounds = [[0.0, 1.0]]
n = [16]
bc = "dirichlet"
[custom]
d = 1.0
f = "-u + sin(pi * x)"
u0 = "sin(pi * x) * 0.5"
exact = "exp(-t) * sin(pi * x)"
"""
    cfg = parse_config(text)
    prob = cfg.problem
    assert prob.name == "custom" and prob.diffusion == 1.0
    xs = (np.asarray(0.5),)
    assert float(prob.u0(xs)) == pytest.approx(0.5)
    assert float(prob.f(0.0, np.asarray(0.25), xs)) == pytest.approx(0.75)
    assert float(prob.exact(0.0, xs)) == pytest.approx(1.0)
    # and it runs
    from expfem.problems import mesh_for
    from expfem.stepper import SchemeConfig, run
    mesh = mesh_for(prob, cfg.subdivisions)
    state = run(prob, mesh, SchemeConfig(dt=cfg.dt, T=cfg.T, scheme=cfg.scheme))
    assert state.step_index == 8


def test_mode_validation():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace('"run"', '"warp"'))


PROBLEM_SECTIONS = {
    "linear_rd": "[domain]\nn = [8, 4]\n",
    "allen_cahn_wave": "[domain]\nn = [8, 2, 2]\n",
    "custom": ('[domain]\nbounds = [[0.0, 1.0]]\nn = [8]\n'
               '[custom]\nd = 1.0\nf = "0 * u"\nu0 = "x"\n'),
}


@pytest.mark.parametrize("problem, key", [
    ("linear_rd", "eps"),
    ("allen_cahn_wave", "theta_c"),
    ("custom", "eps"),
    ("custom", "theta"),
])
def test_parameter_of_another_problem_rejected(problem, key):
    # a builtin parameter the chosen problem does not take is an error,
    # not a silently dropped value
    text = (f'problem = "{problem}"\nnt = 4\n{key} = 5.0\n'
            + PROBLEM_SECTIONS[problem])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert key in str(exc.value) and problem in str(exc.value)


def test_builtin_parameters_and_seed_still_accepted():
    wave = parse_config('problem = "allen_cahn_wave"\nnt = 4\neps = 0.1\n'
                        'seed = 3\n[domain]\nn = [8, 2, 2]\n')
    assert wave.problem.T_default == pytest.approx(
        3.0 * math.sqrt(2.0) * 0.1 / 5.0)
    rd = parse_config(MINIMAL, seed_override=9)
    assert rd.seed == 9


# each function of the expression language, with its x- and t-derivative
ANALYTIC = [
    ("exp(2 * x - t)", lambda t, x: 2.0 * np.exp(2 * x - t),
     lambda t, x: -np.exp(2 * x - t)),
    ("ln(1 + x * x + t)", lambda t, x: 2.0 * x / (1 + x * x + t),
     lambda t, x: 1.0 / (1 + x * x + t)),
    ("tanh(3 * x - t)", lambda t, x: 3.0 / np.cosh(3 * x - t) ** 2,
     lambda t, x: -1.0 / np.cosh(3 * x - t) ** 2),
    ("sin(x * t + 1)", lambda t, x: t * np.cos(x * t + 1),
     lambda t, x: x * np.cos(x * t + 1)),
    ("cos(pi * x) * t", lambda t, x: -math.pi * np.sin(math.pi * x) * t,
     lambda t, x: np.cos(math.pi * x)),
    ("x^3 / (1 + t^2)", lambda t, x: 3.0 * x ** 2 / (1 + t ** 2),
     lambda t, x: -2.0 * t * x ** 3 / (1 + t ** 2) ** 2),
]


@pytest.mark.parametrize("expr, d_dx, d_dt", ANALYTIC)
def test_config_expressions_take_complex_arguments(expr, d_dx, d_dt):
    # exact is differentiated in x and the trace g in t by a complex step
    from expfem.analysis import _exact_gradient
    from expfem.assembly import LoadContext, _trace_faces
    from expfem.problems import mesh_for
    text = ('problem = "custom"\nnt = 4\n[domain]\nbounds = [[0.2, 0.9]]\n'
            f'n = [4]\n[custom]\nd = 1.0\nf = "0 * u"\nu0 = "x"\n'
            f'g = "{expr}"\nexact = "{expr}"\n')
    prob = parse_config(text).problem
    t, x = 0.7, np.linspace(0.2, 0.9, 5)
    grad = _exact_gradient(prob.exact, t, (x,), 0)
    assert np.max(np.abs(grad - d_dx(t, x))) < 1e-12
    ctx = LoadContext(prob, mesh_for(prob, (4,)))
    g, gdot = _trace_faces(ctx, t)
    for face, value, rate in zip((0.2, 0.9), g, gdot):
        assert float(value[0]) == pytest.approx(float(prob.g(t, (face,))),
                                                rel=1e-14)
        assert abs(float(rate[0]) - d_dt(t, face)) < 1e-12
