import math
import re
from pathlib import Path

import numpy as np
import pytest

from expfem.analysis import error_norms
from expfem.assembly import initial_state
from expfem.config import (_CONSTANTS, _FUNCTIONS, ConfigError,
                           compile_expression, parse_config, parse_keyvalues)
from expfem.mesh import Dirichlet, Periodic
from expfem.problems import (builtin_allen_cahn_wave, builtin_linear_rd,
                             mesh_for)
from expfem.stepper import SchemeConfig, run
from expfem.transforms import inverse_transform

from helpers import readme_keys

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
    # the dimension of a custom problem is that of domain.bounds alone
    with pytest.raises(ConfigError) as exc:
        parse_config('problem = "custom"\nnt = 4\n'
                     + PROBLEM_SECTIONS["custom"] + "dim = 3\n")
    assert "custom.dim" in str(exc.value)
    # TOML allows each table header once
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[domain]\nbc = \"dirichlet\"\n")


@pytest.mark.parametrize("line, message", [
    ("series = 5", "output.series must be a string"),
], ids=["series_not_a_string"])
def test_bad_output_names_rejected(line, message):
    # config checks an output name's type; `cli` checks the files the
    # names give (tests/test_cli.py)
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + f"[output]\n{line}\n")
    assert message in str(exc.value)


def test_snapshot_name_formats_with_step():
    cfg = parse_config(MINIMAL + '[output]\nsnapshot = "s_{step}.vtk"\n')
    assert cfg.out_snapshot.format(step=12) == "s_12.vtk"
    assert parse_config(MINIMAL).out_snapshot == "snapshot_{step:06d}.vtk"


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
    ua = initial_state(a.problem, mesh_for(a.problem, mesh_shape))
    ub = initial_state(b.problem, mesh_for(b.problem, mesh_shape))
    assert not np.array_equal(ua, ub)
    assert b.seed == 9


def test_observer_cadence_validation():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "observe_every = 0\n")
    assert "observe_every" in str(exc.value)


def _run_text(top="nt = 16\n", n="[8, 4]"):
    return f'mode = "run"\nproblem = "linear_rd"\n{top}[domain]\nn = {n}\n'


def _spatial_text(n):
    return ('mode = "convergence"\nproblem = "linear_rd"\nnt = 16\n'
            f'[ladder]\nkind = "spatial"\nn = {n}\n')


def _temporal_text(base="[8, 4]", nt="[4, 8]"):
    return ('mode = "convergence"\nproblem = "linear_rd"\n'
            f'[domain]\nn = {base}\n[ladder]\nkind = "temporal"\nnt = {nt}\n')


@pytest.mark.parametrize("text, key", [
    (_run_text(top="nt = true\n"), "nt"),
    (_run_text(top="nt = 16\nobserve_every = true\n"), "observe_every"),
    (_run_text(top="nt = 16\nsnapshot_every = true\n"), "snapshot_every"),
    (_run_text(top="nt = 16\nsnapshot_every = false\n"), "snapshot_every"),
    (_run_text(top="nt = 16\nseed = true\n"), "seed"),
    (_run_text(n="[8, true]"), "domain.n"),
    (_spatial_text("[[4, 2], [8, true]]"), "ladder.n"),
    (_temporal_text(nt="[true, 8]"), "ladder.nt"),
    (_temporal_text(base="[true, 4]"), "domain.n"),
], ids=["nt", "observe_every", "snapshot_every", "snapshot_every_false",
        "seed", "domain.n", "ladder.n", "ladder.nt", "temporal_domain.n"])
def test_booleans_are_not_integers(text, key):
    # TOML's true is a Python int; it must not pass for 1
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert key in str(exc.value)


@pytest.mark.parametrize("text, key", [
    (_run_text(n="[1, 4]"), "domain.n"),
    (_run_text(n="[8, 0]"), "domain.n"),
    (_run_text(n="[8, -3]"), "domain.n"),
    (_spatial_text("[[4, 2], [8, 1]]"), "ladder.n"),
    (_temporal_text(base="[1, 4]"), "domain.n"),
], ids=["domain.n_1", "domain.n_0", "domain.n_negative", "ladder.n",
        "temporal_domain.n"])
def test_subdivision_counts_below_two_rejected(text, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert key in str(exc.value) and "at least 2" in str(exc.value)


_CUSTOM_1D = ('mode = "run"\nproblem = "custom"\nnt = 4\n[domain]\n'
              'bounds = [[0.0, 1.0]]\nn = [8]\n[custom]\nd = 0.5\n'
              'f = "-u"\nu0 = "sin(pi * x)"\n')


@pytest.mark.parametrize("text, seed, key", [
    (_run_text(top="nt = 16\nseed = -1\n"), None, "seed"),
    (_run_text(), -2, "seed"),
    (_CUSTOM_1D.replace("d = 0.5", "d = 0"), None, "custom.d"),
    (_CUSTOM_1D.replace("d = 0.5", "d = -0.5"), None, "custom.d"),
    (_CUSTOM_1D.replace("[[0.0, 1.0]]", "[[1.0, 0.0]]"), None,
     "domain.bounds"),
    (_CUSTOM_1D.replace("[[0.0, 1.0]]", "[[0.5, 0.5]]"), None,
     "domain.bounds"),
    ('mode = "convergence"\nproblem = "flory_huggins"\nnt = 2\n'
     '[ladder]\nkind = "spatial"\nn = [[2, 2, 2], [4, 4, 4]]\n', None,
     "exact solution"),
    (_CUSTOM_1D.replace('mode = "run"', 'mode = "convergence"')
     + '[ladder]\nkind = "spatial"\nn = [[4], [8]]\n', None,
     "exact solution"),
], ids=["seed_negative", "seed_override_negative", "d_zero", "d_negative",
        "bounds_reversed", "bounds_empty", "convergence_flory_huggins",
        "convergence_custom_without_exact"])
def test_inputs_that_fail_in_a_run_are_config_errors(text, seed, key):
    # the run would raise on each; the config check rejects it first
    with pytest.raises(ConfigError) as exc:
        parse_config(text, seed_override=seed)
    assert key in str(exc.value)


def test_smallest_valid_counts_accepted():
    assert parse_config(_run_text(n="[2, 2]")).subdivisions == [2, 2]
    assert parse_config(_run_text(top="nt = 1\nobserve_every = 1\n"
                                      "snapshot_every = 0\nseed = 0\n")).nt == 1
    assert parse_config(_spatial_text("[[2, 2], [4, 4]]")).rungs == [
        ([2, 2], 16), ([4, 4], 16)]


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
    assert cfg.rungs == [([64, 32], 4), ([64, 32], 8), ([64, 32], 16)]
    assert cfg.dt is None and cfg.nt is None


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
    assert cfg.rungs == [([8, 4], 64), ([16, 8], 64)]


def test_timing_ladder_rejects_equal_consecutive_node_counts():
    # 8 x 4 and 4 x 8 subintervals both own 7 * 3 = 21 nodes
    text = _spatial_text("[[8, 4], [4, 8], [16, 8]]")
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace("convergence", "timing"))
    assert "[8, 4] and [4, 8]" in str(exc.value)
    assert [r for r, _ in parse_config(text).rungs] == [
        [8, 4], [4, 8], [16, 8]]


_SPATIAL = _spatial_text("[[4, 2], [8, 4]]")


@pytest.mark.parametrize("text, key", [
    ("dt = 0.25\n" + _temporal_text(), "dt"),
    ("nt = 8\n" + _temporal_text(), "nt"),
    (_SPATIAL + "[domain]\nn = [8, 4]\n", "domain.n"),
    (_run_text() + '[ladder]\nkind = "spatial"\n', "ladder.kind"),
    (_run_text() + "[ladder]\nnt = [4, 8]\n", "ladder.nt"),
    ("observe_every = 2\n" + _SPATIAL, "observe_every"),
    ("snapshot_every = 2\n" + _temporal_text(), "snapshot_every"),
    (_SPATIAL + '[output]\nseries = "s.csv"\n', "output.series"),
    (_temporal_text() + '[output]\nsnapshot = "s_{step}.vtk"\n',
     "output.snapshot"),
    (_run_text() + '[output]\nreport = "r.csv"\n', "output.report"),
], ids=["dt_temporal", "nt_temporal", "domain.n_spatial", "ladder.kind_run",
        "ladder.nt_run", "observe_every_ladder", "snapshot_every_ladder",
        "output.series_ladder", "output.snapshot_ladder", "output.report_run"])
def test_keys_the_mode_does_not_read_rejected(text, key):
    # a key the mode would drop unread is an error, as is a parameter the
    # problem does not take
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert repr(key) in str(exc.value)


def test_scheme_config_checks_become_config_errors():
    # the scheme, c2, dt and the multiple-of-dt rule are SchemeConfig's
    for top, key in [('scheme = "rk3"\nnt = 4\n', "scheme"),
                     ("c2 = 1.5\nnt = 4\n", "c2"),
                     ("dt = -0.25\n", "dt"),
                     ("dt = 0.3\n", "dt"),
                     ("dt = 1e10\n", "dt")]:
        with pytest.raises(ConfigError) as exc:
            parse_config(_run_text(top=top))
        assert key in str(exc.value)
    with pytest.raises(ConfigError, match="scheme"):
        parse_config('scheme = "rk3"\n' + _temporal_text())
    # a temporal ladder's rungs build them, so it needs at least one
    with pytest.raises(ConfigError, match="ladder.nt"):
        parse_config('scheme = "rk3"\n' + _temporal_text(nt="[]"))


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
    f = compile_expression("-(u^3 - u) / 0.0025", ("t", "u"), ("x",))
    u = np.array([0.5, -0.5])
    out = f(0.0, u, (np.zeros(2),))
    assert np.allclose(out, (u - u**3) / 0.0025)
    g = compile_expression("exp(-pi^2 * t) * sin(pi * x)", ("t",), ("x",))
    assert g(0.1, (0.5,)) == pytest.approx(math.exp(-math.pi**2 * 0.1))
    h = compile_expression("tanh(x) + ln(1 + x) + cos(x)", (), ("x",))
    assert h((0.3,)) == pytest.approx(
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
            compile_expression(bad, (), ("x",))


@pytest.mark.parametrize("expr", ["u + True", "u * False", "-True"])
def test_expression_compiler_rejects_booleans(expr):
    # True and False are Python ints: u + True would read u + 1
    with pytest.raises(ConfigError) as exc:
        compile_expression(expr, ("t", "u"), ("x",))
    assert repr(expr) in str(exc.value) and "boolean" in str(exc.value)


@pytest.mark.parametrize("expr, message", [
    ("exp + 1", "unknown name 'exp'"),  # a function only as a callee
    ("exp(sin)", "unknown name 'sin'"),
    ("y", "unknown name 'y'"),  # a coordinate the box does not have
    ("pi(x)", "unsupported call"),
    ("sin(x=1)", "unsupported call"),
    ("exp(u)(t)", "unsupported call"),
    ("u % 2", "unsupported syntax"),
    ("u < 1", "unsupported syntax"),
    ("'a'", "unsupported syntax"),
    ("1j", "unsupported syntax"),
    ("sin(*x)", "unsupported syntax"),
])
def test_expression_compiler_names_what_it_rejects(expr, message):
    with pytest.raises(ConfigError) as exc:
        compile_expression(expr, ("t", "u"), ("x",))
    assert str(exc.value) == f"{message} in expression {expr!r}"


def test_readme_expression_grammar_matches_the_compiler():
    # README's custom-expression paragraph names in backticks each
    # function and constant an expression may use, and no other name
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    paragraph = text.split("The expressions of `custom.f`", 1)[1].split(
        "\n\n", 1)[0]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    assert names == set(_FUNCTIONS) | set(_CONSTANTS)


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
    mesh = mesh_for(prob, cfg.subdivisions)
    state = run(prob, mesh, SchemeConfig(dt=cfg.dt, T=cfg.T, scheme=cfg.scheme))
    assert state.step_index == 8


def _custom_config(bounds, n, d, f, u0, **extra):
    """A custom run config; `extra` holds further [custom] expressions."""
    lines = [f'{key} = "{value}"' for key, value in
             dict(f=f, u0=u0, **extra).items()]
    return "\n".join([
        'problem = "custom"', "nt = 1", "[domain]", f"bounds = {bounds}",
        f"n = {n}", "[custom]", f"d = {d!r}", *lines]) + "\n"


def _end_state(prob, subs, T, nt, scheme):
    mesh = mesh_for(prob, subs)
    state = run(prob, mesh, SchemeConfig(dt=T / nt, T=T, scheme=scheme))
    return mesh, state, inverse_transform(state.coeffs, mesh)


def test_custom_allen_cahn_wave_gives_the_builtin_bits():
    # the builtin's front and reaction, written out as config text: one
    # lifted 2D run, whose g and exact take complex t and x
    eps = 0.05
    speed = 3.0 / (math.sqrt(2.0) * eps)
    width = 2.0 * math.sqrt(2.0) * eps
    front = f"0.5 * (1.0 - tanh((x - {speed!r} * {{t}}) / {width!r}))"
    text = _custom_config(
        f"[[0.0, {math.sqrt(2.0)!r}], [0.0, 0.125]]", [64, 4], 1.0,
        f=f"u * (1 - u * u) / {eps ** 2!r}", u0=front.format(t="0.0"),
        g=front.format(t="t"), exact=front.format(t="t"))
    builtin = builtin_allen_cahn_wave(eps=eps, dim=2)
    custom = parse_config(text).problem
    ends = [_end_state(prob, (64, 4), builtin.T_default, 8, "rk2")
            for prob in (builtin, custom)]
    (mesh, state, want), (_, _, got) = ends
    assert np.array_equal(got, want)
    assert (error_norms(got, mesh, custom.exact, state.t)
            == error_norms(want, mesh, builtin.exact, state.t))


def test_custom_linear_rd_with_its_reaction_in_f_follows_the_builtin():
    # the builtin splits its reaction into linear part and source; the
    # config copy evaluates the whole of it in f at every load
    sines = "sin(pi * x) * sin(pi * y)"
    text = _custom_config(
        "[[0.5, 2.5], [0.0, 1.0]]", [16, 8], 0.5,
        f=f"-0.5 * pi^2 * u + 0.5 * pi^2 * exp(-pi^2 * t) * {sines}",
        u0="(sin(pi * x) - 1) * sin(pi * y)")
    want = _end_state(builtin_linear_rd(), (16, 8), 1.0, 8, "euler")[2]
    got = _end_state(parse_config(text).problem, (16, 8), 1.0, 8, "euler")[2]
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_custom_expressions_bind_each_coordinate_to_its_axis(bc):
    bounds = ((0.0, 1.0), (-1.0, 3.0), (2.0, 2.5))
    n = (4, 6, 8)
    text = _custom_config([list(b) for b in bounds], list(n), 1.0,
                          f="0 * u", u0="x + 10 * y + 100 * z")
    prob = parse_config(text.replace("[custom]",
                                      f'bc = "{bc}"\n[custom]')).problem
    first = 0 if bc == "periodic" else 1
    x, y, z = (a + (b - a) / m * np.arange(first, m)
               for (a, b), m in zip(bounds, n))
    want = (x[:, None, None] + 10 * y[None, :, None]
            + 100 * z[None, None, :])
    got = initial_state(prob, mesh_for(prob, n))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)


@pytest.mark.parametrize("bc, g, kind", [
    (None, None, Dirichlet),
    ("dirichlet", None, Dirichlet),
    ("periodic", None, Periodic),
    (None, "1 + x * t", Dirichlet),
    ("dirichlet", "1 + x * t", Dirichlet),
])
def test_custom_problem_takes_its_boundary_kind_from_bc_and_g(bc, g, kind):
    text = _custom_config("[[0.0, 1.0]]", [4], 1.0, f="0 * u", u0="x",
                          **({} if g is None else dict(g=g)))
    if bc is not None:
        text = text.replace("[custom]", f'bc = "{bc}"\n[custom]')
    prob = parse_config(text).problem
    assert type(prob.bc) is kind and prob.periodic == (kind is Periodic)
    if g is not None:
        assert float(prob.bc.trace(2.0, (np.asarray(0.5),))) == 2.0


def test_custom_trace_conflicts_with_a_periodic_domain():
    text = _custom_config("[[0.0, 1.0]]", [4], 1.0, f="0 * u", u0="x",
                          g="x").replace("[custom]", 'bc = "periodic"\n[custom]')
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == "key custom.g conflicts with periodic domain.bc"


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
    text = ('problem = "custom"\nnt = 4\n[domain]\nbounds = [[0.2, 0.9]]\n'
            f'n = [4]\n[custom]\nd = 1.0\nf = "0 * u"\nu0 = "x"\n'
            f'g = "{expr}"\nexact = "{expr}"\n')
    prob = parse_config(text).problem
    t, x = 0.7, np.linspace(0.2, 0.9, 5)
    grad = _exact_gradient(prob.exact, t, (x,), 0)
    assert np.max(np.abs(grad - d_dx(t, x))) < 1e-12
    ctx = LoadContext(prob, mesh_for(prob, (4,)))
    g, gdot = _trace_faces(ctx, t)
    for face, value, rate in zip((0.2, 0.9), g[0], gdot[0]):
        want = float(prob.bc.trace(t, (face,)))
        assert float(value) == pytest.approx(want, rel=1e-14)
        assert abs(float(rate) - d_dt(t, face)) < 1e-12


_CUSTOM_1D = ('problem = "custom"\nnt = 4\n[domain]\nbounds = {bounds}\n'
              'n = [8]\n[custom]\nd = {d}\nf = "0 * u"\nu0 = "x"\n')
_WAVE = 'problem = "allen_cahn_wave"\nnt = 4\n{top}[domain]\nn = [8, 2, 2]\n'
_FH = 'problem = "flory_huggins"\nnt = 4\n{top}[domain]\nn = [4, 4, 4]\n'


def _builtin_bounds(bounds):
    return _run_text().replace("[domain]\n", f"[domain]\nbounds = {bounds}\n")


@pytest.mark.parametrize("text, key", [
    (_run_text(top="nt = 16\nT = true\n"), "T"),
    (_run_text(top='nt = 16\nT = "abc"\n'), "T"),
    (_run_text(top="nt = 16\nT = inf\n"), "T"),
    (_run_text(top="nt = 16\nT = nan\n"), "T"),
    (_run_text(top="nt = 16\nT = -nan\n"), "T"),
    (_run_text(top="nt = 16\nT = 1%s\n" % ("0" * 400)), "T"),
    (_run_text(top="dt = true\n"), "dt"),
    (_run_text(top="dt = nan\n"), "dt"),
    (_run_text(top="dt = [0.1]\n"), "dt"),
    (_run_text(top="nt = 16\nc2 = true\n"), "c2"),
    (_run_text(top="nt = 16\nc2 = nan\n"), "c2"),
    (_WAVE.format(top="eps = true\n"), "eps"),
    (_WAVE.format(top='eps = "0.1"\n'), "eps"),
    (_WAVE.format(top="eps = inf\n"), "eps"),
    (_FH.format(top="theta = nan\n"), "theta"),
    (_FH.format(top="theta_c = false\n"), "theta_c"),
    (_CUSTOM_1D.format(bounds="[[0.0, 1.0]]", d="true"), "custom.d"),
    (_CUSTOM_1D.format(bounds="[[0.0, 1.0]]", d="nan"), "custom.d"),
    (_CUSTOM_1D.format(bounds="[[0.0, 1.0]]", d='"1"'), "custom.d"),
    (_CUSTOM_1D.format(bounds="[[0.0, inf]]", d="1.0"), "domain.bounds"),
    (_CUSTOM_1D.format(bounds="[[true, 1.0]]", d="1.0"), "domain.bounds"),
    (_CUSTOM_1D.format(bounds="[[0.0, 1e999]]", d="1.0"), "domain.bounds"),
    (_builtin_bounds("[[0.5, nan], [0.0, 1.0]]"), "domain.bounds"),
    (_builtin_bounds('[["a", 2.5], [0.0, 1.0]]'), "domain.bounds"),
], ids=["T_true", "T_string", "T_inf", "T_nan", "T_minus_nan",
        "T_int_beyond_float", "dt_true",
        "dt_nan", "dt_list", "c2_true", "c2_nan", "eps_true", "eps_string",
        "eps_inf", "theta_nan", "theta_c_false", "d_true", "d_nan",
        "d_string", "bounds_inf", "bounds_true", "bounds_overflow",
        "builtin_bounds_nan", "builtin_bounds_string"])
def test_float_keys_must_be_finite_numbers(text, key):
    # booleans are Python ints, strings raised a bare ValueError, and NaN
    # passed every `<= 0` check
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert key in str(exc.value)


def test_float_keys_accept_integers_and_floats():
    cfg = parse_config(_run_text(top="T = 2\nnt = 16\nc2 = 1\n"))
    assert (cfg.T, cfg.c2, cfg.dt) == (2.0, 1.0, 0.125)
    assert isinstance(cfg.T, float) and isinstance(cfg.c2, float)
    cfg = parse_config(_CUSTOM_1D.format(bounds="[[0, 2]]", d="3"))
    assert cfg.problem.domain == ((0.0, 2.0),)
    assert cfg.problem.diffusion == 3.0
    cfg = parse_config(_FH.format(top="eps = 0.02\ntheta = 1\n"))
    assert cfg.problem.energy_params == (0.02, 1.0, 1.6)


# valid configs that together use every key the parser reads
KEY_TOUR = [
    """
mode = "run"
problem = "flory_huggins"
scheme = "rk2"
c2 = 0.5
T = 0.02
dt = 0.01
nt = 2
seed = 1
eps = 0.02
theta = 0.8
theta_c = 1.6
observe_every = 1
snapshot_every = 1
[domain]
n = [4, 4, 4]
bounds = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
bc = "periodic"
[output]
series = "s.csv"
snapshot = "s_{step}.vtk"
""",
    """
mode = "convergence"
problem = "custom"
nt = 4
[domain]
bounds = [[0.0, 1.0]]
[custom]
d = 1.0
f = "-u"
u0 = "sin(pi * x)"
g = "0 * t"
exact = "exp(-(pi^2 + 1) * t) * sin(pi * x)"
[ladder]
kind = "spatial"
n = [[4], [8]]
[output]
report = "r.csv"
""",
    _temporal_text(),
]


def test_readme_key_table_matches_the_keys_the_parser_reads():
    # no table in the code lists the keys: each config parses, so the
    # parser reads every key it holds, and together they hold README's
    used = set()
    for text in KEY_TOUR:
        parse_config(text)
        used |= set(parse_keyvalues(text))
    assert used == readme_keys()
