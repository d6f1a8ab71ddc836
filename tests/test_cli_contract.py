"""The exit-code contract of the command line, fuzzed over config
documents built from README's key table.

`cli.main` returns 0, 2 or 3; it never returns 1 and never raises.  Exit
2 comes before any step and writes nothing.  Every number a run writes
is finite: the series, the snapshots and the report.  The one exception
is the error against a custom `exact` expression: the program reports
it as computed, so an exact solution that is inf or nan somewhere gives
an inf or nan error.  Such an error has no rate, so its rate cell stays
empty.

Each document is a plausible config of one mode and one problem, on at
most 8 cells per axis and at most 4 steps, with its expressions drawn
from the compiler's grammar; one mutation in two then sets one key of
the table, read in that mode or not, to a value of the wrong type, out
of range or an odd output name.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expfem import stepper
from expfem.cli import main
from expfem.problems import BUILTIN_FACTORIES

from helpers import readme_keys

AXES = ("x", "y", "z")
# the parameters each builtin takes as config keys
PARAMETERS = {"linear_rd": (), "allen_cahn_wave": ("eps",),
              "flory_huggins": ("eps", "theta", "theta_c")}
SUBCOMMANDS = {"run": "run", "convergence": "converge", "timing": "bench"}
# the report columns measured against the exact solution
ERROR_COLUMNS = ("err_l2", "err_h1")


def expressions(names):
    """Expressions of the compiler's grammar over `names`: numbers, pi,
    the names, + - * / ** ^, unary minus and the five functions."""
    leaves = st.sampled_from(["0", "1", "2", "0.5", "3", "1e308", "pi",
                              *names])
    binary = st.tuples(st.sampled_from(["+", "-", "*", "/", "**", "^"]))
    calls = st.sampled_from(["exp", "ln", "tanh", "sin", "cos", "-"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(lambda a, op, b: f"({a} {op[0]} {b})", inner, binary,
                  inner),
        st.builds(lambda fn, a: f"{fn}({a})", calls, inner)), max_leaves=6)


def counts(dim):
    return st.lists(st.integers(2, 8), min_size=dim, max_size=dim)


def maybe(draw, doc, key, values):
    """Set doc[key] to a drawn value, or leave the key out."""
    if draw(st.booleans()):
        doc[key] = draw(values)


# values a key may be mutated to: wrong types, out of range, odd names
JUNK = st.one_of(
    st.booleans(), st.integers(-3, 2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", ".", "..", "sub/x.csv", "snapshot_{step}.vtk",
                     "{x}", "s_{0}.vtk", "{step:c}", "a\0b", "series.csv",
                     "snapshot_000000.vtk", "spatial", "temporal", "euler",
                     "periodic", "1/0", "u +", "u + True"]),
    st.lists(st.integers(-1, 9), max_size=3),
    st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=3))


@st.composite
def documents(draw):
    """A config document as a {dotted key: value} mapping."""
    mode = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    problem = draw(st.sampled_from([*sorted(BUILTIN_FACTORIES), "custom"]))
    doc = {"mode": mode, "problem": problem}
    maybe(draw, doc, "scheme", st.sampled_from(["euler", "rk2"]))
    maybe(draw, doc, "c2", st.floats(0.05, 1.0))
    maybe(draw, doc, "seed", st.integers(0, 2**32))
    T = draw(st.floats(0.001, 1.0))
    doc["T"] = T
    if problem == "custom":
        dim = draw(st.integers(1, 3))
        coords = AXES[:dim]
        doc["domain.bounds"] = draw(st.lists(st.builds(
            lambda a, length: [a, a + length], st.floats(-2.0, 2.0),
            st.floats(0.1, 3.0)), min_size=dim, max_size=dim))
        maybe(draw, doc, "domain.bc", st.sampled_from(["dirichlet",
                                                       "periodic"]))
        doc["custom.d"] = draw(st.floats(0.01, 2.0))
        doc["custom.f"] = draw(expressions(("t", "u", *coords)))
        doc["custom.u0"] = draw(expressions(coords))
        if doc.get("domain.bc") != "periodic":
            maybe(draw, doc, "custom.g", expressions(("t", *coords)))
        maybe(draw, doc, "custom.exact", expressions(("t", *coords)))
    else:
        dim = len(BUILTIN_FACTORIES[problem]().domain)
        for key in PARAMETERS[problem]:
            maybe(draw, doc, key, st.floats(0.01, 2.0) | st.floats(
                0.0, exclude_min=True, allow_infinity=False))
    nt = draw(st.integers(1, 4))
    if mode == "run" or draw(st.booleans()):
        doc["nt"] = nt
        maybe(draw, doc, "dt", st.just(T / nt))
    else:
        doc["dt"] = T / nt
    if mode == "run":
        doc["domain.n"] = draw(counts(dim))
        maybe(draw, doc, "observe_every", st.integers(1, 4))
        maybe(draw, doc, "snapshot_every", st.integers(0, 3))
    else:
        kind = draw(st.sampled_from(["spatial", "temporal"]))
        doc["ladder.kind"] = kind
        if kind == "spatial":
            doc["ladder.n"] = draw(st.lists(counts(dim), min_size=1,
                                            max_size=3))
        else:
            doc.pop("dt", None)
            doc.pop("nt", None)
            doc["domain.n"] = draw(counts(dim))
            doc["ladder.nt"] = draw(st.lists(st.integers(1, 4), min_size=1,
                                             max_size=3))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(readme_keys())))] = draw(JUNK)
    return doc


def toml(doc):
    """The TOML text of a {dotted key: value} mapping."""
    def value(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, list):
            return "[" + ", ".join(map(value, v)) + "]"
        return str(v)

    lines, sections = [], {}
    for key, v in doc.items():
        section, _, name = key.rpartition(".")
        if section:
            sections.setdefault(section, []).append(f"{name} = {value(v)}")
        else:
            lines.append(f"{name} = {value(v)}")
    for section, rows in sections.items():
        lines += [f"[{section}]", *rows]
    return "\n".join(lines) + "\n"


def non_finite(path, exempt):
    """The non-finite numbers written in a file, but for the columns
    `exempt` of a CSV file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.DictReader(text.splitlines()))
        tokens = [cell for row in rows for column, cell in row.items()
                  if column not in exempt]
    else:
        tokens = re.split(r"[\s=]+", text)
    bad = []
    for token in tokens:
        try:
            number = float(token)
        except ValueError:
            continue
        if not math.isfinite(number):
            bad.append(token)
    return bad


CUSTOM_RUN = {"mode": "run", "problem": "custom", "T": 0.25, "nt": 4,
              "domain.bounds": [[0.0, 1.0]], "domain.n": [8],
              "custom.d": 0.5, "custom.f": "-u", "custom.u0": "sin(pi * x)"}
CUSTOM_LADDER = {**CUSTOM_RUN, "mode": "convergence", "ladder.kind": "spatial",
                 "ladder.n": [[4], [8]]}
del CUSTOM_LADDER["domain.n"]


FH_RUN = {"mode": "run", "problem": "flory_huggins", "T": 0.01, "nt": 2,
          "domain.n": [4, 4, 4]}
ACW_RUN = {"mode": "run", "problem": "allen_cahn_wave", "T": 0.01, "nt": 2,
           "domain.n": [8, 2, 2]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning",
                            "ignore:mesh aspect ratio:UserWarning")
@given(doc=documents())
@example(doc={**CUSTOM_RUN, "custom.u0": "9 ** 9 ** 9"})
@example(doc={**CUSTOM_RUN, "custom.u0": "1/0"})
@example(doc={**CUSTOM_RUN, "custom.u0": "2 ** 10000"})
@example(doc={**CUSTOM_RUN, "custom.u0": "(-1) ** 0.5 + 0*x"})
@example(doc={**CUSTOM_RUN, "custom.exact": "1/0"})
@example(doc={**CUSTOM_LADDER, "custom.exact": "1/0"})
@example(doc={**CUSTOM_LADDER, "custom.exact": False})
@example(doc={**CUSTOM_RUN, "domain.bounds": [[0.0, 1.0]] * 2,
              "domain.n": [2, 2], "custom.g": "(0 / 0)", "snapshot_every": 1})
@example(doc={**CUSTOM_RUN, "custom.g": "ln(t)", "snapshot_every": 1})
@example(doc={**FH_RUN, "eps": 1e308})
@example(doc={**FH_RUN, "eps": 1e-300})
@example(doc={**ACW_RUN, "eps": 1e308})
def test_cli_exit_code_contract(doc):
    # numpy warns of the overflows and the divisions by zero that the
    # documents ask for; a ComplexWarning stays an error
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.toml"
        config.write_text(toml(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        argv = [SUBCOMMANDS.get(str(doc["mode"]), "run"), "--config",
                str(config), "--out", str(out)]
        with mock.patch.object(stepper, "exp_euler_step",
                               wraps=stepper.exp_euler_step) as euler, \
                mock.patch.object(stepper, "exp_rk2_step",
                                  wraps=stepper.exp_rk2_step) as rk2:
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert euler.call_count == rk2.call_count == 0
            assert not out.exists()
        exempt = ERROR_COLUMNS if "custom.exact" in doc else ()
        written = [path for path in out.rglob("*") if path.is_file()]
        for path in written:
            assert non_finite(path, exempt) == [], path.name
        if code == 0 and doc["mode"] == "run":
            assert written

