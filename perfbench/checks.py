"""Correctness checks on the program's outputs.

Each check raises `CheckFailed` with a message naming what is wrong.
None of them depends on the seed: bounds and monotone energy hold for
every seed, and the problems with exact solutions draw no random data.
"""

import math

import numpy as np


# relative tolerance of the L2/H1 errors at T against the reference:
# computed in process, and as the CLI prints them (6 significant digits)
ERROR_RTOL = 1e-6
CLI_ERROR_RTOL = 1e-5


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_state(U, bound, strict):
    """Finite nodal state inside the workload's admissible bound."""
    U = np.asarray(U)
    if not np.all(np.isfinite(U)):
        raise CheckFailed("state holds a non-finite value")
    sup = float(np.max(np.abs(U)))
    if sup > bound or (strict and sup == bound):
        rel = "<" if strict else "<="
        raise CheckFailed(f"sup norm {sup!r} violates |u| {rel} {bound}")


def check_errors(errors, reference, rtol):
    """(L2, H1) errors within `rtol` of the reference values."""
    for label, got, ref in zip(("L2", "H1"), errors, reference):
        if not math.isfinite(got) or abs(got - ref) > rtol * abs(ref):
            raise CheckFailed(
                f"{label} error {got!r} differs from reference {ref!r} "
                f"by more than {rtol:g} relative")


def check_energy_not_increasing(energies):
    """Energies in observation order never rise."""
    for before, after in zip(energies, energies[1:]):
        if not math.isfinite(after) or after > before:
            raise CheckFailed(f"energy rose from {before!r} to {after!r}")


def observation_steps(nt, observe_every):
    """Steps at which `run` calls its observers."""
    return sorted({0, nt} | set(range(0, nt + 1, observe_every)))


def read_series(path):
    """Rows of a series CSV as (t, sup_norm, energy or None)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,sup_norm,energy":
        raise CheckFailed(f"{path.name}: missing series header")
    rows = []
    for line in lines[1:]:
        t, sup, energy = line.split(",")
        rows.append((float(t), float(sup), float(energy) if energy else None))
    return rows


def check_series(rows, nt, observe_every, dt, with_energy):
    """One row per observation step, at the right times."""
    steps = observation_steps(nt, observe_every)
    if len(rows) != len(steps):
        raise CheckFailed(
            f"series has {len(rows)} rows, expected {len(steps)} "
            f"(steps {steps})")
    for (t, _, energy), step in zip(rows, steps):
        # the writer keeps 6 significant digits
        if abs(t - step * dt) > 1e-5 * max(abs(step * dt), 1e-300):
            raise CheckFailed(f"series row at t={t!r}, expected step {step}")
        if with_energy != (energy is not None):
            raise CheckFailed(f"series row at t={t!r} has energy {energy!r}")
    if with_energy:
        check_energy_not_increasing([row[2] for row in rows])


def check_snapshot(path, subdivisions):
    """A snapshot holds one point per node of the full grid."""
    expected = math.prod(n + 1 for n in subdivisions)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("POINT_DATA"):
                count = int(line.split()[1])
                if count != expected:
                    raise CheckFailed(
                        f"{path.name}: POINT_DATA {count}, expected {expected}")
                return
    raise CheckFailed(f"{path.name}: no POINT_DATA line")
