"""Output writers: report CSV, time-series CSV, structured-grid snapshots.

Numbers are printed with 6 significant digits, switching to scientific
notation below 1e-3; undefined cells stay empty.  Snapshots use the
legacy structured-points text format so any standard viewer can open
them without bindings.
"""

from pathlib import Path

import numpy as np

from .mesh import dof_shape, extend_nodal, is_periodic

REPORT_HEADER = "nt,resolution,err_l2,cr_l2,err_h1,cr_h1,sec_per_step,growth"


def format_number(x):
    """6 significant digits, scientific below 1e-3, empty for None."""
    if x is None:
        return ""
    x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


def _write_lines(lines, path):
    """Write lines, each ended by a newline, to path, creating its parent
    directories first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def write_report_csv(rows, path):
    """Write study rows as CSV (one line per ladder rung)."""
    lines = [REPORT_HEADER]
    for row in rows:
        cells = [
            str(row.nt),
            row.resolution,
            format_number(row.err_l2),
            format_number(row.rate_l2),
            format_number(row.err_h1),
            format_number(row.rate_h1),
            format_number(row.sec_per_step),
            format_number(row.growth),
        ]
        lines.append(",".join(cells))
    _write_lines(lines, path)


def write_series_csv(rows, path):
    """Write (t, sup_norm, energy) observer rows as CSV."""
    lines = ["t,sup_norm,energy"]
    for t, sup, energy in rows:
        lines.append(",".join([
            format_number(t),
            format_number(sup),
            format_number(energy),
        ]))
    _write_lines(lines, path)


def write_snapshot(U, mesh, t, path):
    """Write one scalar field as a legacy structured-points file.

    Dirichlet fields are extended with their boundary values; periodic
    fields are written on the owned nodes only.  Point data runs
    x-fastest per the format's convention.
    """
    if is_periodic(mesh.bc):
        full = np.asarray(U, dtype=float)
        if list(full.shape) != dof_shape(mesh):
            raise ValueError(
                f"shape {full.shape} does not match mesh {dof_shape(mesh)}")
    else:
        full = extend_nodal(U, mesh, t)
    dims = [1, 1, 1]
    origin = [0.0, 0.0, 0.0]
    spacing = [1.0, 1.0, 1.0]
    for a, p in enumerate(mesh.partitions):
        dims[a] = full.shape[a]
        origin[a] = p.a
        spacing[a] = p.h
    values = full.ravel(order="F")  # first axis fastest = x-fastest
    lines = [
        "# vtk DataFile Version 3.0",
        f"expfem snapshot t={float(t)!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS {} {} {}".format(*dims),
        "ORIGIN {} {} {}".format(*(repr(float(v)) for v in origin)),
        "SPACING {} {} {}".format(*(repr(float(v)) for v in spacing)),
        f"POINT_DATA {values.size}",
        "SCALARS u double",
        "LOOKUP_TABLE default",
    ]
    # one x-row at a time: a float list of every value would raise the
    # peak memory by about 1 MiB on a 257 x 129 grid
    for row in values.reshape(-1, dims[0]):
        lines.extend(map(repr, row.tolist()))
    _write_lines(lines, path)
