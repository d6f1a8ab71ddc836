"""Output writers: report CSV, time-series CSV, structured-grid snapshots.

Numbers are printed with 6 significant digits, switching to scientific
notation below 1e-3; undefined cells stay empty.  Snapshots use the
legacy structured-points text format so any standard viewer can open
them without bindings, one `repr` per value, on every node of the box:
`mesh.extend_nodal` adds the boundary values or the periodic wrap.

Every file goes out through one helper that writes blocks of lines in
turn.  A snapshot's point data is streamed: the values are read
x-fastest straight from the field in blocks of about a thousand, and each
block's text is written before the next one is formed, so writing one
holds the full-grid field and one block of text, never the whole
file's text or an x-fastest copy of the field.
"""

from itertools import chain
from pathlib import Path

import numpy as np

from .mesh import extend_nodal

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


# values per block of snapshot point data: blocks of 1024 to 8192 wrote
# 257 x 129 and 64^3 fields equally fast, and no slower than one joined
# string; the smallest holds the least text
_BLOCK_VALUES = 1024


def _write_lines(blocks, path):
    """Write blocks of lines, each line ended by a newline, to path,
    creating its parent directories first.  Each block's text is formed
    and written before the next block is read."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        for lines in blocks:
            out.write("\n".join(lines) + "\n")


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
    _write_lines([lines], path)


def write_series_csv(rows, path):
    """Write (t, sup_norm, energy) observer rows as CSV."""
    lines = ["t,sup_norm,energy"]
    for t, sup, energy in rows:
        lines.append(",".join([
            format_number(t),
            format_number(sup),
            format_number(energy),
        ]))
    _write_lines([lines], path)


def write_snapshot(U, mesh, t, path):
    """Write one scalar field as a legacy structured-points file.

    The field is written on the full grid of `mesh.extend_nodal`, nodes
    0..N along every axis, so it spans the whole box: Dirichlet fields
    with their boundary values, periodic ones with node N wrapped from
    node 0.  Point data runs x-fastest per the format's convention.
    """
    full = extend_nodal(U, mesh, t)
    dims = [1, 1, 1]
    origin = [0.0, 0.0, 0.0]
    spacing = [1.0, 1.0, 1.0]
    for a, p in enumerate(mesh.partitions):
        dims[a] = full.shape[a]
        origin[a] = p.a
        spacing[a] = p.h
    header = [
        "# vtk DataFile Version 3.0",
        f"expfem snapshot t={float(t)!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS {} {} {}".format(*dims),
        "ORIGIN {} {} {}".format(*(repr(float(v)) for v in origin)),
        "SPACING {} {} {}".format(*(repr(float(v)) for v in spacing)),
        f"POINT_DATA {full.size}",
        "SCALARS u double",
        "LOOKUP_TABLE default",
    ]
    # Fortran order runs the first axis fastest, x-fastest; the buffered
    # iterator gathers each block into its own small buffer
    blocks = np.nditer(full, flags=["external_loop", "buffered"], order="F",
                       buffersize=_BLOCK_VALUES)
    _write_lines(chain([header], (map(repr, block.tolist()) for block in blocks)),
                 path)
