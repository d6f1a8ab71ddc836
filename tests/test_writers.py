import numpy as np
import pytest

from expfem.analysis import StudyReport, StudyRow
from expfem.mesh import HomogeneousDirichlet, Periodic
from expfem.writers import (REPORT_HEADER, format_number, write_report_csv,
                            write_series_csv, write_snapshot)

from helpers import make_mesh


def test_format_number_rules():
    assert format_number(None) == ""
    assert format_number(0.0) == "0"
    assert format_number(1.69) == "1.69"
    assert format_number(2.1975e-05) == "2.19750e-05"
    assert format_number(0.123456789) == "0.123457"
    assert format_number(-4.5693e-07) == "-4.56930e-07"
    assert format_number(17.516) == "17.516"


def _spatial_report():
    rows = [
        StudyRow(resolution="8x4", nt=1024, err_l2=2.1975e-05,
                 err_h1=5.8018e-05, sec_per_step=0.001),
        StudyRow(resolution="16x8", nt=1024, err_l2=6.8220e-06,
                 err_h1=2.0817e-05, rate_l2=1.69, rate_h1=1.48,
                 sec_per_step=0.004, growth=1.01),
    ]
    return StudyReport(rows=rows, metadata={})


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(_spatial_report(), path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == REPORT_HEADER
    first = lines[1].split(",")
    assert first[0] == "1024" and first[1] == "8x4"
    assert first[3] == "" and first[5] == ""  # no rates on the first rung
    assert "\r" not in text


def test_report_csv_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    report = _spatial_report()
    write_report_csv(report, path)
    lines = path.read_text().splitlines()[1:]
    for row, line in zip(report.rows, lines):
        cells = line.split(",")
        assert int(cells[0]) == row.nt
        assert abs(float(cells[2]) - row.err_l2) <= 1e-6 * row.err_l2
        if cells[3]:
            assert abs(float(cells[3]) - row.rate_l2) < 1e-6
        assert abs(float(cells[4]) - row.err_h1) <= 1e-6 * row.err_h1


def test_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv([(0.0, 0.9, 0.1166), (0.5, 0.95, None)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_norm,energy"
    assert lines[1].startswith("0,0.9,")
    assert lines[2].endswith(",")  # missing energy stays empty


def test_snapshot_dirichlet_includes_boundary(tmp_path):
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], HomogeneousDirichlet())
    path = tmp_path / "snap.vtk"
    write_snapshot(np.full((3, 3), 2.5), mesh, 0.0, path)
    lines = path.read_text().splitlines()
    assert "DATASET STRUCTURED_POINTS" in lines
    dims = next(l for l in lines if l.startswith("DIMENSIONS"))
    assert dims == "DIMENSIONS 5 5 1"
    count = next(l for l in lines if l.startswith("POINT_DATA"))
    assert count == "POINT_DATA 25"
    spacing = next(l for l in lines if l.startswith("SPACING"))
    assert spacing == "SPACING 0.25 0.25 1.0"
    data = lines[lines.index("LOOKUP_TABLE default") + 1:]
    assert len(data) == 25
    assert data[0] == "0.0"  # boundary corner
    assert any(v == "2.5" for v in data)


def test_snapshot_constant_field(tmp_path):
    mesh = make_mesh([(0, 1)], [4], Periodic())
    path = tmp_path / "snap1d.vtk"
    write_snapshot(np.full(4, 3.25), mesh, 0.0, path)
    lines = path.read_text().splitlines()
    assert "DIMENSIONS 4 1 1" in lines
    data = lines[lines.index("LOOKUP_TABLE default") + 1:]
    assert data == ["3.25"] * 4


def test_snapshot_x_fastest_order(tmp_path):
    mesh = make_mesh([(0, 1), (0, 1)], [4, 2], HomogeneousDirichlet())
    U = np.zeros((3, 1))
    U[:, 0] = [1.0, 2.0, 3.0]
    path = tmp_path / "order.vtk"
    write_snapshot(U, mesh, 0.0, path)
    lines = path.read_text().splitlines()
    data = [float(v) for v in lines[lines.index("LOOKUP_TABLE default") + 1:]]
    # second x-row (j = 1, the interior y layer): boundary, 1, 2, 3, boundary
    assert data[5:10] == [0.0, 1.0, 2.0, 3.0, 0.0]


def test_snapshot_nonhomogeneous_boundary_values(tmp_path):
    from expfem.mesh import Dirichlet
    g = lambda t, xs: np.broadcast_to(7.0 + 0.0 * xs[0], np.shape(xs[0]))
    mesh = make_mesh([(0, 1)], [4], Dirichlet(g))
    path = tmp_path / "bdry.vtk"
    write_snapshot(np.zeros(3), mesh, 0.0, path)
    lines = path.read_text().splitlines()
    data = [float(v) for v in lines[lines.index("LOOKUP_TABLE default") + 1:]]
    assert data[0] == 7.0 and data[-1] == 7.0
