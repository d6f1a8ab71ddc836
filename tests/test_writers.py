import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, strategies as st

from expfem.analysis import StudyRow
from expfem.mesh import Dirichlet, Periodic, dof_shape, extend_nodal
from expfem.writers import (REPORT_HEADER, format_number, write_report_csv,
                            write_series_csv, write_snapshot)

from helpers import joined_snapshot, make_mesh, traced_peak


def test_format_number_rules():
    assert format_number(None) == ""
    assert format_number(0.0) == "0"
    assert format_number(1.69) == "1.69"
    assert format_number(2.1975e-05) == "2.19750e-05"
    assert format_number(0.123456789) == "0.123457"
    assert format_number(-4.5693e-07) == "-4.56930e-07"
    assert format_number(17.516) == "17.516"


def _spatial_rows():
    return [
        StudyRow(resolution="8x4", nt=1024, err_l2=2.1975e-05,
                 err_h1=5.8018e-05, sec_per_step=0.001),
        StudyRow(resolution="16x8", nt=1024, err_l2=6.8220e-06,
                 err_h1=2.0817e-05, rate_l2=1.69, rate_h1=1.48,
                 sec_per_step=0.004, growth=1.01),
    ]


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(_spatial_rows(), path)
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
    rows = _spatial_rows()
    write_report_csv(rows, path)
    lines = path.read_text().splitlines()[1:]
    for row, line in zip(rows, lines):
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
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], Dirichlet())
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
    # a periodic field spans the box: node 4 wraps node 0
    mesh = make_mesh([(0, 1)], [4], Periodic())
    path = tmp_path / "snap1d.vtk"
    write_snapshot(np.full(4, 3.25), mesh, 0.0, path)
    lines = path.read_text().splitlines()
    assert "DIMENSIONS 5 1 1" in lines
    data = lines[lines.index("LOOKUP_TABLE default") + 1:]
    assert data == ["3.25"] * 5


def test_snapshot_x_fastest_order(tmp_path):
    mesh = make_mesh([(0, 1), (0, 1)], [4, 2], Dirichlet())
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


def test_snapshot_bytes_match_per_value_repr(tmp_path):
    # the values are printed one x-row at a time; every line must be what
    # repr(float(v)) gives per value, boundary values included
    from expfem.mesh import Dirichlet, extend_nodal
    g = lambda t, xs: np.cos(xs[0] + 3.0 * xs[1] + t) * (1.0 + 1e-7 * t)
    mesh = make_mesh([(0, 1.5), (-1, 2)], [7, 5], Dirichlet(g))
    rng = np.random.default_rng(3)
    U = rng.standard_normal((6, 4)) * np.logspace(-300, 300, 24).reshape(6, 4)
    U[0, 0], U[1, 2] = -0.0, 1.0 / 3.0
    path = tmp_path / "exact.vtk"
    write_snapshot(U, mesh, 0.3, path)
    values = extend_nodal(U, mesh, 0.3).ravel(order="F")
    expected = "\n".join([
        "# vtk DataFile Version 3.0",
        "expfem snapshot t=0.3",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS 8 6 1",
        "ORIGIN 0.0 -1.0 0.0",
        f"SPACING {1.5 / 7!r} {3.0 / 5!r} 1.0",
        "POINT_DATA 48",
        "SCALARS u double",
        "LOOKUP_TABLE default",
    ] + [repr(float(v)) for v in values]) + "\n"
    assert path.read_bytes() == expected.encode()


# values whose repr is exponent-heavy, subnormal, signed zero or the
# largest finite double; every drawn field carries all of them
EDGE_VALUES = [-0.0, 1e-5, 1e16, 5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308]
# per-axis subdivision ranges by dimension, each giving every Dirichlet
# mesh at least as many owned nodes as there are edge values
SUBDIVISIONS = {1: (7, 12), 2: (4, 7), 3: (3, 5)}


def _trace(t, xs):
    return 1e3 * np.cos(sum(xs) + t)


@st.composite
def snapshot_cases(draw):
    dim = draw(st.integers(1, 3))
    axis = st.tuples(st.floats(-10, 10), st.floats(0.1, 10),
                     st.integers(*SUBDIVISIONS[dim]))
    axes = draw(st.lists(axis, min_size=dim, max_size=dim))
    bc = draw(st.sampled_from([Periodic(), Dirichlet(),
                               Dirichlet(_trace)]))
    mesh = make_mesh([(a, a + length) for a, length, _ in axes],
                     [n for _, _, n in axes], bc)
    U = draw(hnp.arrays(float, dof_shape(mesh), elements=st.floats()))
    U.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    return U, mesh, draw(st.floats(0, 1e3))


@given(snapshot_cases())
def test_snapshot_bytes_match_the_joined_writer(tmp_path_factory, case):
    # periodic, homogeneous and lifted meshes in 1D, 2D and 3D
    U, mesh, t = case
    path = tmp_path_factory.mktemp("snap") / "snap.vtk"
    write_snapshot(U, mesh, t, path)
    assert path.read_bytes() == joined_snapshot(U, mesh, t).encode()


def test_snapshot_memory_stays_block_sized(tmp_path):
    # the joined writer held the whole file's text and an x-fastest copy,
    # 8.2x this bound; the streamed one holds the extended field and one
    # block of text
    mesh = make_mesh([(0, 1)] * 3, [32] * 3, Dirichlet(_trace))
    U = np.random.default_rng(4).standard_normal(dof_shape(mesh))
    full_bytes = extend_nodal(U, mesh, 0.5).nbytes
    path = tmp_path / "snap.vtk"
    assert traced_peak(write_snapshot, U, mesh, 0.5, path) < 2 * full_bytes
    assert path.read_bytes() == joined_snapshot(U, mesh, 0.5).encode()
