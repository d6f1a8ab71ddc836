from fractions import Fraction
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from expfem.analysis import StudyRow
from expfem.mesh import Dirichlet, Periodic, dof_shape, extend_nodal
from expfem.problems import builtin_linear_rd, mesh_for
from expfem.stepper import SchemeConfig, run
from expfem.transforms import inverse_transform
from expfem.writers import (_BLOCK_VALUES, _EXPONENTS, _KMIN, _POWERS,
                            _format_block, format_number, write_report_csv,
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
    # no rates or growth on the first rung; errors below 1e-3 print in
    # scientific form; every line ends with "\n", the last one too
    assert path.read_bytes() == (
        b"nt,resolution,err_l2,cr_l2,err_h1,cr_h1,sec_per_step,growth\n"
        b"1024,8x4,2.19750e-05,,5.80180e-05,,0.001,\n"
        b"1024,16x8,6.82200e-06,1.69,2.08170e-05,1.48,0.004,1.01\n")


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
    write_series_csv([(0.0, 0.9, 0.1166), (0.5, 0.95, None),
                      (2.5e-4, 1.0, 0.0)], path)
    # a missing energy stays empty; zero prints as "0"
    assert path.read_bytes() == (b"t,sup_norm,energy\n"
                                 b"0,0.9,0.1166\n"
                                 b"0.5,0.95,\n"
                                 b"2.50000e-04,1,0\n")


def test_writers_make_no_directory(tmp_path, monkeypatch):
    # the command makes every directory it writes into before its run
    made = []
    real_mkdir = Path.mkdir

    def mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", mkdir)
    mesh = make_mesh(((0.0, 1.0),), (4,), Dirichlet())
    writes = [
        lambda path: write_series_csv([(0.0, 0.9, 0.1166)], path),
        lambda path: write_report_csv(_spatial_rows(), path),
        lambda path: write_snapshot(np.zeros(3), mesh, 0.0, path)]
    for write in writes:
        with pytest.raises(FileNotFoundError):
            write(tmp_path / "a" / "b" / "file")
    assert list(tmp_path.iterdir()) == []
    for write in writes:
        write(tmp_path / "file")
    assert made == []
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_write_under_a_file_raises(tmp_path):
    (tmp_path / "file").write_text("a file\n")
    for path in ("file/series.csv", "file/sub/series.csv"):
        with pytest.raises(OSError):
            write_series_csv([(0.0, 0.9, None)], tmp_path / path)
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


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


# values whose repr is exponent-heavy, subnormal, signed zero, the
# largest finite double, next to repr's switches between positional and
# exponential text, an even integer past 2^53, the largest subnormal or
# not finite; every drawn field carries all of them
EDGE_VALUES = [-0.0, 1e-5, 1e16, 5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, float(np.nextafter(1e16, 0)),
               float(np.nextafter(1e-4, 0)), 2.0 ** 53 + 2,
               2.0 ** -1022 - 5e-324, np.inf, -np.inf, np.nan]
# per-axis subdivision ranges by dimension, each giving every Dirichlet
# mesh at least as many owned nodes as there are edge values
SUBDIVISIONS = {1: (14, 19), 2: (5, 7), 3: (4, 5)}


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


def test_block_temporaries_stay_under_256_bytes_per_value():
    # the memory test above sees blocks of 1089 values, the planes of its
    # 33^3 field, whatever _BLOCK_VALUES is; this one sees a full block
    values = np.random.default_rng(5).standard_normal(_BLOCK_VALUES)
    assert traced_peak(_format_block, values) < 256 * _BLOCK_VALUES


def test_snapshot_of_edge_values_raises_no_floating_point_warning(tmp_path):
    # the kernel's integer and float passes signal nothing, not even on
    # inf and nan
    mesh = make_mesh([(0, 1), (0, 1)], [5, 5], Dirichlet(_trace))
    U = np.zeros(dof_shape(mesh))
    U.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    path = tmp_path / "edge.vtk"
    with np.errstate(all="raise"):
        write_snapshot(U, mesh, 0.25, path)
    assert path.read_bytes() == joined_snapshot(U, mesh, 0.25).encode()


def _kernel_cases():
    """Float64 values of every layout and digit-search edge: random bit
    patterns, the ends of every binade, the powers of ten and their
    neighbours, repr's switch points, integers around 2^53, the
    extremes, zeros and non-finite values, and linear_rd's end state."""
    rng = np.random.default_rng(38)
    bits = rng.integers(0, 2 ** 64, 155_000, dtype=np.uint64, endpoint=False)
    binades = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    ends = np.concatenate([binades, binades | np.uint64((1 << 52) - 1)])
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    switches = np.array([1e-4, 1e16])
    for _ in range(3):
        switches = np.concatenate([np.nextafter(switches, 0), switches,
                                   np.nextafter(switches, np.inf)])
    integers = 2.0 ** 53 + np.arange(-600.0, 600.0)
    extremes = [5e-324, 2.0 ** -1022 - 5e-324, 1.7976931348623157e308,
                0.0, np.inf, np.nan, -np.nan]
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (256, 128))
    state = run(prob, mesh, SchemeConfig(dt=2.5e-4, T=0.05, scheme="euler",
                                         c2=0.5))
    end = extend_nodal(inverse_transform(state.coeffs, mesh), mesh, state.t)
    edges = np.concatenate([
        ends.view(np.float64), powers, np.nextafter(powers, 0),
        np.nextafter(powers, np.inf), switches, integers, extremes])
    return np.concatenate([bits.view(np.float64), edges, -edges, end.ravel()])


def test_block_text_is_repr_joined():
    values = _kernel_cases()
    assert values.size >= 200_000 and np.isnan(values).any()
    for start in range(0, values.size, _BLOCK_VALUES):
        block = values[start:start + _BLOCK_VALUES]
        assert _format_block(block) == "\n".join(map(repr, block.tolist()))


def test_power_table_is_exact():
    # per row: k = floor(log10) of the interval's width, 2^q or 3/4 * 2^q;
    # e = h - q - 2 = floor(log2(10^-k)), which keeps 4c * 2^h below 2^60;
    # g = floor(10^-k * 2^(125 - e)) + 1, from 2^125 up to 2^126
    k, h = _EXPONENTS
    g1, g1h, g1l, g0h, g0l = _POWERS.astype(object)
    for row in range(k.size):
        q = max(row // 2, 1) - 1075
        width = Fraction(2) ** q * (Fraction(3, 4) if row % 2 else 1)
        power = Fraction(10) ** (int(k[row]) + _KMIN)
        assert power <= width < 10 * power
        e = int(h[row]) - q - 2
        assert 2 <= h[row] <= 5 and 2 ** e <= 1 / power < 2 ** (e + 1)
        j = k[row]
        assert g1[j] == (g1h[j] << 32) + g1l[j]
        g = (g1[j] << 63) + (g0h[j] << 32) + g0l[j]
        assert g == int(Fraction(2) ** (125 - e) / power) + 1
        assert 2 ** 125 < g <= 2 ** 126
