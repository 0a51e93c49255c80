"""Case parsing, DC operators, and the feasibility polytope."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ccopf import (
    Branch,
    Bus,
    CaseParseError,
    CaseValidationError,
    Generator,
    GridCase,
    build_matrices,
    build_polytope,
    bundled_case_path,
    load_case,
    parse_case,
)
from conftest import TRIANGLE_TEXT


def unit_triangle() -> GridCase:
    """Three buses in a ring, unit reactances; closed-form pseudo-inverse."""
    return GridCase(
        name="unit-triangle",
        base_mva=100.0,
        buses=(
            Bus(id=1, kind="slack", load_mw=0.0, p_nominal_mw=0.0),
            Bus(id=2, kind="generator", load_mw=0.0, p_nominal_mw=0.0),
            Bus(id=3, kind="load", load_mw=0.0, p_nominal_mw=0.0),
        ),
        branches=(
            Branch(from_bus=1, to_bus=2, reactance=1.0, angle_limit=math.inf),
            Branch(from_bus=2, to_bus=3, reactance=1.0, angle_limit=math.inf),
            Branch(from_bus=1, to_bus=3, reactance=1.0, angle_limit=math.inf),
        ),
        generators=(Generator(bus=1, p_min_mw=0.0, p_max_mw=100.0, cost=1.0),),
    )


# ---------------------------------------------------------------------------
# parsing

def test_parse_triangle_fields(triangle: GridCase):
    assert triangle.name == "triangle"
    assert triangle.base_mva == 100.0
    assert [bus.kind for bus in triangle.buses] == ["slack", "generator", "load"]
    assert [bus.load_mw for bus in triangle.buses] == [0.0, 0.0, 80.0]
    assert [(g.bus, g.p_min_mw, g.p_max_mw, g.cost) for g in triangle.generators] == [
        (1, 0.0, 100.0, 10.0),
        (2, 0.0, 50.0, 1.0),
    ]
    assert all(br.reactance == 0.1 for br in triangle.branches)
    assert all(br.angle_limit == math.inf for br in triangle.branches)
    # nominal injection is Pg - Pd in p.u.
    np.testing.assert_allclose(triangle.nominal_injection, [0.3, 0.5, -0.8])


def test_parse_name_override():
    case = parse_case(TRIANGLE_TEXT, name="renamed")
    assert case.name == "renamed"


def test_load_case_uses_file_stem(tmp_path):
    path = tmp_path / "ring3.m"
    path.write_text(TRIANGLE_TEXT)
    assert load_case(path).name == "ring3"
    assert load_case(str(path)).n == 3


def test_full_matpower_layout_rows():
    text = """function mpc = full
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0  0 0 0 1 1 0 135 1 1.05 0.95;
 2 1 40 0 0 0 1 1 0 135 1 1.05 0.95;
];
mpc.gen = [
 1 40 0 30 -30 1 100 1 90 5 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
 1 2 0.01 0.05 0.02 120 120 120 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0 25 0;
];
"""
    case = parse_case(text)
    gen = case.generators[0]
    assert (gen.p_min_mw, gen.p_max_mw, gen.cost) == (5.0, 90.0, 25.0)
    br = case.branches[0]
    assert br.reactance == 0.05
    assert br.angle_limit == pytest.approx(120 / 100 * 0.05)


def test_out_of_service_rows_skipped():
    text = """function mpc = t
mpc.baseMVA = 100;
mpc.bus = [ 1 3 0; 2 2 10; 3 1 5 ];
mpc.gen = [
 1 0 0 0 0 1 100 0 100 0;
 2 20 0 0 0 1 100 1 50 0;
];
mpc.branch = [
 1 2 0 0.1 0 0 0 0 0 0 1;
 1 3 0 0.1 0 0 0 0 0 0 0;
 2 3 0 0.2 0 0 0 0 0 0 1;
];
mpc.gencost = [ 2 0 0 2 99 0; 2 0 0 2 7 0 ];
"""
    case = parse_case(text)
    # the off generator disappears and its cost row is skipped with it
    assert [(g.bus, g.cost) for g in case.generators] == [(2, 7.0)]
    assert [(br.from_bus, br.to_bus) for br in case.branches] == [(1, 2), (2, 3)]


def test_gencost_reactive_half_ignored():
    text = TRIANGLE_TEXT.replace(
        "mpc.gencost = [\n\t2\t0\t0\t2\t10\t0;\n\t2\t0\t0\t2\t1\t0;\n];",
        "mpc.gencost = [\n\t2\t0\t0\t2\t10\t0;\n\t2\t0\t0\t2\t1\t0;\n"
        "\t2\t0\t0\t2\t0\t0;\n\t2\t0\t0\t2\t0\t0;\n];",
    )
    case = parse_case(text)
    assert [g.cost for g in case.generators] == [10.0, 1.0]


def test_quadratic_terms_dropped_with_warning(caplog):
    text = TRIANGLE_TEXT.replace("2\t0\t0\t2\t10\t0;", "2\t0\t0\t3\t0.5\t10\t0;")
    with caplog.at_level("WARNING"):
        case = parse_case(text)
    assert case.generators[0].cost == 10.0
    assert any("higher-order" in rec.message for rec in caplog.records)


def test_comments_and_blank_lines_ignored():
    text = TRIANGLE_TEXT.replace(
        "mpc.baseMVA = 100;",
        "% leading comment\n\nmpc.baseMVA = 100;  % trailing comment",
    )
    assert parse_case(text).base_mva == 100.0


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("mpc.bus", "mpc.busx"), "missing mpc.bus"),
        (lambda t: t.replace("mpc.gen ", "mpc.genx "), "missing mpc.gen"),
        (lambda t: t.replace("mpc.branch", "mpc.branchx"), "missing mpc.branch"),
        (lambda t: t.replace("mpc.baseMVA = 100;", ""), "missing mpc.baseMVA"),
        (lambda t: t.replace("mpc.gencost", "mpc.gencostx"), "missing mpc.gencost"),
        (lambda t: t.replace("\t1\t3\t0;", "\t1\t3\toops;"), "non-numeric"),
        (lambda t: t.replace("mpc.baseMVA = 100;", "mpc.baseMVA = ten;"), "bad scalar"),
        (lambda t: t.replace("\t1\t3\t0;", "\t1\t3;"), "bus row"),
        (lambda t: t.replace("\t1\t30\t100\t0;", "\t1\t30\t100\t0\t0;"), "gen row"),
        (lambda t: t.replace("\t1\t2\t0.1\t0;", "\t1\t2\t0.1\t0\t0;"), "branch row"),
        (lambda t: t.replace("2\t0\t0\t2\t10\t0;", "2\t0\t0\t2;"), "gencost row"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(CaseParseError, match=fragment):
        parse_case(mangle(TRIANGLE_TEXT))


def test_parse_error_carries_line_number():
    # the bad token sits on line 5 of the template
    bad = TRIANGLE_TEXT.replace("\t1\t3\t0;", "\t1\t3\toops;")
    line = next(i for i, s in enumerate(bad.splitlines(), 1) if "oops" in s)
    with pytest.raises(CaseParseError, match=f"line {line}:"):
        parse_case(bad)


def test_unterminated_matrix():
    text = TRIANGLE_TEXT.replace("\t2\t0\t0\t2\t1\t0;\n];", "\t2\t0\t0\t2\t1\t0;")
    with pytest.raises(CaseParseError, match="unterminated"):
        parse_case(text)


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("\t3\t1\t80;", "\t3\t4\t80;"), "unsupported bus type"),
        (lambda t: t.replace("\t2\t2\t0;", "\t1\t2\t0;"), "duplicate bus id"),
        (lambda t: t.replace("\t2\t2\t0;", "\t2\t3\t0;"), "exactly one slack"),
        (lambda t: t.replace("\t1\t3\t0;", "\t1\t2\t0;"), "exactly one slack"),
        (lambda t: t.replace("\t2\t3\t0.1\t0;", "\t2\t9\t0.1\t0;"), "absent from the bus"),
        (lambda t: t.replace("\t2\t3\t0.1\t0;", "\t2\t3\t-0.1\t0;"), "non-positive"),
        (lambda t: t.replace("\t2\t50\t50\t0;", "\t2\t50\t50\t60;"), "exceeds p_max"),
        (lambda t: t.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 0;"), "base MVA"),
        (
            lambda t: t.replace("2\t0\t0\t2\t1\t0;", "1\t0\t0\t2\t1\t0;"),
            "polynomial only",
        ),
        (
            lambda t: t.replace("\t2\t0\t0\t2\t1\t0;\n];", "];"),
            "gencost has 1 rows for 2",
        ),
        # non-finite numbers, and NaN or negative ratings (0 means unlimited)
        (lambda t: t.replace("mpc.baseMVA = 100;", "mpc.baseMVA = NaN;"), "positive, got nan"),
        (lambda t: t.replace("mpc.baseMVA = 100;", "mpc.baseMVA = Inf;"), "positive, got inf"),
        (lambda t: t.replace("\t3\t1\t80;", "\t3\t1\tNaN;"), "non-finite load nan"),
        (lambda t: t.replace("\t1\t30\t100\t0;", "\t1\tInf\t100\t0;"), "injection inf"),
        (lambda t: t.replace("\t1\t30\t100\t0;", "\t1\t30\tNaN\t0;"), "p_max nan"),
        (lambda t: t.replace("\t2\t50\t50\t0;", "\t2\t50\t50\t-Inf;"), "p_min -inf"),
        (lambda t: t.replace("2\t0\t0\t2\t10\t0;", "2\t0\t0\t2\tInf\t0;"), "cost inf"),
        (lambda t: t.replace("\t2\t3\t0.1\t0;", "\t2\t3\tInf\t0;"), "reactance inf"),
        (lambda t: t.replace("\t1\t3\t0.1\t0;", "\t1\t3\t0.1\tNaN;"), "rating nan"),
        (lambda t: t.replace("\t1\t3\t0.1\t0;", "\t1\t3\t0.1\t-30;"), "rating -30"),
    ],
)
def test_validation_errors(mangle, fragment):
    with pytest.raises(CaseValidationError, match=fragment):
        parse_case(mangle(TRIANGLE_TEXT))


def test_disconnected_grid_rejected():
    text = TRIANGLE_TEXT.replace("mpc.branch = [\n\t1\t2\t0.1\t0;", "mpc.branch = [\n\t1\t2\t0.1\t0;\n\t1\t2\t0.1\t0;")
    # four buses, island of one
    text = text.replace("\t3\t1\t80;", "\t3\t1\t80;\n\t4\t1\t5;")
    with pytest.raises(CaseValidationError, match="disconnected"):
        parse_case(text)


@pytest.mark.parametrize(
    "change, fragment",
    [
        (lambda c: {"buses": c.buses + (c.buses[2],)}, "duplicate bus ids"),
        (lambda c: {"branches": (Branch(1, 2, 0.0, math.inf),) + c.branches[1:]}, "reactance 0.0"),
        (lambda c: {"branches": (Branch(1, 2, math.nan, math.inf),) + c.branches[1:]},
         "reactance nan"),
    ],
    ids=["duplicate-bus-id", "zero-reactance", "nan-reactance"],
)
def test_grid_case_refuses_what_the_parser_never_passes_it(change, fragment):
    # parse_case refuses these first, so only a GridCase built by hand reaches the checks
    case = unit_triangle()
    with pytest.raises(CaseValidationError, match=fragment):
        replace(case, **change(case))


def test_bundled_cases_exist():
    assert bundled_case_path("case30").name == "case30.m"
    assert bundled_case_path("case57.m").name == "case57.m"
    with pytest.raises(FileNotFoundError, match="case9999"):
        bundled_case_path("case9999")


def test_bundled_case_statistics(case30: GridCase, case57: GridCase):
    assert (case30.n, case30.m, len(case30.generators)) == (30, 41, 6)
    assert (case57.n, case57.m, len(case57.generators)) == (57, 80, 7)
    assert sum(b.load_mw for b in case30.buses) == pytest.approx(189.2)
    assert sum(b.load_mw for b in case57.buses) == pytest.approx(1250.8)
    assert case30.buses[case30.slack_index].id == 1
    assert case57.buses[case57.slack_index].id == 1


# ---------------------------------------------------------------------------
# DC operators

def test_two_bus_laplacian():
    case = GridCase(
        name="pair",
        base_mva=100.0,
        buses=(
            Bus(id=1, kind="slack", load_mw=0.0, p_nominal_mw=50.0),
            Bus(id=2, kind="load", load_mw=50.0, p_nominal_mw=-50.0),
        ),
        branches=(Branch(from_bus=1, to_bus=2, reactance=0.1, angle_limit=math.inf),),
        generators=(Generator(bus=1, p_min_mw=0.0, p_max_mw=100.0, cost=5.0),),
    )
    mat = build_matrices(case)
    np.testing.assert_allclose(mat.laplacian, [[10.0, -10.0], [-10.0, 10.0]])
    np.testing.assert_allclose(mat.incidence, [[1.0, -1.0]])


def test_unit_triangle_pinv_oracle():
    # eigenvalues are (0, 3, 3), so the pseudo-inverse is the Laplacian / 9
    mat = build_matrices(unit_triangle())
    k = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    np.testing.assert_allclose(mat.laplacian, k)
    np.testing.assert_allclose(mat.pinv, k / 9.0, atol=1e-12)
    theta = mat.pinv @ np.array([1.0, 0.0, -1.0])
    np.testing.assert_allclose(theta, [1 / 3, 0.0, -1 / 3], atol=1e-12)
    flows = mat.incidence @ theta  # unit reactances
    np.testing.assert_allclose(flows, [1 / 3, 1 / 3, 2 / 3], atol=1e-12)


def test_parallel_branches_superpose():
    case = unit_triangle()
    doubled = GridCase(
        name="doubled",
        base_mva=case.base_mva,
        buses=case.buses,
        branches=case.branches + (Branch(1, 2, 1.0, math.inf),),
        generators=case.generators,
    )
    mat = build_matrices(doubled)
    assert mat.laplacian[0, 1] == -2.0
    assert mat.laplacian[0, 0] == 3.0


def test_matrix_invariants_case30(case30: GridCase):
    mat = build_matrices(case30)
    b, pinv = mat.laplacian, mat.pinv
    ones = np.ones(case30.n)
    np.testing.assert_allclose(b @ ones, 0.0, atol=1e-9)
    np.testing.assert_allclose(b @ pinv @ b, b, atol=1e-7)
    np.testing.assert_allclose(pinv @ b @ pinv, pinv, atol=1e-9)
    np.testing.assert_allclose(pinv, pinv.T, atol=1e-12)
    # each incidence row is one +1 and one -1
    assert np.all(np.sum(mat.incidence, axis=1) == 0.0)
    assert np.all(np.sum(np.abs(mat.incidence), axis=1) == 2.0)


def test_balance_matrix_triangle(triangle_system):
    _, mat, _ = triangle_system
    want = np.array([[0.0, -1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(mat.balance, want)
    p = np.array([9.0, 0.4, -0.7])
    out = mat.balance @ p
    # slack entry of p is ignored; its injection balances the others
    assert out[0] == pytest.approx(0.3)
    np.testing.assert_allclose(out[1:], p[1:])
    assert np.sum(out) == pytest.approx(0.0)


def test_balance_column_sums_zero(case57: GridCase):
    mat = build_matrices(case57)
    np.testing.assert_allclose(np.sum(mat.balance, axis=0), 0.0, atol=0)


def test_matrices_are_read_only(triangle_system):
    _, mat, poly = triangle_system
    with pytest.raises(ValueError):
        mat.pinv[0, 0] = 1.0
    with pytest.raises(ValueError):
        poly.offsets[0] = 99.0


# ---------------------------------------------------------------------------
# feasibility polytope

def test_triangle_polytope_rows(triangle_system):
    _, mat, poly = triangle_system
    # all ratings zero: no angle rows, injection rows for buses 1 and 2 only
    assert poly.n_rows == 4
    assert poly.labels == (
        ("injection-upper", 1),
        ("injection-upper", 2),
        ("injection-lower", 1),
        ("injection-lower", 2),
    )
    np.testing.assert_array_equal(poly.offsets, [1.0, 0.5, 0.0, 0.0])
    np.testing.assert_array_equal(poly.normals[0], mat.balance[0])
    np.testing.assert_array_equal(poly.normals[1], mat.balance[1])
    np.testing.assert_array_equal(poly.normals[2], -mat.balance[0])
    np.testing.assert_array_equal(poly.normals[3], -mat.balance[1])


def test_rated_branch_adds_angle_rows():
    text = TRIANGLE_TEXT.replace("\t1\t2\t0.1\t0;", "\t1\t2\t0.1\t50;")
    case = parse_case(text)
    mat = build_matrices(case)
    poly = build_polytope(case, mat)
    assert poly.labels[:2] == (("angle-upper", 0), ("angle-lower", 0))
    # limit: 50 MW at base 100 through reactance 0.1 is 0.05 rad
    assert poly.offsets[0] == pytest.approx(0.05)
    assert poly.offsets[1] == pytest.approx(0.05)
    row = (mat.incidence @ mat.pinv @ mat.balance)[0]
    np.testing.assert_allclose(poly.normals[0], row)
    np.testing.assert_allclose(poly.normals[1], -row)


def test_pure_load_bus_gets_no_injection_rows(triangle_system):
    _, _, poly = triangle_system
    assert all(idx != 3 for _, idx in poly.labels)


def test_shared_bus_generators_aggregate():
    text = TRIANGLE_TEXT.replace(
        "\t2\t50\t50\t0;", "\t2\t30\t30\t5;\n\t2\t20\t20\t5;"
    ).replace(
        "\t2\t0\t0\t2\t1\t0;", "\t2\t0\t0\t2\t1\t0;\n\t2\t0\t0\t2\t1\t0;"
    )
    case = parse_case(text)
    poly = build_polytope(case, build_matrices(case))
    assert poly.n_rows == 4  # still one row pair per generator bus
    upper = dict(zip(poly.labels, poly.offsets))
    assert upper[("injection-upper", 2)] == pytest.approx(0.5)
    assert upper[("injection-lower", 2)] == pytest.approx(-0.1)


def test_case30_polytope_shape(case30: GridCase):
    poly = build_polytope(case30, build_matrices(case30))
    kinds = [kind for kind, _ in poly.labels]
    assert poly.n_rows == 94
    assert kinds[:41] == ["angle-upper"] * 41
    assert kinds[41:82] == ["angle-lower"] * 41
    assert kinds[82:88] == ["injection-upper"] * 6
    assert kinds[88:] == ["injection-lower"] * 6
    # injection labels are gen bus ids
    assert [i for k, i in poly.labels if k == "injection-upper"] == [1, 2, 13, 22, 23, 27]


def test_case57_polytope_shape(case57: GridCase):
    poly = build_polytope(case57, build_matrices(case57))
    # every branch unrated: injection rows only
    assert poly.n_rows == 14
    assert all(kind.startswith("injection") for kind, _ in poly.labels)
    assert [i for k, i in poly.labels if k == "injection-upper"] == [1, 2, 3, 6, 8, 9, 12]


def test_angle_rows_bound_flows(case30: GridCase):
    # at the nominal injection every limit must hold with slack
    mat = build_matrices(case30)
    poly = build_polytope(case30, mat)
    slackless = poly.normals @ case30.nominal_injection
    assert np.all(slackless <= poly.offsets + 1e-9)
