import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from fracvol import (
    HalfSpace,
    Polyhedron,
    chebyshev_center,
    check_viability_conditions,
    contains,
    normal_cone_generators,
    path_viability_margin,
    shifted_polyhedron,
    slack,
)
from fracvol import viability
from fracvol.coefficients import ModelCoefficients, eval_mu, eval_sigma
from fracvol.scenario import constant_vol_scenario, section4_scenario
from fracvol.viability import project_into


@st.composite
def polyhedra_with_clouds(draw):
    """(normals, offsets, points): 2-4 integer faces in 2-D or 3-D around a known
    interior point, and a cloud of 32 points near and far from it."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 4))
    rows = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    normals = np.array(draw(st.lists(rows, min_size=m, max_size=m)), dtype=float)
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    margins = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=m, max_size=m)))
    offsets = normals @ center + margins * np.linalg.norm(normals, axis=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = center + rng.normal(scale=1.5, size=(16, d))
    far = center + 10.0 * rng.normal(size=(16, d))
    return normals, offsets, np.concatenate([near, far])


H_ROWS = np.array([[1.0, 1.0], [1.0, 0.0]])
ANCHORS = (0, 0)


def reference_set(xi):
    return shifted_polyhedron(H_ROWS, ANCHORS, xi)


class TestShiftedPolyhedron:
    def test_membership_inequalities(self):
        xi = 0.8
        poly = reference_set(xi)
        assert contains(poly, [2 * xi, 0.0])
        assert not contains(poly, [xi / 2, 0.0])
        assert not contains(poly, [xi, -0.1])

    def test_zero_shift_passes_through_origin(self):
        poly = reference_set(0.0)
        assert np.allclose(poly.offsets, 0.0)
        assert contains(poly, [0.0, 0.0])

    def test_zero_pivot_rejected(self):
        with pytest.raises(ValueError, match="zero coordinate"):
            shifted_polyhedron([[0.0, 1.0]], [0], 0.5)

    def test_monotone_in_shift(self):
        inner = reference_set(0.9)
        outer = reference_set(0.4)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 4, size=(500, 2))
        inside_inner = contains(inner, pts)
        assert np.all(contains(outer, pts[inside_inner]))


class TestSlackAndCones:
    def test_interior_positive_boundary_zero(self):
        poly = reference_set(0.5)
        assert slack(poly, [2.0, 1.0]) > 0
        assert slack(poly, [0.5, 0.25]) == 0.0

    def test_normal_cone_cases(self):
        xi = 0.7
        poly = reference_set(xi)
        assert normal_cone_generators(poly, [2.0, 1.0]) == []
        single = normal_cone_generators(poly, [xi, 1.0])
        assert len(single) == 1
        assert np.allclose(single[0], [-1.0, 0.0])
        vertex = normal_cone_generators(poly, [xi, 0.0])
        assert len(vertex) == 2
        assert np.allclose(vertex, [[-1.0, -1.0], [-1.0, 0.0]])

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            normal_cone_generators(reference_set(0.5), [0.0, 0.0])

    @given(
        data=st.lists(st.floats(-5, 5), min_size=8, max_size=8),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_slack_concave_on_segments(self, data, lam):
        poly = reference_set(0.5)
        x = np.array(data[:2])
        y = np.array(data[2:4])
        mid = lam * x + (1 - lam) * y
        assert slack(poly, mid) >= min(slack(poly, x), slack(poly, y)) - 1e-9

    def test_path_margin(self):
        poly = reference_set(0.5)
        inside = np.tile([2.0, 1.0], (4, 1))
        assert path_viability_margin(inside, poly) == pytest.approx(
            slack(poly, [2.0, 1.0])
        )
        values = np.tile([2.0, 1.0], (4, 1))
        values[2] = [0.25, 0.0]  # one excursion
        assert path_viability_margin(values, poly) == pytest.approx(-0.25)


class TestProjection:
    def test_inside_unchanged(self):
        poly = reference_set(0.5)
        x = np.array([2.0, 1.0])
        assert np.array_equal(project_into(x, poly.normals, poly.offsets), x)

    def test_single_face_projection(self):
        poly = reference_set(0.0)
        # violates only the second face (x >= 0)
        x = np.array([-1.0, 3.0])
        proj = project_into(x, poly.normals, poly.offsets)
        assert np.allclose(proj, [0.0, 3.0], atol=1e-12)
        assert slack(poly, proj) >= -1e-12

    def test_corner_projection(self):
        xi = 0.6
        poly = reference_set(xi)
        proj = project_into(np.array([-1.0, -1.0]), poly.normals, poly.offsets)
        assert np.allclose(proj, [xi, 0.0], atol=1e-10)

    def test_per_row_offsets(self):
        poly = reference_set(1.0)
        pts = np.array([[0.0, 0.0], [0.0, 0.0]])
        offsets = np.array([[-0.5, -0.5], [-2.0, -2.0]])  # xi = 0.5 and 2.0
        proj = project_into(pts, poly.normals, offsets)
        assert np.allclose(proj[0], [0.5, 0.0], atol=1e-10)
        assert np.allclose(proj[1], [2.0, 0.0], atol=1e-10)


    def test_wedge_apex_is_exact(self, caplog):
        # a wedge |y| <= 0.1 x; (-1, 0.3) projects onto its apex, which an
        # alternating projection approaches only slowly
        normals = np.array([[-0.1, 1.0], [-0.1, -1.0]])
        x = np.array([-1.0, 0.3])
        with caplog.at_level(logging.DEBUG, logger="fracvol"):
            proj = project_into(x, normals, np.zeros(2))
        assert not caplog.records
        assert np.max(np.abs(proj)) <= 1e-14

    def test_corner_count_does_not_wrap(self):
        # 256 copies of the face x <= 0: a uint8 count of the touched faces
        # would wrap to 0 and step the point through every copy at once
        proj = project_into(np.array([[1.0]]), np.ones((256, 1)), np.zeros(256))
        assert np.array_equal(proj, [[0.0]])

    @pytest.mark.parametrize("others", ["mixed", "inside"])
    def test_nan_row_moves_no_other_row(self, others):
        # NaN counts as an excess, so a batch with a NaN row is projected; the
        # row stays NaN and every other row keeps its bits
        poly = reference_set(0.6)
        pts = np.array([[2.0, 1.0], [-1.0, 3.0], [-1.0, -1.0], [0.7, 0.2]])
        if others == "inside":
            pts = pts[[0, 3]]
        with_nan = np.insert(pts, 1, np.nan, axis=0)
        proj = project_into(with_nan, poly.normals, poly.offsets)
        assert np.isnan(proj[1]).all()
        want = project_into(pts, poly.normals, poly.offsets)
        assert np.delete(proj, 1, axis=0).tobytes() == want.tobytes()

    def test_point_outside_two_faces_takes_active_sets(self, monkeypatch):
        calls = []
        real = viability._project_by_active_sets

        def counting(x, normals, offsets):
            calls.append(x.copy())
            return real(x, normals, offsets)

        monkeypatch.setattr(viability, "_project_by_active_sets", counting)
        poly = reference_set(0.6)
        pts = np.array([[2.0, 1.0], [-1.0, -1.0], [-1.0, 3.0]])  # inside, two faces, one
        assert np.all(pts[1] @ poly.normals.T > poly.offsets)
        proj = project_into(pts, poly.normals, poly.offsets)
        assert len(calls) == 1 and np.array_equal(calls[0], pts[[1]])
        assert np.allclose(proj[1], [0.6, 0.0], atol=1e-10)

    def test_infeasible_set_raises(self):
        # x <= -1 and -x <= -1 have no common point
        normals = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError, match="KKT"):
            project_into(np.array([0.0]), normals, np.array([-1.0, -1.0]))
        with pytest.raises(ValueError, match="KKT"):
            project_into(np.array([[3.0], [-0.5]]), normals, np.array([-1.0, -1.0]))

    @given(case=polyhedra_with_clouds())
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, case):
        normals, offsets, pts = case
        proj = project_into(pts, normals, offsets)
        norms = np.linalg.norm(normals, axis=1)
        scale = 1.0 + np.max(np.abs(pts)) + np.max(np.abs(offsets) / norms)
        tol = 1e-9 * scale
        residuals = (proj @ normals.T - offsets) / norms
        # feasible
        assert np.all(residuals <= tol)
        # idempotent
        assert np.max(np.abs(project_into(proj, normals, offsets) - proj)) <= tol
        # non-expansive
        half = pts.shape[0] // 2
        gap = np.linalg.norm(proj[:half] - proj[half:], axis=1)
        assert np.all(gap <= np.linalg.norm(pts[:half] - pts[half:], axis=1) + tol)
        # KKT: x - P(x) is a nonnegative combination of the active normals
        for x, p, res in zip(pts, proj, residuals):
            if np.all(x @ normals.T <= offsets):
                assert np.array_equal(p, x)
                continue
            active = np.abs(res) <= tol
            assert active.any()
            _, rnorm = nnls(normals[active].T, x - p)
            assert rnorm <= tol
        # per-row offsets broadcast: a shared row equals its tiled copy, and
        # each row's own levels give that row's projection
        tiled = np.tile(offsets, (pts.shape[0], 1))
        assert np.array_equal(project_into(pts, normals, tiled), proj)
        widened = tiled + np.linspace(0.0, 1.0, pts.shape[0])[:, None]
        rows = project_into(pts, normals, widened)
        for x, row_offsets, p in zip(pts, widened, rows):
            assert np.allclose(project_into(x, normals, row_offsets), p, rtol=0.0, atol=tol)


class TestChebyshevCenter:
    def test_interior_margin_positive(self):
        poly = reference_set(0.5)
        center, margin = chebyshev_center(poly, ([-1.0, -4.0], [5.0, 4.0]))
        assert margin > 0
        assert slack(poly, center) >= margin - 1e-9


BOX = ([-1.0, -3.0], [4.0, 3.0])


class TestConditionChecker:
    @pytest.mark.parametrize("xi", [0.3, 0.8, 2.0])
    def test_reference_cone_mode_passes(self, xi):
        sc = section4_scenario(steps=8)
        report = check_viability_conditions(
            sc.coefficients, reference_set(xi), xi, mode="cone",
            box=([xi - 2.0, -3.0], [xi + 4.0, 3.0]),
        )
        assert report.passed
        assert report.exact_for_affine
        assert all(f.status == "pass" for f in report.faces)

    def test_reference_hyperplane_mode_flags_first_face(self):
        sc = section4_scenario(steps=8)
        xi = 0.8
        report = check_viability_conditions(
            sc.coefficients, reference_set(xi), xi, mode="hyperplane", box=BOX
        )
        assert not report.passed
        first = report.faces[0]
        assert first.status == "fail"
        assert "diffusion column 0" in first.worst_kind
        # the violation magnitude is |x - xi| at the worst sampled point
        assert first.worst_violation == pytest.approx(
            abs(first.worst_point[0] - xi), rel=1e-9
        )
        assert first.worst_point[0] != pytest.approx(xi)
        assert report.faces[1].status == "pass"

    def test_degenerate_fields_pass_both_modes(self):
        sc = constant_vol_scenario()
        for mode in ("cone", "hyperplane"):
            report = check_viability_conditions(
                sc.coefficients, reference_set(0.3), 0.3, mode=mode, box=BOX
            )
            assert report.passed

    def test_unsampled_face_is_not_a_pass(self):
        sc = section4_scenario(steps=8)
        report = check_viability_conditions(
            sc.coefficients, reference_set(0.0), 0.0, mode="cone",
            box=([1.0, 1.0], [3.0, 2.0]),
        )
        assert not report.passed
        assert {f.status for f in report.faces} == {"unsampled"}

    def test_empty_interior_rejected(self):
        sliver = Polyhedron(
            [
                HalfSpace(np.zeros(2), np.array([1.0, 0.0])),
                HalfSpace(np.zeros(2), np.array([-1.0, 0.0])),
            ]
        )
        with pytest.raises(ValueError, match="interior"):
            check_viability_conditions(
                section4_scenario(steps=8).coefficients, sliver, 0.0, box=BOX
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            check_viability_conditions(
                section4_scenario(steps=8).coefficients,
                reference_set(0.5),
                0.5,
                mode="tangent",
            )

    def test_report_serialization(self):
        sc = section4_scenario(steps=8)
        report = check_viability_conditions(
            sc.coefficients, reference_set(0.8), 0.8, mode="cone", box=BOX
        )
        doc = report.to_dict()
        assert doc["passed"] is True
        assert len(doc["faces"]) == 2
        table = report.format_table()
        assert "PASS" in table
        assert "face" in table
        import json

        parsed = json.loads(report.to_json())
        assert parsed == doc


# `check_viability_conditions` before its scores became arrays, kept verbatim
# but for its docstring, annotations, `viability.` prefixes and the face
# samples it scored beside the vertices: the array scoring must report the
# same worst value, point and kind, bit for bit.
def _loop_checker(
    coeffs,
    poly,
    xi: float,
    mode: str = "cone",
    box=None,
    tol: float = 1e-10,
):
    """`check_viability_conditions` as it was with its per-point scoring loop."""
    if mode not in ("cone", "hyperplane"):
        raise ValueError(f"mode must be 'cone' or 'hyperplane', got {mode!r}")
    if box is None:
        box = viability.default_box(poly, xi)
    lo, hi = viability._box_arrays(box, poly.dims)
    _, margin = viability.chebyshev_center(poly, (lo, hi))
    if margin <= 0:
        raise ValueError(
            "polyhedron has no interior point inside the box; widen the box"
        )
    affine = isinstance(coeffs, viability.ModelCoefficients)
    box_normals, box_offsets = viability._box_inequalities(lo, hi)
    scale = float(np.max(np.abs(np.concatenate([lo, hi]))) + 1.0)
    report = viability.ConditionReport(
        mode=mode, xi=float(xi), tol=float(tol), exact_for_affine=affine
    )

    for k in range(len(poly.faces)):
        normal = poly.normals[k]
        offset = poly.offsets[k]
        if mode == "cone":
            others = [j for j in range(len(poly.faces)) if j != k]
            ineq_normals = np.vstack([poly.normals[others], box_normals]) if others else box_normals
            ineq_offsets = (
                np.concatenate([poly.offsets[others], box_offsets]) if others else box_offsets
            )
        else:
            ineq_normals, ineq_offsets = box_normals, box_offsets
        vertices = viability._polytope_vertices(normal, offset, ineq_normals, ineq_offsets, scale)
        points = list(vertices)
        face_report = viability.FaceReport(face=k, status="unsampled", vertices=len(vertices))
        if not points:
            report.faces.append(face_report)
            continue
        pts = np.vstack(points)
        face_report.points = pts.shape[0]
        mu = viability.eval_mu(coeffs, xi, pts)
        sigma = viability.eval_sigma(coeffs, xi, pts)
        worst = float("-inf")
        worst_point = pts[0]
        worst_kind = ""

        def consider(value, point, kind):
            nonlocal worst, worst_point, worst_kind
            if value > worst:
                worst, worst_point, worst_kind = float(value), point, kind

        if mode == "cone":
            residuals = pts @ poly.normals.T - poly.offsets
            active_tol = max(tol, viability._GEOM_TOL * scale)
            for i in range(pts.shape[0]):
                active = np.nonzero(np.abs(residuals[i]) <= active_tol)[0]
                for a in active:
                    s = poly.normals[a]
                    consider(s @ mu[i], pts[i], f"drift against face {a} normal")
                    for j in range(sigma.shape[-1]):
                        consider(
                            s @ sigma[i, :, j],
                            pts[i],
                            f"diffusion column {j} against face {a} normal",
                        )
        else:
            h = -normal
            for i in range(pts.shape[0]):
                consider(-(h @ mu[i]), pts[i], "drift (inward component)")
                for j in range(sigma.shape[-1]):
                    consider(
                        abs(h @ sigma[i, :, j]), pts[i], f"diffusion column {j} (|projection|)"
                    )
        face_report.worst_violation = worst
        face_report.worst_point = worst_point
        face_report.worst_kind = worst_kind
        face_report.status = "pass" if worst <= tol else "fail"
        report.faces.append(face_report)
    return report


@st.composite
def checker_cases(draw):
    """(coefficients, polyhedron, mode): 2-4 faces in 2-D or 3-D around an
    interior point, and an affine field, all with entries that are small
    integers, so that scores tie exactly, or floats, so that sums round."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 4))
    floats = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    entry = draw(st.sampled_from([st.integers(-2, 2), floats]))

    def ints(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    rows = st.lists(entry, min_size=d, max_size=d).filter(any)
    normals = np.array(draw(st.lists(rows, min_size=m, max_size=m)), dtype=float)
    center = ints(d)
    poly = Polyhedron([HalfSpace(center + n, n) for n in normals])
    mode = draw(st.sampled_from(["cone", "hyperplane"]))
    drift, xi_drift, const = ints(d, d), ints(d), ints(d)
    weights, xi_weights, offsets, directions = ints(d, d), ints(d), ints(d), ints(d, d)
    coeffs = ModelCoefficients(drift, xi_drift, const, weights, xi_weights, offsets, directions)
    return coeffs, poly, mode


class TestArrayScoring:
    @given(case=checker_cases(), xi=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_point_loop_bit_for_bit(self, case, xi):
        coeffs, poly, mode = case
        got = check_viability_conditions(coeffs, poly, xi, mode=mode)
        expected = _loop_checker(coeffs, poly, xi, mode=mode)
        assert got.to_json() == expected.to_json()

    @given(case=checker_cases(), xi=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_vertices_bound_every_face_point(self, case, xi):
        # each face's own score is affine (drift, cone-mode columns) or the
        # absolute value of an affine function (hyperplane-mode columns) on the
        # face, so no point of its box-clipped polytope scores above the worst
        # vertex: uniform box points moved onto the face show it
        coeffs, poly, mode = case
        report = check_viability_conditions(coeffs, poly, xi, mode=mode)
        lo, hi = viability._box_arrays(viability.default_box(poly, xi), poly.dims)
        rng = np.random.default_rng(len(poly.faces))
        for face in report.faces:
            if face.status == "unsampled":
                continue
            normal, offset = poly.normals[face.face], poly.offsets[face.face]
            u = rng.uniform(lo, hi, size=(512, lo.size))
            x = u + np.outer((offset - u @ normal) / (normal @ normal), normal)
            keep = np.all((x >= lo) & (x <= hi), axis=1)
            if mode == "cone":
                keep &= np.all(x @ poly.normals.T <= poly.offsets + 1e-9, axis=1)
            x = x[keep]
            h = normal if mode == "cone" else -normal
            drift = eval_mu(coeffs, xi, x) @ h
            columns = np.einsum("d,pdj->pj", h, eval_sigma(coeffs, xi, x))
            if mode == "hyperplane":
                drift, columns = -drift, np.abs(columns)
            worst = np.max(np.column_stack([drift, columns]), initial=-np.inf)
            scale = 1.0 + np.max(np.abs(np.column_stack([drift, columns])), initial=0.0)
            assert worst <= face.worst_violation + 1e-9 * scale

    @pytest.mark.parametrize("mode", ["cone", "hyperplane"])
    def test_nan_scores_fail(self, mode):
        # at the vertex (1, 12) of face 1 the drift overflows to (1e308, -inf),
        # and its score against the face's normal is 1e308 + 0 * inf = NaN: a
        # face whose score cannot be computed fails instead of passing
        huge = ModelCoefficients(
            np.diag([1e308, -1e308]), np.zeros(2), np.zeros(2),
            np.zeros((2, 2)), np.zeros(2), np.zeros(2), np.eye(2),
        )
        sc = section4_scenario(steps=8)
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_viability_conditions(huge, sc.polyhedron(1.0), 1.0, mode=mode)
        face = report.faces[1]
        assert not report.passed
        assert face.status == "fail"
        assert face.worst_violation == np.inf
        assert face.worst_kind.startswith("drift")
        assert face.worst_point.tolist() == [1.0, 12.0]

    @pytest.mark.parametrize("mode", ["cone", "hyperplane"])
    @pytest.mark.parametrize("field", ["drift", "diffusion column 0"])
    def test_non_finite_fields_fail(self, field, mode):
        # at the vertex (13, -12) of face 0 the drift, or diffusion column 0,
        # overflows to (inf, inf), which scores -inf against the face's normal
        # in cone mode: a field that cannot be evaluated at a vertex fails the
        # face however its score points
        z = np.zeros(2)
        if field == "drift":
            coeffs = ModelCoefficients(
                np.diag([1e308, -1e308]), z, z, np.zeros((2, 2)), z, z, np.eye(2)
            )
        else:
            weights = np.array([[1e308, -1e308], [0.0, 0.0]])
            coeffs = ModelCoefficients(
                np.zeros((2, 2)), z, z, weights, z, z, np.array([[1.0, 1.0], [0.0, 1.0]])
            )
        sc = section4_scenario(steps=8)
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_viability_conditions(coeffs, sc.polyhedron(1.0), 1.0, mode=mode)
        face = report.faces[0]
        assert face.status == "fail"
        assert face.worst_violation == np.inf
        assert face.worst_kind.startswith(field)
        assert face.worst_point.tolist() == [13.0, -12.0]
