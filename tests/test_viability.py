import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvol import (
    HalfSpace,
    Polyhedron,
    SamplePath,
    TimeGrid,
    chebyshev_center,
    check_viability_conditions,
    contains,
    normal_cone_generators,
    path_viability_margin,
    shifted_polyhedron,
    slack,
)
from fracvol import viability
from fracvol.rng import stream_key
from fracvol.scenario import constant_vol_scenario, section4_scenario
from fracvol.viability import project_into

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
        grid = TimeGrid(1.0, 3)
        poly = reference_set(0.5)
        inside = SamplePath(grid, np.tile([2.0, 1.0], (4, 1)))
        assert path_viability_margin(inside, poly) == pytest.approx(
            slack(poly, [2.0, 1.0])
        )
        values = np.tile([2.0, 1.0], (4, 1))
        values[2] = [0.25, 0.0]  # one excursion
        assert path_viability_margin(SamplePath(grid, values), poly) == pytest.approx(
            -0.25
        )


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


    def test_nonconvergence_is_reported(self, caplog):
        # a wedge |y| <= 0.1 x; (-1, 0.3) projects onto its apex, which
        # Dykstra's zigzag between the two faces approaches slowly
        normals = np.array([[-0.1, 1.0], [-0.1, -1.0]])
        x = np.array([-1.0, 0.3])
        with caplog.at_level(logging.WARNING, logger="fracvol.viability"):
            capped = project_into(x, normals, np.zeros(2))
        [record] = caplog.records
        assert "did not converge in 48 sweeps" in record.getMessage()
        assert "largest final move" in record.getMessage()
        assert np.linalg.norm(capped) > 0.1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fracvol.viability"):
            converged = project_into(x, normals, np.zeros(2), iterations=2000)
        assert not caplog.records
        assert np.allclose(converged, 0.0, atol=1e-12)


def _twenty_round_samples(poly, face, lo, hi, count, tol, restrict):
    """The face sampler's draws over all 20 rounds it may take, filtered alike."""
    normal, offset = poly.normals[face], poly.offsets[face]
    rng = np.random.default_rng(stream_key(viability._CHECKER_SEED, face, int(restrict)))
    geom = viability._GEOM_TOL * max(float(np.max(hi - lo)), 1.0)
    others = [k for k in range(len(poly.faces)) if k != face]
    kept = []
    for _ in range(20):
        u = rng.uniform(lo, hi, size=(4 * count, lo.size))
        x = u + np.outer((offset - u @ normal) / (normal @ normal), normal)
        ok = np.all(x >= lo - geom, axis=1) & np.all(x <= hi + geom, axis=1)
        if restrict and others:
            ok &= np.all(x @ poly.normals[others].T - poly.offsets[others] <= tol + geom, axis=1)
        kept.append(x[ok])
    return np.concatenate(kept)


class TestFaceSamples:
    @staticmethod
    def _slab(width):
        """x <= 0 cut to |y| <= width: few samples of face 0 survive in cone mode."""
        return Polyhedron(
            [
                HalfSpace(np.zeros(2), np.array([1.0, 0.0])),
                HalfSpace(np.array([0.0, width]), np.array([0.0, 1.0])),
                HalfSpace(np.array([0.0, -width]), np.array([0.0, -1.0])),
            ]
        )

    @pytest.mark.parametrize("width", [0.1, 0.01])
    @pytest.mark.parametrize("count", [64, 256])
    def test_first_rows_of_all_rounds(self, width, count):
        # width 0.1 keeps about 6 points a round, so the sampler stops part of
        # the way; width 0.01 keeps fewer than `count` in all 20 rounds
        poly = self._slab(width)
        lo, hi = np.full(2, -4.0), np.full(2, 4.0)
        got = viability._face_samples(poly, 0, lo, hi, count, 1e-10, True)
        reference = _twenty_round_samples(poly, 0, lo, hi, count, 1e-10, True)
        assert got.tobytes() == reference[:count].tobytes()

    @pytest.mark.parametrize("make", [section4_scenario, constant_vol_scenario])
    def test_one_round_on_the_presets(self, make, monkeypatch):
        # every preset face keeps at least 128 of the first 256 draws
        sc = make()
        rounds = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, *args, **kwargs):
                rounds.append(1)
                return self.rng.uniform(*args, **kwargs)

        xi = sc.xi.upper
        poly = sc.polyhedron(xi)
        lo, hi = viability.default_box(poly, xi)
        for face in range(len(poly.faces)):
            for restrict in (True, False):
                reference = _twenty_round_samples(poly, face, lo, hi, 64, 1e-10, restrict)
                rounds.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(np.random, "default_rng", CountingRng)
                    got = viability._face_samples(poly, face, lo, hi, 64, 1e-10, restrict)
                assert rounds == [1]
                assert got.tobytes() == reference[:64].tobytes()


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
