"""Convex polyhedra as half-space intersections and boundary condition checks.

A state constraint set is the intersection of half-spaces {x : <v_k, x - a_k> <= 0}
with outward normals v_k.  The checker verifies, face by face, that a drift and
diffusion field point (weakly) inward on the boundary, in one of two senses:

* ``cone`` mode: at boundary points of the polyhedron, every active-face normal
  s must satisfy <s, mu> <= tol and <s, sigma_col_j> <= tol for all columns j.
* ``hyperplane`` mode: on each face's entire hyperplane, the projection vector
  h_k = -v_k must satisfy <h_k, mu> >= -tol and |<h_k, sigma_col_j>| <= tol.

The two modes are genuinely different: a field can pass the cone check while
violating the hyperplane equalities away from the set, and the reports make
that visible rather than reconciling it.  They also promise different things.
Hyperplane (tangency) mode is the condition under which unprojected
fBm-driven paths stay in the set: a diffusion column with a nonzero normal
component on a face lets symmetric noise push the state across it.  Cone mode,
which pricing requires before it runs, certifies only the inward inequalities
and relies on the per-step projection onto the set to keep paths inside.

The coefficient family is affine in the state, so the conditions are too,
and a face passes everywhere on its box-clipped polytope iff it passes at the
polytope's vertices.  The checker enumerates those vertices and scores them
and nothing else: the verdict is exact, and no sampling is involved.  The
set's own vertices first certify that it has an interior point in the box.

`project_into` is the exact Euclidean projection onto such a set, which pricing
applies after every Euler step: a closed-form step for points outside one
face, and at corners an enumeration of active sets checked against the KKT
conditions (Nocedal & Wright, *Numerical Optimization*, ch. 16).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ModelCoefficients, eval_mu, eval_sigma
from .grids import is_integer

_GEOM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """{x : normals @ x <= offsets}: face k has outward normal normals[k] and passes
    through anchors[k].  The (faces, dims) arrays are read-only copies."""

    normals: np.ndarray
    anchors: np.ndarray
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        normals = np.array(self.normals, dtype=float, order="C")
        anchors = np.array(self.anchors, dtype=float, order="C")
        if normals.ndim != 2 or normals.shape != anchors.shape:
            raise ValueError(f"normals {normals.shape}, anchors {anchors.shape}: need one 2-D shape")
        if not len(normals):
            raise ValueError("a polyhedron needs at least one face")
        if not np.all(np.any(normals != 0, axis=1)):
            raise ValueError("every face normal must be nonzero")
        offsets = np.einsum("kd,kd->k", normals, anchors)
        for name, array in (("normals", normals), ("anchors", anchors), ("offsets", offsets)):
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} contains non-finite entries")
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def dims(self) -> int:
        return self.normals.shape[1]


def shifted_polyhedron(projections, anchor_indices, xi: float) -> Polyhedron:
    """Faces anchored at (xi / h_k[i_k]) e_{i_k} with outward normal -h_k.

    At xi = 0 every anchor is the origin and the set is the cone on which all
    projections <h_k, x> are nonnegative; positive xi shifts each face so that
    <h_k, x> >= xi instead.
    """
    if not np.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    h = np.atleast_2d(np.asarray(projections, dtype=float))
    indices = list(anchor_indices)
    for i in indices:
        if not is_integer(i):
            raise ValueError(f"anchor index {i!r} must be an integer")
    if len(indices) != h.shape[0]:
        raise ValueError("need one anchor index per projection vector")
    d = h.shape[1]
    anchors = np.zeros(h.shape)
    for k, ik in enumerate(indices):
        if not 0 <= ik < d:
            raise ValueError(f"anchor index {ik} out of range for dimension {d}")
        if h[k, ik] == 0:
            raise ValueError(
                f"projection {k} has zero coordinate at its anchor index {ik}"
            )
        anchors[k, ik] = xi / h[k, ik]
    return Polyhedron(-h, anchors)


def slack(poly: Polyhedron, x) -> np.ndarray | float:
    """min_k -<v_k, x - a_k>: positive strictly inside, zero on the boundary."""
    x = np.asarray(x, dtype=float)
    values = np.min(poly.offsets - x @ poly.normals.T, axis=-1)
    return float(values) if values.ndim == 0 else values


def contains(poly: Polyhedron, x, tol: float = 0.0):
    """Membership within tolerance: every face residual at most tol."""
    result = slack(poly, x) >= -tol
    return bool(result) if np.ndim(result) == 0 else result


def normal_cone_generators(poly: Polyhedron, x, tol: float = 1e-10) -> list[np.ndarray]:
    """Outward normals of the faces active at x; empty at interior points.

    For a polyhedron these generate the cone of directions s with
    <s, y - x> <= 0 for all members y.
    """
    x = np.asarray(x, dtype=float)
    if not contains(poly, x, tol):
        raise ValueError("point lies outside the polyhedron beyond the tolerance")
    residuals = np.abs(x @ poly.normals.T - poly.offsets)
    return [poly.normals[k].copy() for k in np.nonzero(residuals <= tol)[0]]


def path_viability_margin(path, poly: Polyhedron) -> float:
    """Smallest slack along the path (points, d); negative iff the path exits the set."""
    return float(np.min(slack(poly, path)))


def face_terms(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(normals.T as a contiguous (d, faces) copy, squared norms (faces,), ones
    (faces,) to count touched faces by) of the faces (faces, d), the terms
    `project_into` reuses on every call; numpy multiplies by the transposed
    view itself 1.5-3x slower, with the same bits.  The count is a uint8
    matmul, about half the time of a bool sum over the short face axis; it
    cannot wrap with under 256 faces.  numpy divides (points, faces) by
    (faces,) norms faces elements at a time, 3-4x slower than by norms copied
    to every point, with the same bits; `rde.euler_stepper` passes such a copy
    (see `project_into`)."""
    ones = np.ones(normals.shape[0], np.uint8 if normals.shape[0] < 256 else np.intp)
    return np.ascontiguousarray(normals.T), np.einsum("kd,kd->k", normals, normals), ones


def project_into(
    x: np.ndarray, normals: np.ndarray, offsets: np.ndarray, faces: tuple | None = None
) -> np.ndarray:
    """Euclidean projection of points onto {y : normals @ y <= offsets}, exactly.

    A point outside one face steps straight onto it, y = x - (excess / |n_k|^2) n_k,
    in one dense update of all points.  A point outside two or more faces, or
    whose step lands outside a face it did not violate, is projected by
    `_project_by_active_sets` instead.  `offsets` may carry leading batch axes to
    give every point its own constraint levels.  Points already inside are
    returned unchanged; a point keeps the rounding excess (about one ulp) of
    the face it was moved onto.  Raises ValueError when no active set satisfies
    the KKT conditions, which means the set is empty.  A caller that projects
    onto the same faces many times may pass their `face_terms` once computed,
    with the squared norms (faces,) or copied to the offsets' shape.
    """
    x = np.asarray(x, dtype=float)
    normals_t, sq_norms, face_ones = face_terms(normals) if faces is None else faces
    excess = x @ normals_t
    excess -= offsets
    np.maximum(excess, 0.0, out=excess)
    if not np.count_nonzero(excess):  # counts NaN, as .any() would
        return x
    touched = excess > 0.0
    excess /= sq_norms
    # the step and the face test reuse the product's buffer and `excess`, so
    # a call holds one fresh (points, d) array beside x and excess
    y = excess @ normals
    np.subtract(x, y, out=y)
    touched |= np.matmul(y, normals_t, out=excess) > offsets
    corner = touched.view(np.uint8) @ face_ones > 1
    if np.count_nonzero(corner):
        offsets = np.broadcast_to(offsets, excess.shape)
        y[corner] = _project_by_active_sets(x[corner], normals, offsets[corner])
    return y


def _project_by_active_sets(x: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Projection of points x (k, d) with offsets (k, m) by enumeration of active sets.

    For each linearly independent set A of at most d faces, the nearest point
    of their common hyperplane is p = x - lam @ N_A with (N_A N_A^T) lam =
    N_A x - b_A.  The KKT conditions of the projection hold where lam >= 0 and
    p is feasible; of the candidates with lam >= 0 (within a tolerance relative
    to the point's scale) each point keeps the least infeasible one, which
    must be feasible within that tolerance.
    """
    m, d = normals.shape
    norms = np.sqrt(np.einsum("kd,kd->k", normals, normals))
    tol = _GEOM_TOL * (
        1.0 + np.max(np.abs(x), axis=-1) + np.max(np.abs(offsets) / norms, axis=-1)
    )
    best = np.full(x.shape, np.nan)
    best_gap = np.full(x.shape[0], np.inf)
    for size in range(1, min(m, d) + 1):
        for combo in map(list, itertools.combinations(range(m), size)):
            rows = normals[combo]
            gram = rows @ rows.T
            if np.linalg.det(gram) <= _GEOM_TOL * np.prod(np.diag(gram)):
                continue  # linearly dependent faces
            lam = np.linalg.solve(gram, (x @ rows.T - offsets[:, combo]).T).T
            p = x - lam @ rows
            gap = np.max((p @ normals.T - offsets) / norms, axis=-1)
            take = (np.min(lam * norms[combo], axis=-1) >= -tol) & (gap < best_gap)
            best[take], best_gap[take] = p[take], gap[take]
    if not np.all(best_gap <= tol):
        raise ValueError(
            "projection failed: no active set satisfies the KKT conditions, "
            "so the constraint set is empty"
        )
    return best


def _box_arrays(box, dims: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dims,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dims,)).copy()
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"box bounds must be finite, got {lo} and {hi}")
    if np.any(lo >= hi):
        raise ValueError("box must have positive extent in every coordinate")
    return lo, hi


def default_box(poly: Polyhedron, xi: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box around the anchors, wide enough to expose each face."""
    center = poly.anchors.mean(axis=0)
    halfwidth = 4.0 * (1.0 + np.max(np.abs(poly.anchors)) + abs(xi))
    return center - halfwidth, center + halfwidth


@dataclass
class FaceReport:
    face: int
    status: str  # "pass" | "fail" | "unsampled"
    points: int = 0
    vertices: int = 0
    worst_violation: float = float("-inf")
    worst_point: np.ndarray | None = None
    worst_kind: str = ""

    def to_dict(self) -> dict:
        return {
            "face": self.face,
            "status": self.status,
            "points": self.points,
            "vertices": self.vertices,
            "worst_violation": None
            if self.worst_point is None
            else self.worst_violation,
            "worst_point": None
            if self.worst_point is None
            else [float(v) for v in self.worst_point],
            "worst_kind": self.worst_kind,
        }


@dataclass
class ConditionReport:
    mode: str
    xi: float
    tol: float
    exact_for_affine: bool
    faces: list[FaceReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(f.status == "pass" for f in self.faces)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "xi": self.xi,
            "tol": self.tol,
            "exact_for_affine": self.exact_for_affine,
            "passed": self.passed,
            "faces": [f.to_dict() for f in self.faces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_table(self) -> str:
        lines = [
            f"mode: {self.mode}   xi: {self.xi:g}   tol: {self.tol:g}   "
            f"exact vertex certification: {'yes' if self.exact_for_affine else 'no'}",
            f"{'face':>4}  {'status':<9} {'points':>6} {'verts':>5}  worst",
        ]
        for f in self.faces:
            if f.worst_point is None:
                worst = "-"
            else:
                point = ", ".join(f"{v:.6g}" for v in f.worst_point)
                worst = f"{f.worst_violation:.3e} ({f.worst_kind} at [{point}])"
            lines.append(
                f"{f.face:>4}  {f.status:<9} {f.points:>6} {f.vertices:>5}  {worst}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _box_inequalities(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = lo.size
    eye = np.eye(d)
    return np.vstack([eye, -eye]), np.concatenate([hi, -lo])


def _polytope_vertices(
    eq_normals: np.ndarray,
    eq_offsets,
    ineq_normals: np.ndarray,
    ineq_offsets: np.ndarray,
    scale: float,
) -> list[np.ndarray]:
    """Vertices of {x : eq_normals @ x = eq_offsets, ineq_normals @ x <= ineq_offsets},
    eq_normals (d,) or (e, d), by enumeration of active subsets; for low d.

    An active set is singular when |det| of its rows is at most `_GEOM_TOL`
    times the product of their norms, and a point is feasible when no
    inequality's residual exceeds `_GEOM_TOL` * scale per unit normal, so
    rescaling any normal with its offset leaves the vertices as they are.
    """
    eq_normals, eq_offsets = np.atleast_2d(eq_normals), np.atleast_1d(eq_offsets)
    d = eq_normals.shape[1]
    m = ineq_normals.shape[0]
    norms = [math.hypot(*row) for row in ineq_normals.tolist()]
    slack = _GEOM_TOL * scale * np.array(norms)
    # an active set is singular where |det| is at most this times the norms of
    # its inequalities
    singular = _GEOM_TOL * math.prod(math.hypot(*row) for row in eq_normals.tolist())
    found: list[np.ndarray] = []
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(m), d - eq_normals.shape[0]):
        active = list(combo)
        rows = np.concatenate([eq_normals, ineq_normals[active]])
        rhs = np.concatenate([eq_offsets, ineq_offsets[active]])
        if abs(np.linalg.det(rows)) <= singular * math.prod(norms[i] for i in combo):
            continue
        x = np.linalg.solve(rows, rhs)
        if np.any(ineq_normals @ x - ineq_offsets > slack):
            continue
        key = tuple(np.round(x / max(scale, 1.0), 9))
        if key not in seen:
            seen.add(key)
            found.append(x)
    return found


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis, broadcast over the others.

    Each product is taken as one (1, d) @ (d, 1) matmul, which numpy hands to
    the dot routine a 1-D `u @ v` uses, so that it keeps that product's bits;
    a (k, d) @ (d, n) matmul may round it differently.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def check_viability_conditions(
    coeffs: ModelCoefficients,
    poly: Polyhedron,
    xi: float,
    mode: str = "cone",
    samples_per_face: int | None = None,
    box=None,
    tol: float = 1e-10,
) -> ConditionReport:
    """Check the boundary drift/diffusion conditions face by face, at the
    vertices of each face's box-clipped polytope.

    Returns a per-face pass/fail/unsampled report carrying the worst vertex.
    A face whose intersection with the box has no vertex is reported as
    "unsampled", never as a silent pass.  A score that evaluates to NaN, and
    every score of a drift or diffusion column that is not finite at a vertex,
    counts as an infinite violation.  `samples_per_face` is ignored and kept
    only for callers that still pass it.
    """
    if mode not in ("cone", "hyperplane"):
        raise ValueError(f"mode must be 'cone' or 'hyperplane', got {mode!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if not np.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    if box is None:
        box = default_box(poly, xi)
    lo, hi = _box_arrays(box, poly.dims)
    box_normals, box_offsets = _box_inequalities(lo, hi)
    scale = float(np.max(np.abs(np.concatenate([lo, hi]))) + 1.0)
    # an interior point exactly when the vertices' centroid is inside every unit face
    norms = np.sqrt(np.einsum("kd,kd->k", poly.normals, poly.normals))
    unit = np.vstack([poly.normals / norms[:, None], box_normals])
    levels = np.concatenate([poly.offsets / norms, box_offsets])
    corners = _polytope_vertices(np.empty((0, poly.dims)), [], unit, levels, scale)
    if not corners or np.min(levels - unit @ np.mean(corners, axis=0)) <= _GEOM_TOL * scale:
        raise ValueError(
            "polyhedron has no interior point inside the box; widen the box"
        )
    report = ConditionReport(
        mode=mode, xi=float(xi), tol=float(tol), exact_for_affine=True
    )

    for k in range(len(poly.normals)):
        normal = poly.normals[k]
        offset = poly.offsets[k]
        if mode == "cone":
            others = np.arange(len(poly.normals)) != k
            ineq_normals = np.vstack([poly.normals[others], box_normals])
            ineq_offsets = np.concatenate([poly.offsets[others], box_offsets])
        else:
            ineq_normals, ineq_offsets = box_normals, box_offsets
        vertices = _polytope_vertices(normal, offset, ineq_normals, ineq_offsets, scale)
        face_report = FaceReport(face=k, status="unsampled", vertices=len(vertices))
        if not vertices:
            report.faces.append(face_report)
            continue
        pts = np.vstack(vertices)
        face_report.points = pts.shape[0]
        mu = eval_mu(coeffs, xi, pts)
        sigma = eval_sigma(coeffs, xi, pts)
        # scores laid out (point, face, drift then diffusion column j); the
        # first maximum is the one a strict `>` scan in that order would keep.
        # Faces inactive at a point can never be the worst, and a NaN score,
        # one that could not be computed, always is, so that its face fails;
        # so is any score of a field that overflowed at the point
        faces = poly.normals if mode == "cone" else -normal[None, :]
        drift = _dots(faces, mu[:, None])
        columns = np.swapaxes(sigma, -1, -2)[:, None]
        scores = np.concatenate([drift[..., None], _dots(faces[:, None], columns)], axis=-1)
        if mode == "hyperplane":
            np.negative(scores[..., 0], out=scores[..., 0])
            np.abs(scores[..., 1:], out=scores[..., 1:])
        finite = np.isfinite(np.concatenate([mu[:, None], columns[:, 0]], axis=1)).all(-1)
        scores[np.isnan(scores) | ~finite[:, None]] = np.inf
        if mode == "cone":
            residuals = pts @ poly.normals.T - poly.offsets
            scores[~(np.abs(residuals) <= max(tol, _GEOM_TOL * scale))] = -np.inf
        where = np.unravel_index(np.argmax(scores), scores.shape)
        worst = float(scores[where])
        worst_kind = "drift" if where[-1] == 0 else f"diffusion column {where[-1] - 1}"
        if worst == float("-inf"):
            worst_kind = ""
        elif mode == "cone":
            worst_kind += f" against face {where[1]} normal"
        else:
            worst_kind += " (inward component)" if where[-1] == 0 else " (|projection|)"
        face_report.worst_violation = worst
        face_report.worst_point = pts[where[0]]
        face_report.worst_kind = worst_kind
        face_report.status = "pass" if worst <= tol else "fail"
        report.faces.append(face_report)
    return report
