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

For the affine coefficient family the conditions are affine in the state, so a
face passes everywhere on its box-clipped polytope iff it passes at the
polytope's vertices; the checker enumerates those vertices exactly and adds
uniform boundary samples (the only evidence available for callable fields).
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .coefficients import Coefficients, ModelCoefficients, eval_mu, eval_sigma
from .grids import SamplePath
from .rng import stream_key

_CHECKER_SEED = 0x5EED
_GEOM_TOL = 1e-9

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Points x with <normal, x - anchor> <= 0; the normal points outward."""

    anchor: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        normal = np.asarray(self.normal, dtype=float)
        if anchor.shape != normal.shape or anchor.ndim != 1:
            raise ValueError("anchor and normal must be 1-D vectors of equal length")
        if not np.any(normal != 0):
            raise ValueError("normal must be nonzero")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "normal", normal)

    @property
    def offset(self) -> float:
        return float(self.normal @ self.anchor)


class Polyhedron:
    """Finite intersection of half-spaces."""

    def __init__(self, faces):
        faces = list(faces)
        if not faces:
            raise ValueError("a polyhedron needs at least one face")
        dims = {f.normal.size for f in faces}
        if len(dims) != 1:
            raise ValueError("all faces must live in the same dimension")
        self.faces = faces
        self.normals = np.vstack([f.normal for f in faces])
        self.anchors = np.vstack([f.anchor for f in faces])
        self.offsets = np.einsum("kd,kd->k", self.normals, self.anchors)

    @property
    def dims(self) -> int:
        return self.normals.shape[1]

    def __repr__(self):
        return f"Polyhedron({len(self.faces)} faces, dims={self.dims})"


def shifted_polyhedron(projections, anchor_indices, xi: float) -> Polyhedron:
    """Faces anchored at (xi / h_k[i_k]) e_{i_k} with outward normal -h_k.

    At xi = 0 every anchor is the origin and the set is the cone on which all
    projections <h_k, x> are nonnegative; positive xi shifts each face so that
    <h_k, x> >= xi instead.
    """
    h = np.atleast_2d(np.asarray(projections, dtype=float))
    indices = [int(i) for i in anchor_indices]
    if len(indices) != h.shape[0]:
        raise ValueError("need one anchor index per projection vector")
    d = h.shape[1]
    faces = []
    for k, (hk, ik) in enumerate(zip(h, indices)):
        if not 0 <= ik < d:
            raise ValueError(f"anchor index {ik} out of range for dimension {d}")
        pivot = hk[ik]
        if pivot == 0:
            raise ValueError(
                f"projection {k} has zero coordinate at its anchor index {ik}"
            )
        anchor = np.zeros(d)
        anchor[ik] = xi / pivot
        faces.append(HalfSpace(anchor, -hk))
    return Polyhedron(faces)


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
    """Smallest slack along the path; negative iff the path exits the set."""
    values = path.values if isinstance(path, SamplePath) else np.asarray(path, float)
    return float(np.min(slack(poly, values)))


def project_into(
    x: np.ndarray, normals: np.ndarray, offsets: np.ndarray, iterations: int = 48
) -> np.ndarray:
    """Euclidean projection of points onto {y : normals @ y <= offsets}.

    Dykstra's alternating projections: exact for one half-space, geometrically
    convergent for intersections.  `offsets` may carry leading batch axes to
    give every point its own constraint levels.  Points already inside are
    returned unchanged.  If points still move in the last of `iterations`
    sweeps, the result is returned as it stands and a warning is logged.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x).astype(float)
    offsets = np.broadcast_to(np.asarray(offsets, dtype=float), pts.shape[:-1] + (normals.shape[0],))
    outside = np.any(pts @ normals.T > offsets, axis=-1)
    if not np.any(outside):
        return x
    sub = pts[outside]
    sub_off = offsets[outside]
    sq = np.einsum("kd,kd->k", normals, normals)
    corrections = np.zeros((normals.shape[0],) + sub.shape)
    moved = 0.0
    for _ in range(iterations):
        moved = 0.0
        for k in range(normals.shape[0]):
            y = sub + corrections[k]
            excess = np.maximum(y @ normals[k] - sub_off[:, k], 0.0)
            stepped = y - np.outer(excess / sq[k], normals[k])
            corrections[k] = y - stepped
            moved = max(moved, float(np.max(np.abs(stepped - sub))))
            sub = stepped
        if moved == 0.0:
            break
    if moved > 0.0:
        logger.warning(
            "Dykstra projection did not converge in %d sweeps: largest final move %.3e",
            iterations,
            moved,
        )
    out = pts.copy()
    out[outside] = sub
    return out.reshape(np.shape(x)) if np.ndim(x) > 1 else out[0]


def chebyshev_center(poly: Polyhedron, box) -> tuple[np.ndarray, float]:
    """Point of maximum margin inside the polyhedron restricted to the box.

    Solved as a linear program over (x, r): maximize r subject to
    <v_k, x> + r |v_k| <= offset_k and the box inflated inward by r.
    """
    lo, hi = _box_arrays(box, poly.dims)
    d = poly.dims
    norms = np.linalg.norm(poly.normals, axis=1)
    a_rows = [np.concatenate([poly.normals, norms[:, None]], axis=1)]
    b_rows = [poly.offsets]
    eye = np.eye(d)
    a_rows.append(np.concatenate([eye, np.ones((d, 1))], axis=1))
    b_rows.append(hi)
    a_rows.append(np.concatenate([-eye, np.ones((d, 1))], axis=1))
    b_rows.append(-lo)
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=np.vstack(a_rows),
        b_ub=np.concatenate(b_rows),
        bounds=[(None, None)] * (d + 1),
        method="highs",
    )
    if not res.success:
        raise ValueError(f"margin maximization failed: {res.message}")
    return res.x[:-1], float(res.x[-1])


def _box_arrays(box, dims: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dims,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dims,)).copy()
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
    eq_normal: np.ndarray,
    eq_offset: float,
    ineq_normals: np.ndarray,
    ineq_offsets: np.ndarray,
    scale: float,
) -> list[np.ndarray]:
    """Vertices of {x : <eq_normal, x> = eq_offset, ineq <= offsets}, by brute
    enumeration of active inequality subsets.  Fine for low dimensions."""
    d = eq_normal.size
    m = ineq_normals.shape[0]
    tol = _GEOM_TOL * scale
    found: list[np.ndarray] = []
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(m), d - 1):
        rows = np.vstack([eq_normal[None, :], ineq_normals[list(combo)]])
        rhs = np.concatenate([[eq_offset], ineq_offsets[list(combo)]])
        if abs(np.linalg.det(rows)) <= tol:
            continue
        x = np.linalg.solve(rows, rhs)
        if np.any(ineq_normals @ x > ineq_offsets + tol):
            continue
        key = tuple(np.round(x / max(scale, 1.0), 9))
        if key not in seen:
            seen.add(key)
            found.append(x)
    return found


def _face_samples(
    poly: Polyhedron,
    face_index: int,
    lo: np.ndarray,
    hi: np.ndarray,
    count: int,
    tol: float,
    restrict_to_set: bool,
) -> np.ndarray:
    """Uniform box samples projected onto the face hyperplane, filtered to the
    box and (in cone mode) to the other half-spaces."""
    normal = poly.normals[face_index]
    offset = poly.offsets[face_index]
    rng = np.random.default_rng(stream_key(_CHECKER_SEED, face_index, int(restrict_to_set)))
    scale = float(np.max(hi - lo))
    geom = _GEOM_TOL * max(scale, 1.0)
    kept = []
    total = 0
    while total < count and len(kept) < 20:
        u = rng.uniform(lo, hi, size=(4 * count, lo.size))
        x = u + np.outer((offset - u @ normal) / (normal @ normal), normal)
        ok = np.all(x >= lo - geom, axis=1) & np.all(x <= hi + geom, axis=1)
        if restrict_to_set:
            others = [k for k in range(len(poly.faces)) if k != face_index]
            if others:
                residuals = x @ poly.normals[others].T - poly.offsets[others]
                ok &= np.all(residuals <= tol + geom, axis=1)
        kept.append(x[ok])
        total += kept[-1].shape[0]
    if not kept:
        return np.empty((0, lo.size))
    return np.concatenate(kept, axis=0)[:count]


def check_viability_conditions(
    coeffs: Coefficients,
    poly: Polyhedron,
    xi: float,
    mode: str = "cone",
    samples_per_face: int = 256,
    box=None,
    tol: float = 1e-10,
) -> ConditionReport:
    """Check the boundary drift/diffusion conditions face by face.

    Returns a per-face pass/fail/unsampled report carrying the worst violating
    sample.  A face whose intersection with the box yields no evaluation point
    is reported as "unsampled", never as a silent pass.
    """
    if mode not in ("cone", "hyperplane"):
        raise ValueError(f"mode must be 'cone' or 'hyperplane', got {mode!r}")
    if box is None:
        box = default_box(poly, xi)
    lo, hi = _box_arrays(box, poly.dims)
    _, margin = chebyshev_center(poly, (lo, hi))
    if margin <= 0:
        raise ValueError(
            "polyhedron has no interior point inside the box; widen the box"
        )
    affine = isinstance(coeffs, ModelCoefficients)
    box_normals, box_offsets = _box_inequalities(lo, hi)
    scale = float(np.max(np.abs(np.concatenate([lo, hi]))) + 1.0)
    report = ConditionReport(
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
        vertices = _polytope_vertices(normal, offset, ineq_normals, ineq_offsets, scale)
        samples = _face_samples(
            poly, k, lo, hi, samples_per_face, tol, restrict_to_set=(mode == "cone")
        )
        points = list(vertices) + list(samples)
        face_report = FaceReport(face=k, status="unsampled", vertices=len(vertices))
        if not points:
            report.faces.append(face_report)
            continue
        pts = np.vstack(points)
        face_report.points = pts.shape[0]
        mu = eval_mu(coeffs, xi, pts)
        sigma = eval_sigma(coeffs, xi, pts)
        worst = float("-inf")
        worst_point = pts[0]
        worst_kind = ""

        def consider(value, point, kind):
            nonlocal worst, worst_point, worst_kind
            if value > worst:
                worst, worst_point, worst_kind = float(value), point, kind

        if mode == "cone":
            residuals = pts @ poly.normals.T - poly.offsets
            active_tol = max(tol, _GEOM_TOL * scale)
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
