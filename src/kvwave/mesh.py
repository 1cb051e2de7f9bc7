"""Three-zone 1-D finite-volume mesh and face flux coefficients.

The domain (0, L) is split at the interface positions alpha and beta into an
elastic zone, a viscoelastic (damped) zone and a second elastic zone.  Each
zone is meshed uniformly with its own cell count, so the interfaces fall
exactly on cell faces.  Unknowns live at cell centers; fluxes live at faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Parameters",
    "Mesh",
    "FluxCoefficients",
    "build_mesh",
    "flux_coefficients",
]


@dataclass(frozen=True)
class Parameters:
    """Physical data of the transmission problem.

    c1_sq, c2_sq, c3_sq are the squared wave speeds of the three zones,
    delta is the viscous damping coefficient acting on (alpha, beta),
    and t_final is the simulation horizon.
    """

    c1_sq: float
    c2_sq: float
    c3_sq: float
    delta: float
    alpha: float
    beta: float
    length: float
    t_final: float

    def __post_init__(self) -> None:
        for name in ("c1_sq", "c2_sq", "c3_sq"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not self.delta >= 0.0:
            raise ValueError("delta must be >= 0")
        if not (0.0 < self.alpha < self.beta < self.length):
            raise ValueError("interfaces must satisfy 0 < alpha < beta < length")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be > 0")

    @property
    def zone_speeds_sq(self) -> tuple[float, float, float]:
        return (self.c1_sq, self.c2_sq, self.c3_sq)


@dataclass(frozen=True)
class Mesh:
    """Admissible three-zone mesh.

    faces has n_max + 1 entries running from 0 to L; centers, cell_widths
    have n_max entries.  face_spacings[i] is the distance between the
    centers adjacent to face i, using the ghost centers x_0 = 0 and
    x_{n_max + 1} = L, so the first and last spacings are half cells.
    """

    n_alpha: int
    n_damp: int
    n_beta: int
    h_alpha: float
    h: float
    h_beta: float
    faces: np.ndarray
    centers: np.ndarray
    cell_widths: np.ndarray
    face_spacings: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.faces, self.centers, self.cell_widths, self.face_spacings):
            arr.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.n_alpha + self.n_damp + self.n_beta

    @property
    def damping_interior_faces(self) -> slice:
        """0-based slice (into a face-indexed array) of the faces strictly
        between alpha and beta."""
        return slice(self.n_alpha + 1, self.n_alpha + self.n_damp)


@dataclass(frozen=True)
class FluxCoefficients:
    """Per-face scalars multiplying the jump U_{i+1} - U_i in the discrete flux.

    Inside a zone the coefficient is the squared zone speed over the center
    spacing.  At the two material interfaces it is the harmonic-type average
    that makes the one-sided flux evaluations agree, and at the outer
    boundaries it uses the half-cell spacing together with a zero ghost value.
    """

    ell: np.ndarray

    def __post_init__(self) -> None:
        self.ell.setflags(write=False)
        if not np.isfinite(self.ell).all() or not (self.ell > 0.0).all():
            raise ValueError("flux coefficients must be finite and positive")


def build_mesh(params: Parameters, n_alpha: int, n_damp: int, n_beta: int) -> Mesh:
    """Construct the three-zone mesh with the given per-zone cell counts.

    n_damp must be at least 2 so that the damped zone has at least one
    interior face (the dissipation rate sums over those faces).
    """
    for name, count in (("n_alpha", n_alpha), ("n_damp", n_damp), ("n_beta", n_beta)):
        if int(count) != count or count < 1:
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    if n_damp < 2:
        raise ValueError("n_damp must be >= 2 (damped zone needs an interior face)")

    a, b, length = params.alpha, params.beta, params.length
    faces = np.concatenate(
        [
            np.linspace(0.0, a, n_alpha + 1),
            np.linspace(a, b, n_damp + 1)[1:],
            np.linspace(b, length, n_beta + 1)[1:],
        ]
    )
    centers = 0.5 * (faces[:-1] + faces[1:])
    cell_widths = np.diff(faces)
    ghosted_centers = np.concatenate([[0.0], centers, [length]])
    face_spacings = np.diff(ghosted_centers)
    return Mesh(
        n_alpha=int(n_alpha),
        n_damp=int(n_damp),
        n_beta=int(n_beta),
        h_alpha=a / n_alpha,
        h=(b - a) / n_damp,
        h_beta=(length - b) / n_beta,
        faces=faces,
        centers=centers,
        cell_widths=cell_widths,
        face_spacings=face_spacings,
    )


def flux_coefficients(mesh: Mesh, params: Parameters) -> FluxCoefficients:
    """Flux coefficients for every face, interface-conservative at alpha and beta."""
    c1, c2, c3 = params.zone_speeds_sq
    n_a, n_d = mesh.n_alpha, mesh.n_damp
    n_max = mesh.n_max

    cell_csq = np.repeat([c1, c2, c3], [n_a, n_d, mesh.n_beta])
    ell = np.empty(n_max + 1)
    ell[0] = c1 / mesh.face_spacings[0]
    ell[1:n_max] = cell_csq[: n_max - 1] / mesh.face_spacings[1:n_max]
    ell[n_max] = c3 / mesh.face_spacings[n_max]
    # One-sided flux evaluations on both sides of a material interface must
    # coincide; that pins the interface coefficient to this weighted average.
    ell[n_a] = 2.0 * c1 * c2 / (c1 * mesh.h + c2 * mesh.h_alpha)
    ell[n_a + n_d] = 2.0 * c2 * c3 / (c3 * mesh.h + c2 * mesh.h_beta)

    _check_face_bounds(ell, mesh, params)
    return FluxCoefficients(ell=ell)


def _check_face_bounds(ell: np.ndarray, mesh: Mesh, params: Parameters) -> None:
    # ell * spacing must lie between the squared speeds of the zones the face
    # touches; a violation indicates inconsistent inputs.
    c1, c2, c3 = params.zone_speeds_sq
    n_a, n_d, n_max = mesh.n_alpha, mesh.n_damp, mesh.n_max
    lo = np.repeat([c1, c2, c3], [n_a, n_d + 1, mesh.n_beta])
    hi = lo.copy()
    lo[n_a], hi[n_a] = min(c1, c2), max(c1, c2)
    lo[n_a + n_d], hi[n_a + n_d] = min(c2, c3), max(c2, c3)
    product = ell * mesh.face_spacings
    # The spacings are differences of face positions that carry rounding of
    # order eps * length, so the product is only accurate to a relative
    # eps * length / spacing, which grows with the cell count.
    rounding = 8.0 * np.finfo(float).eps * params.length / float(mesh.face_spacings.min())
    tol = max(c1, c2, c3) * (1e-12 + rounding)
    if (product < lo - tol).any() or (product > hi + tol).any():
        raise ValueError("flux coefficient outside its zone speed bounds")
