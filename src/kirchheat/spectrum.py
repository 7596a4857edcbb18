"""Dirichlet-Laplacian eigenbasis on intervals and rectangles.

Eigenpairs are closed-form sine modes, L2-orthonormal on the domain:

    interval (0, L):        e_k(x)    = sqrt(2/L) sin(k pi x / L),
                            lambda_k  = (k pi / L)^2
    rectangle (0,Lx)x(0,Ly): tensor products of the 1D modes,
                            lambda_jk = (j pi / Lx)^2 + (k pi / Ly)^2

All modal projections use composite Gauss-Legendre quadrature whose
resolution scales with the highest mode index, so the discrete Gram
matrix of the basis is the identity to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INTERVAL = "interval"
RECTANGLE = "rectangle"


@dataclass(frozen=True)
class Domain:
    """Product domain with homogeneous Dirichlet boundary."""

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in (INTERVAL, RECTANGLE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        expected = 1 if self.kind == INTERVAL else 2
        if len(self.lengths) != expected:
            raise ValueError(
                f"{self.kind} domain needs {expected} length(s), got {len(self.lengths)}"
            )
        for L in self.lengths:
            if not (L > 0.0) or not math.isfinite(L):
                raise ValueError(f"domain lengths must be positive finite, got {L}")

    @staticmethod
    def interval(length: float) -> "Domain":
        return Domain(INTERVAL, (float(length),))

    @staticmethod
    def rectangle(lx: float, ly: float) -> "Domain":
        return Domain(RECTANGLE, (float(lx), float(ly)))

    @property
    def dim(self) -> int:
        return len(self.lengths)


def _gauss_legendre_composite(length: float, panels: int, order: int):
    """Nodes and weights of `panels` Gauss-Legendre panels on (0, length)."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, length, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _default_panels(length: float, max_index: int) -> int:
    # 8 panels per unit length pi handles smooth data; the 0.75*k term keeps
    # the highest sine products resolved (mode k has k half-waves whatever
    # the length, and needs ~0.375 panels per half-wave for order-10 panels
    # to reach ~1e-14 Gram error).
    base = math.ceil(8.0 * length / math.pi)
    return max(base, math.ceil(0.75 * max_index), 1)


@dataclass(frozen=True)
class EigenBasis:
    """First `n_modes` Dirichlet-Laplacian eigenpairs, sorted by eigenvalue.

    `mode_indices[i]` holds the 1- or 2-tuple of sine indices of mode i;
    degenerate eigenvalues are ordered lexicographically by that tuple.
    Quadrature nodes/weights are attached so projections and Gram checks
    use one consistent rule.
    """

    domain: Domain
    n_modes: int
    lambdas: np.ndarray
    mode_indices: tuple[tuple[int, ...], ...]
    quad_nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.lambdas.setflags(write=False)
        self.quad_nodes.setflags(write=False)
        self.quad_weights.setflags(write=False)

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[-1])


def build_basis(domain: Domain, n_modes: int, quad_order: int = 10,
                panels: int | None = None) -> EigenBasis:
    """Construct the eigenbasis with its projection quadrature.

    Eigenvalues come out sorted ascending, ties broken lexicographically on
    the sine index tuple. `panels` overrides the per-dimension panel count
    of the composite Gauss-Legendre rule (default scales with n_modes).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if quad_order < 2:
        raise ValueError(f"quad_order must be >= 2, got {quad_order}")

    if domain.kind == INTERVAL:
        (L,) = domain.lengths
        ks = np.arange(1, n_modes + 1)
        lambdas = (ks * math.pi / L) ** 2
        indices = tuple((int(k),) for k in ks)
        np_panels = panels if panels is not None else _default_panels(L, n_modes)
        nodes, weights = _gauss_legendre_composite(L, np_panels, quad_order)
    else:
        lx, ly = domain.lengths
        # the n_modes smallest eigenvalues all have j, k <= n_modes
        cand = [
            ((j * math.pi / lx) ** 2 + (k * math.pi / ly) ** 2, (j, k))
            for j in range(1, n_modes + 1)
            for k in range(1, n_modes + 1)
        ]
        cand.sort(key=lambda e: (e[0], e[1]))
        cand = cand[:n_modes]
        lambdas = np.array([e[0] for e in cand])
        indices = tuple(e[1] for e in cand)
        jmax = max(j for j, _ in indices)
        kmax = max(k for _, k in indices)
        px = panels if panels is not None else _default_panels(lx, jmax)
        py = panels if panels is not None else _default_panels(ly, kmax)
        nx, wx = _gauss_legendre_composite(lx, px, quad_order)
        ny, wy = _gauss_legendre_composite(ly, py, quad_order)
        gx, gy = np.meshgrid(nx, ny, indexing="ij")
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        weights = np.outer(wx, wy).ravel()

    return EigenBasis(domain, int(n_modes), np.asarray(lambdas, dtype=float),
                      indices, nodes, weights)


def eigenfunction_values(basis: EigenBasis, points: np.ndarray) -> np.ndarray:
    """Matrix e_i(points_j), shape (n_modes, n_points)."""
    pts = np.asarray(points, dtype=float)
    if basis.domain.kind == INTERVAL:
        (L,) = basis.domain.lengths
        if pts.ndim != 1:
            pts = pts.reshape(-1)
        _check_in_closure(pts, L)
        ks = np.array([idx[0] for idx in basis.mode_indices])
        return math.sqrt(2.0 / L) * np.sin(np.outer(ks, pts) * (math.pi / L))
    lx, ly = basis.domain.lengths
    pts = pts.reshape(-1, 2)
    _check_in_closure(pts[:, 0], lx)
    _check_in_closure(pts[:, 1], ly)
    js = np.array([idx[0] for idx in basis.mode_indices])
    ks = np.array([idx[1] for idx in basis.mode_indices])
    sx = np.sin(np.outer(js, pts[:, 0]) * (math.pi / lx))
    sy = np.sin(np.outer(ks, pts[:, 1]) * (math.pi / ly))
    return 2.0 / math.sqrt(lx * ly) * sx * sy


def _check_in_closure(coords: np.ndarray, length: float):
    tol = 1e-12 * max(1.0, length)
    if coords.size and (coords.min() < -tol or coords.max() > length + tol):
        raise ValueError("point outside the closure of the domain")


def project_initial_data(basis: EigenBasis, fld) -> np.ndarray:
    """Modal coefficients <field, e_k> for every basis mode.

    `fld` is either a callable on domain coordinates (vectorized: one array
    per dimension) or an array of samples on a uniform grid that includes
    the boundary: shape (m,) on an interval, (mx, my) on a rectangle, with
    odd sample counts (composite Simpson). Closed-form fields are
    integrated with the basis quadrature.
    """
    if callable(fld):
        nodes, weights = basis.quad_nodes, basis.quad_weights
        if basis.domain.kind == INTERVAL:
            vals = np.asarray(fld(nodes), dtype=float)
        else:
            vals = np.asarray(fld(nodes[:, 0], nodes[:, 1]), dtype=float)
        phi = eigenfunction_values(basis, nodes)
        return phi @ (weights * vals)

    samples = np.asarray(fld, dtype=float)
    if basis.domain.kind == INTERVAL:
        if samples.ndim != 1:
            raise ValueError("interval samples must be a 1D array")
        (L,) = basis.domain.lengths
        kmax = max(idx[0] for idx in basis.mode_indices)
        w, x = _simpson_grid(samples.shape[0], L, kmax)
        phi = eigenfunction_values(basis, x)
        return phi @ (w * samples)
    if samples.ndim != 2:
        raise ValueError("rectangle samples must be a 2D array")
    lx, ly = basis.domain.lengths
    jmax = max(idx[0] for idx in basis.mode_indices)
    kmax = max(idx[1] for idx in basis.mode_indices)
    wx, x = _simpson_grid(samples.shape[0], lx, jmax)
    wy, y = _simpson_grid(samples.shape[1], ly, kmax)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    phi = eigenfunction_values(basis, pts)
    return phi @ (np.outer(wx, wy).ravel() * samples.ravel())


def _simpson_grid(n: int, length: float, kmax: int):
    # composite Simpson needs an odd point count; demand ~8 points per
    # half-wave of the highest mode so the projection is meaningful
    if n < 3 or n % 2 == 0:
        raise ValueError(f"sample grid incompatible: need an odd count >= 3, got {n}")
    if n < 8 * kmax + 1:
        raise ValueError(
            f"sample grid incompatible: {n} points under-resolve mode {kmax} "
            f"(need >= {8 * kmax + 1})"
        )
    h = length / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0), np.linspace(0.0, length, n)


def evaluate_field(basis: EigenBasis, coeffs, points) -> np.ndarray:
    """Pointwise reconstruction sum_k coeffs_k e_k(point)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} coefficients, got shape {c.shape}")
    return eigenfunction_values(basis, np.asarray(points, dtype=float)).T @ c


def gram_matrix(basis: EigenBasis) -> np.ndarray:
    """Gram matrix of the basis under its own quadrature (identity check)."""
    phi = eigenfunction_values(basis, basis.quad_nodes)
    return (phi * basis.quad_weights) @ phi.T
