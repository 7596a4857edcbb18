"""Dirichlet-Laplacian eigenbasis on intervals and rectangles.

Both domains are products of intervals (0, L_a), one per axis a, so every
eigenpair is a product of 1D sine modes, L2-orthonormal on the domain:

    e_k(x)    = prod_a sqrt(2/L_a) sin(k_a pi x_a / L_a),
    lambda_k  = sum_a (k_a pi / L_a)^2

for a sine index tuple k with one entry per axis. A basis keeps one
composite Gauss-Legendre rule per axis, whose resolution scales with the
highest index on that axis. Projections and the Gram check work on the
tensor grid of those rules one axis at a time, with per-axis sine matrices,
so no (modes x nodes) matrix is formed, and the discrete Gram matrix of the
basis is the identity to near machine precision.

The N smallest eigenvalues are picked from O(N) candidate tuples, not from
all N^d. A box of m_a = ceil(L_a (N / prod L)^(1/d)) indices per axis holds
at least N tuples, so its largest eigenvalue Lambda = sum_a (m_a pi / L_a)^2
is at least lambda_N. Every tuple with eigenvalue <= Lambda has
k_a < L_a sqrt(Lambda) / pi on each axis, so only the indices
k_a <= min(N, int(L_a sqrt(Lambda) / pi) + 1) are enumerated; the + 1
absorbs rounding. By Weyl's law that is about 2N tuples on a square (about 3N
on thin rectangles), and on an interval the box is simply N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

QUAD_ORDER = 10  # Gauss-Legendre points per panel
PANELS_PER_PI = 8.0  # quadrature panels per unit length pi, whatever the mode count
# most panels an axis may need for its length alone (lengths up to ~3.9e4):
# 10 nodes each, and a projection forms one sine matrix per axis
MAX_PANELS = 10**5
AXES = {"interval": 1, "rectangle": 2}


@dataclass(frozen=True)
class Domain:
    """Product domain with homogeneous Dirichlet boundary."""

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in AXES:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        expected = AXES[self.kind]
        if len(self.lengths) != expected:
            raise ValueError(
                f"{self.kind} domain needs {expected} length(s), got {len(self.lengths)}"
            )
        for L in self.lengths:
            if not (L > 0.0) or not math.isfinite(L):
                raise ValueError(f"domain lengths must be positive finite, got {L}")

    @staticmethod
    def interval(length: float) -> "Domain":
        return Domain("interval", (float(length),))

    @staticmethod
    def rectangle(lx: float, ly: float) -> "Domain":
        return Domain("rectangle", (float(lx), float(ly)))

    @property
    def dim(self) -> int:
        return len(self.lengths)


@cache
def _gauss_legendre_rule():
    """The QUAD_ORDER-point Gauss-Legendre rule on (-1, 1), computed once
    per process and shared read-only."""
    xg, wg = np.polynomial.legendre.leggauss(QUAD_ORDER)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def _gauss_legendre_composite(length: float, panels: int):
    """Nodes and weights of `panels` Gauss-Legendre panels on (0, length)."""
    xg, wg = _gauss_legendre_rule()
    edges = np.linspace(0.0, length, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _default_panels(length: float, max_index: int) -> int:
    # PANELS_PER_PI panels per unit length pi handle smooth data; the
    # 0.75*k term keeps the highest sine products resolved (mode k has k
    # half-waves whatever the length, and needs ~0.375 panels per half-wave
    # for order-10 panels to reach ~1e-14 Gram error).
    base = math.ceil(PANELS_PER_PI * length / math.pi)
    return max(base, math.ceil(0.75 * max_index), 1)


@dataclass(frozen=True)
class EigenBasis:
    """First `n_modes` Dirichlet-Laplacian eigenpairs, sorted by eigenvalue.

    `mode_indices[i]` holds the sine index tuple of mode i, one entry per
    axis. Eigenvalues that are equal in floating point are ordered
    lexicographically by that tuple; exact ties that round apart (on the
    pi x pi square, (22, 7) and (2, 23) share 533 but compute as
    532.9999999999998 and 533.0) follow their rounded values.
    `axis_rules[a]` is the (nodes, weights) quadrature rule of axis a, so
    projections and Gram checks use one consistent tensor rule.
    """

    domain: Domain
    n_modes: int
    lambdas: np.ndarray
    mode_indices: tuple[tuple[int, ...], ...]
    axis_rules: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    def __post_init__(self):
        self.lambdas.setflags(write=False)
        for nodes, weights in self.axis_rules:
            nodes.setflags(write=False)
            weights.setflags(write=False)

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[-1])

    @property
    def quad_weights(self) -> np.ndarray:
        """Weights of the tensor rule, flattened with the last axis fastest."""
        return reduce(np.multiply.outer, [w for _, w in self.axis_rules]).ravel()


def _index_columns(basis: EigenBasis) -> np.ndarray:
    """Sine indices as an (axes, n_modes) integer array."""
    return np.array(basis.mode_indices).T


def build_basis(domain: Domain, n_modes: int) -> EigenBasis:
    """Construct the eigenbasis with its per-axis projection quadrature.

    Lengths so long that an axis needs more than MAX_PANELS panels, or so
    short that the eigenvalues overflow, raise ValueError. Eigenvalues come
    out sorted ascending; values equal in floating point are ordered
    lexicographically on the sine index tuple.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    lengths = domain.lengths
    panels = PANELS_PER_PI * max(lengths) / math.pi
    if panels > MAX_PANELS:
        raise ValueError(f"length {max(lengths):g} needs {panels:.3g} quadrature panels, "
                         f"above the limit of {MAX_PANELS:.0e}")
    top = n_modes * math.pi / min(lengths)  # lambda_max <= dim top^2; a float division
    if not math.isfinite(domain.dim * top * top):  # overflows to inf, not to an error
        raise ValueError(f"length {min(lengths):g} gives eigenvalues up to about "
                         f"({n_modes} pi / {min(lengths):g})^2, beyond float range")
    # candidate indices per axis from the box bound in the module docstring,
    # with root = sqrt(Lambda) / pi; scale is formed from logs so that no
    # product of lengths overflows or underflows
    scale = math.exp((math.log(n_modes) - sum(map(math.log, lengths))) / domain.dim)
    root = math.hypot(*(math.ceil(L * scale) / L for L in lengths))
    kmax = [int(min(L * root, n_modes - 1)) + 1 for L in lengths]
    grid = [g.ravel() for g in np.meshgrid(*[np.arange(1, k + 1) for k in kmax],
                                           indexing="ij")]
    cand = sum((k * math.pi / L) ** 2 for k, L in zip(grid, lengths))
    # only candidates up to the n_modes-th smallest eigenvalue need sorting
    keep = cand <= np.partition(cand, n_modes - 1)[n_modes - 1]
    grid, cand = [k[keep] for k in grid], cand[keep]
    order = np.lexsort((*grid[::-1], cand))[:n_modes]
    indices = np.stack([k[order] for k in grid])
    rules = tuple(_gauss_legendre_composite(L, _default_panels(L, int(k.max())))
                  for L, k in zip(lengths, indices))
    return EigenBasis(domain, int(n_modes), cand[order],
                      tuple(map(tuple, indices.T.tolist())), rules)


def _sines(length: float, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1D modes sqrt(2/L) sin(k pi x / L) at x in [0, L], shape (len(ks), len(x))."""
    tol = 1e-12 * max(1.0, length)
    if x.size and (x.min() < -tol or x.max() > length + tol):
        raise ValueError("point outside the closure of the domain")
    return math.sqrt(2.0 / length) * np.sin(np.outer(ks, x) * (math.pi / length))


def eigenfunction_values(basis: EigenBasis, points: np.ndarray) -> np.ndarray:
    """Matrix e_i(points_j), shape (n_modes, n_points); a point has one
    coordinate per axis."""
    pts = np.asarray(points, dtype=float).reshape(-1, basis.domain.dim)
    return reduce(np.multiply, (_sines(L, ks, x) for L, ks, x in
                                zip(basis.domain.lengths, _index_columns(basis), pts.T)))


def project_initial_data(basis: EigenBasis, fld) -> np.ndarray:
    """Modal coefficients <field, e_k> for every basis mode.

    `fld` is either a callable on domain coordinates (vectorized: one flat
    array per axis) or an array of samples on a uniform grid that includes
    the boundary: shape (m,) on an interval, (mx, my) on a rectangle, with
    odd sample counts (composite Simpson). Closed-form fields are
    integrated with the basis quadrature.
    """
    lengths = basis.domain.lengths
    idx = _index_columns(basis)
    kmax = idx.max(axis=1)
    if callable(fld):
        axes, weights = zip(*basis.axis_rules)
        grid = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(fld(*(g.ravel() for g in grid)), dtype=float).reshape(grid[0].shape)
    else:
        vals = np.asarray(fld, dtype=float)
        if vals.ndim != len(lengths):
            raise ValueError(f"{basis.domain.kind} samples must be a {len(lengths)}D array")
        weights, axes = zip(*(_simpson_grid(n, L, int(k))
                              for n, L, k in zip(vals.shape, lengths, kmax)))
    # weights first, then one sine matrix per axis: the contracted axis
    # leads, and its mode axis moves to the back
    coeffs = reduce(np.multiply.outer, weights) * vals
    for L, k, x in zip(lengths, kmax, axes):
        coeffs = np.moveaxis(_sines(L, np.arange(1, k + 1), x) @ coeffs, 0, -1)
    return coeffs[tuple(idx - 1)]


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
    """Gram matrix of the basis under its own quadrature (identity check):
    the product over axes of the 1D Gram matrices at the modes' indices."""
    factors = []
    for L, ks, (nodes, weights) in zip(basis.domain.lengths, _index_columns(basis),
                                       basis.axis_rules):
        s = _sines(L, np.arange(1, ks.max() + 1), nodes)
        g1 = (s * weights) @ s.T
        factors.append(g1[ks - 1][:, ks - 1])
    return reduce(np.multiply, factors)
