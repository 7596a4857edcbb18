import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchheat import (
    Domain,
    build_basis,
    eigenfunction_values,
    evaluate_field,
    gram_matrix,
    project_initial_data,
    spectrum,
)


def test_interval_eigenvalues_unit_pi():
    basis = build_basis(Domain.interval(math.pi), 3)
    np.testing.assert_allclose(basis.lambdas, [1.0, 4.0, 9.0], rtol=1e-14)
    assert basis.mode_indices == ((1,), (2,), (3,))


def test_interval_eigenvalues_two_pi():
    basis = build_basis(Domain.interval(2.0 * math.pi), 2)
    np.testing.assert_allclose(basis.lambdas, [0.25, 1.0], rtol=1e-14)


def test_rectangle_eigenvalues_with_tie_break():
    basis = build_basis(Domain.rectangle(math.pi, math.pi), 3)
    np.testing.assert_allclose(basis.lambdas, [2.0, 5.0, 5.0], rtol=1e-14)
    # degenerate pair ordered lexicographically
    assert basis.mode_indices == ((1, 1), (1, 2), (2, 1))


def test_rectangle_anisotropic_eigenvalues():
    basis = build_basis(Domain.rectangle(math.pi, 2.0 * math.pi), 4)
    # (j, k) -> j^2 + k^2/4
    np.testing.assert_allclose(basis.lambdas, [1.25, 2.0, 3.25, 4.25], rtol=1e-14)
    assert basis.mode_indices == ((1, 1), (1, 2), (1, 3), (2, 1))


def test_invalid_construction():
    with pytest.raises(ValueError):
        Domain.interval(-1.0)
    with pytest.raises(ValueError):
        Domain.interval(0.0)
    with pytest.raises(ValueError):
        Domain(kind="disk", lengths=(1.0,))
    with pytest.raises(ValueError):
        build_basis(Domain.interval(1.0), 0)


def test_lambdas_sorted_and_readonly():
    basis = build_basis(Domain.rectangle(1.0, 1.7), 12)
    assert np.all(np.diff(basis.lambdas) >= 0.0)
    with pytest.raises(ValueError):
        basis.lambdas[0] = 99.0


@pytest.mark.parametrize("domain,n", [
    (Domain.interval(math.pi), 64),
    (Domain.interval(2.5), 64),
    (Domain.rectangle(math.pi, math.pi), 32),
    (Domain.rectangle(1.0, 2.0), 24),
    (Domain.interval(1.0), 64),
    (Domain.rectangle(1.0, 1.0), 64),
    (Domain.rectangle(3.3, 2.9), 1024),
])
def test_gram_identity(domain, n):
    """Orthonormality under the attached quadrature, 1e-8 up to 1024 modes."""
    basis = build_basis(domain, n)
    err = np.abs(gram_matrix(basis) - np.eye(n)).max()
    assert err <= 1e-8


def test_eigenvalue_identity_second_difference():
    # -e_k'' = lambda_k e_k via central differences at interior points
    basis = build_basis(Domain.interval(math.pi), 5)
    x = np.linspace(0.4, 2.7, 11)
    h = 1e-4
    e0 = eigenfunction_values(basis, x)
    lap = (eigenfunction_values(basis, x + h) - 2.0 * e0
           + eigenfunction_values(basis, x - h)) / h ** 2
    target = -basis.lambdas[:, None] * e0
    assert np.abs(lap - target).max() < 1e-4


def test_project_pure_sine():
    basis = build_basis(Domain.interval(math.pi), 3)
    coeffs = project_initial_data(basis, np.sin)
    assert abs(coeffs[0] - math.sqrt(math.pi / 2.0)) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12


def test_project_zero_field():
    basis = build_basis(Domain.interval(1.3), 4)
    coeffs = project_initial_data(basis, lambda x: np.zeros_like(x))
    assert np.all(coeffs == 0.0)


def test_project_polynomial_against_dense_quadrature():
    """x(pi - x) projection vs an independent high-order quadrature oracle."""
    basis = build_basis(Domain.interval(math.pi), 2)
    coeffs = project_initial_data(basis, lambda x: x * (math.pi - x))
    xg, wg = np.polynomial.legendre.leggauss(5000)
    xg = 0.5 * math.pi * (xg + 1.0)
    wg = 0.5 * math.pi * wg
    for k in (1, 2):
        oracle = np.sum(wg * xg * (math.pi - xg)
                        * math.sqrt(2.0 / math.pi) * np.sin(k * xg))
        assert abs(coeffs[k - 1] - oracle) <= 1e-8


def test_project_sampled_simpson_grid():
    basis = build_basis(Domain.interval(math.pi), 2)
    x = np.linspace(0.0, math.pi, 201)
    coeffs = project_initial_data(basis, np.sin(x))
    assert abs(coeffs[0] - math.sqrt(math.pi / 2.0)) < 1e-8
    assert abs(coeffs[1]) < 1e-8


def test_project_sampled_grid_validation():
    basis = build_basis(Domain.interval(math.pi), 4)
    with pytest.raises(ValueError, match="sample grid incompatible"):
        project_initial_data(basis, np.zeros(200))  # even count
    with pytest.raises(ValueError, match="sample grid incompatible"):
        project_initial_data(basis, np.zeros(21))  # under-resolves mode 4


def test_project_sampled_rectangle():
    basis = build_basis(Domain.rectangle(math.pi, math.pi), 3)
    x = np.linspace(0.0, math.pi, 65)
    field = np.outer(np.sin(x), np.sin(x))  # = (pi/2) * e_{(1,1)}
    coeffs = project_initial_data(basis, field)
    assert abs(coeffs[0] - math.pi / 2.0) < 1e-6
    assert np.abs(coeffs[1:]).max() < 1e-6


def test_evaluate_field_basics():
    basis = build_basis(Domain.interval(math.pi), 3)
    assert np.all(evaluate_field(basis, np.zeros(3), np.array([0.3, 1.1])) == 0.0)
    val = evaluate_field(basis, np.array([1.0, 0.0, 0.0]), np.array([math.pi / 2.0]))
    assert abs(val[0] - math.sqrt(2.0 / math.pi)) < 1e-14
    with pytest.raises(ValueError):
        evaluate_field(basis, np.zeros(2), np.array([0.5]))


def test_evaluate_outside_domain_rejected():
    basis = build_basis(Domain.interval(1.0), 2)
    with pytest.raises(ValueError, match="outside"):
        evaluate_field(basis, np.zeros(2), np.array([1.5]))
    rect = build_basis(Domain.rectangle(1.0, 1.0), 2)
    with pytest.raises(ValueError, match="outside"):
        eigenfunction_values(rect, np.array([[0.5, -0.2]]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6))
def test_project_evaluate_round_trip(coeff_list):
    """project(evaluate(c)) = c by orthonormality, within quadrature tolerance."""
    basis = build_basis(Domain.interval(math.pi), 6)
    c = np.array(coeff_list)
    recovered = project_initial_data(basis, lambda x: evaluate_field(basis, c, x))
    assert np.abs(recovered - c).max() <= 1e-8


def test_round_trip_rectangle():
    basis = build_basis(Domain.rectangle(1.0, 1.5), 7)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(7)
    f = lambda x, y: evaluate_field(basis, c, np.column_stack([x, y]))
    recovered = project_initial_data(basis, f)
    assert np.abs(recovered - c).max() <= 1e-8


SMALL_DOMAINS = [(Domain.interval(1.3), 6), (Domain.rectangle(1.0, 1.7), 7)]


def dense_grid(axes):
    """Every point of the tensor grid of per-axis coordinates, last axis fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def simpson_weights(n, length):
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (length / (n - 1) / 3.0)


def smooth_field(*xs):
    return np.cos(sum(xs)) + sum(x * x for x in xs)


@pytest.mark.parametrize("domain,n", SMALL_DOMAINS)
def test_projection_matches_pointwise_formula(domain, n):
    """Axis-by-axis contraction equals the dense sum over the tensor grid of
    e_i(point) * weight * field(point), for a callable and for samples."""
    basis = build_basis(domain, n)
    pts = dense_grid([nodes for nodes, _ in basis.axis_rules])
    dense = eigenfunction_values(basis, pts) @ (basis.quad_weights * smooth_field(*pts.T))
    got = project_initial_data(basis, smooth_field)
    assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()

    kmax = np.array(basis.mode_indices).max(axis=0)
    counts = [8 * int(k) + 5 for k in kmax]
    axes = [np.linspace(0.0, L, m) for L, m in zip(domain.lengths, counts)]
    samples = smooth_field(*np.meshgrid(*axes, indexing="ij"))
    weights = np.ravel(np.prod(np.meshgrid(
        *[simpson_weights(m, L) for L, m in zip(domain.lengths, counts)], indexing="ij"), axis=0))
    dense = eigenfunction_values(basis, dense_grid(axes)) @ (weights * samples.ravel())
    got = project_initial_data(basis, samples)
    assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("domain,n", SMALL_DOMAINS)
def test_gram_matches_pointwise_formula(domain, n):
    """The product of per-axis Gram matrices equals the dense Gram matrix of
    the pointwise eigenfunctions under the tensor rule."""
    basis = build_basis(domain, n)
    phi = eigenfunction_values(basis, dense_grid([nodes for nodes, _ in basis.axis_rules]))
    dense = (phi * basis.quad_weights) @ phi.T
    assert np.abs(gram_matrix(basis) - dense).max() <= 1e-14


def all_pairs_basis(domain, n):
    """The n smallest eigenpairs and their quadrature rules, from every index
    tuple with all k_a <= n, ties broken lexicographically on the tuple."""
    ks = np.arange(1, n + 1)
    grid = [g.ravel() for g in np.meshgrid(*[ks] * domain.dim, indexing="ij")]
    cand = sum((k * math.pi / L) ** 2 for k, L in zip(grid, domain.lengths))
    order = np.lexsort((*grid[::-1], cand))[:n]
    indices = [k[order] for k in grid]
    xg, wg = np.polynomial.legendre.leggauss(spectrum.QUAD_ORDER)
    rules = []
    for L, k in zip(domain.lengths, indices):
        panels = max(math.ceil(8.0 * L / math.pi), math.ceil(0.75 * int(k.max())), 1)
        edges = np.linspace(0.0, L, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        rules.append(((mid[:, None] + half[:, None] * xg[None, :]).ravel(),
                      (half[:, None] * wg[None, :]).ravel()))
    return cand[order], tuple(zip(*(k.tolist() for k in indices))), rules


SQUARES = [Domain.rectangle(math.pi, math.pi), Domain.rectangle(1.0, 1.0)]
ENUMERATION_DOMAINS = [
    Domain.interval(math.pi), Domain.interval(1.3), *SQUARES,
    Domain.rectangle(10.0, 0.1), Domain.rectangle(0.05, 20.0),
    *(Domain.rectangle(*ls) for ls in np.random.default_rng(7).uniform(0.2, 5.0, (3, 2))),
]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 50, 192, 333])
@pytest.mark.parametrize("domain", ENUMERATION_DOMAINS, ids=lambda d: repr(d.lengths))
def test_build_basis_matches_full_enumeration(domain, n):
    """Enumerating only the indices under the box bound picks the same modes,
    in the same order, with the same quadrature, as every tuple with k_a <= n."""
    lambdas, indices, rules = all_pairs_basis(domain, n)
    basis = build_basis(domain, n)
    assert basis.lambdas.tobytes() == lambdas.tobytes()
    assert basis.mode_indices == indices
    for (nodes, weights), (ref_nodes, ref_weights) in zip(basis.axis_rules, rules, strict=True):
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("domain", SQUARES, ids=lambda d: repr(d.lengths))
def test_enumeration_cases_cut_tied_eigenvalues(domain):
    """On the squares, n = 2 and n = 7 keep one tuple of a tied pair and drop
    the other, so the comparison above covers the tie-break at the cut."""
    lambdas = all_pairs_basis(domain, 8)[0]
    assert lambdas[1] == lambdas[2] and lambdas[6] == lambdas[7]


def test_gauss_legendre_rule_is_cached_and_read_only():
    xg, wg = spectrum._gauss_legendre_rule()
    assert spectrum._gauss_legendre_rule()[0] is xg
    ref_x, ref_w = np.polynomial.legendre.leggauss(spectrum.QUAD_ORDER)
    assert xg.tobytes() == ref_x.tobytes() and wg.tobytes() == ref_w.tobytes()
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    a, b = (build_basis(Domain.rectangle(1.0, 1.7), 12) for _ in range(2))
    for (xa, wa), (xb, wb) in zip(a.axis_rules, b.axis_rules, strict=True):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(wa, wb)
        assert xa is not xb and wa is not wb
