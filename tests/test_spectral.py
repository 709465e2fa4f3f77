import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemix import spectral
from wavemix.nlw import Nonlinearity, make_energy_fn
from wavemix.spectral import (
    BasisMismatchError,
    Field,
    PhaseState,
    SpectralBasis,
    phase_norm,
    sobolev_phase_norm_sq_arr,
)

PI = np.pi


@pytest.fixture(scope="module")
def basis_pi():
    return SpectralBasis((PI,), 16)


def test_interval_pi_eigenpairs(basis_pi):
    lam, funcs = basis_pi.eigenvalues, basis_pi.eigenfunctions
    assert lam[0] == pytest.approx(1.0, abs=1e-14)
    # e_1(x) = sqrt(2/pi) sin x sampled on the grid
    x = basis_pi.nodes[:, 0]
    np.testing.assert_allclose(funcs[:, 0], np.sqrt(2 / PI) * np.sin(x), atol=1e-13)
    assert np.all(np.diff(lam) > 0)


def test_unit_interval_eigenvalue():
    b = SpectralBasis((1.0,), 4)
    assert b.eigenvalues[0] == pytest.approx(PI ** 2, rel=1e-14)


@pytest.mark.parametrize("lengths,m", [((PI,), 12), ((1.7,), 9), ((1.0, 2.0), 20)])
def test_orthonormality(lengths, m):
    b = SpectralBasis(lengths, m)
    gram = (b.eigenfunctions * b.weights[:, None]).T @ b.eigenfunctions
    np.testing.assert_allclose(gram, np.eye(m), atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(side=st.floats(0.5, 4.0), aspect=st.sampled_from([1.0, 0.3, 0.5, 2.0, 3.7]),
       m=st.integers(1, 200), lead=st.sampled_from([(), (3,), (2, 4)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_2d_transforms_match_dense(side, aspect, m, lead, seed):
    # the separable 2D path against the dense eigenfunction matrix
    b = SpectralBasis((side, side * aspect), m)
    E, w = b.eigenfunctions, b.weights
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(lead + (m,))
    v = rng.standard_normal(lead + (w.size,))
    for got, ref in ((b.synthesize(c), c @ E.T), (b.analyze(v), (v * w) @ E)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_1d_transforms_stay_dense(basis_pi, lead):
    rng = np.random.default_rng(6)
    E, w = basis_pi.eigenfunctions, basis_pi.weights
    c = rng.standard_normal(lead + (basis_pi.mode_count,))
    v = rng.standard_normal(lead + (w.size,))
    assert np.array_equal(basis_pi.synthesize(c), c @ E.T)
    assert np.array_equal(basis_pi.analyze(v), (v * w) @ E)


_MAP_BASES = (SpectralBasis((PI,), 32), SpectralBasis((PI, PI), 144),
              SpectralBasis((1.0, 5.0), 200))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(basis=st.sampled_from(_MAP_BASES), paths=st.integers(1, 24),
       systems=st.sampled_from([(), (3,)]), block=st.integers(1, 4),
       nl=st.sampled_from([Nonlinearity.klein_gordon(1.5, 0.3), Nonlinearity.sine_gordon()]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_map_matches_unblocked_bitwise(basis, paths, systems, block, nl, seed):
    # a budget of a few paths, and a strided view as the kicks pass it
    lead = (paths,) + systems
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(lead + (2, basis.mode_count))[..., 0, :]
    budget = 8 * basis.weights.size * int(np.prod(systems)) * block + 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_GRID_BLOCK_BYTES", budget)
        got_f, got_F = basis.project(nl.f, c), basis.integrate(nl.F, c)
    assert np.array_equal(got_f, basis.analyze(nl.f(basis.synthesize(c))))
    assert np.array_equal(got_F, basis.quadrature(nl.F(basis.synthesize(c))))
    assert got_f.shape == lead + (basis.mode_count,) and got_F.shape == lead


def test_collocation_grid_per_axis():
    # each axis gets GRID_FACTOR * (its largest mode index) intervals: the
    # (1, 5) box keeps j1 <= 7 and j2 <= 37, so 29 x 149 nodes, not 149 x 149
    aniso = _MAP_BASES[2]
    assert aniso._mode_indices.max(axis=0).tolist() == [7, 37]
    assert [x.size for x in aniso._grid_1d] == [29, 149]
    assert aniso.nodes.shape == (29 * 149, 2) and aniso.weights.size == 29 * 149
    # a square box is unchanged
    assert _MAP_BASES[1].nodes.shape == (57 * 57, 2)


def test_1d_synthesize_folds_strided_batch(basis_pi):
    # the coupled kick's strided (B, 3, M) position view is one (3B, M) gemm;
    # each system still gets its own dense product
    rng = np.random.default_rng(9)
    states = rng.standard_normal((128, 3, 2, basis_pi.mode_count))
    view = states[:, :, 0, :]
    E = basis_pi.eigenfunctions
    ref = np.array([[E @ c for c in systems] for systems in view])
    got = basis_pi.synthesize(view)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_2d_eigenvalues_sorted_and_correct():
    b = SpectralBasis((1.0, 2.0), 12)
    assert np.all(np.diff(b.eigenvalues) >= -1e-12)
    # smallest eigenvalue is (pi/1)^2 + (pi/2)^2
    assert b.eigenvalues[0] == pytest.approx(PI ** 2 + (PI / 2) ** 2, rel=1e-12)


@pytest.mark.parametrize("lengths", [(PI, PI), (1.0, 1.0), (1.0, 5.0), (PI, 1.5)])
def test_2d_basis_keeps_the_smallest_eigenvalues(lengths):
    # against a brute-force enumeration of every (j1, j2) up to 2M on each axis
    for m in range(1, 201):
        j = np.arange(1, 2 * m + 1)
        lams = ((j[:, None] * PI / lengths[0]) ** 2 + (j[None, :] * PI / lengths[1]) ** 2)
        smallest = np.sort(lams, axis=None)[:m]
        np.testing.assert_allclose(SpectralBasis(lengths, m).eigenvalues, smallest,
                                   rtol=1e-14)
    # on (pi, pi) the ninth eigenvalue is 17, of (1, 4), not 18, of (3, 3)
    kept = SpectralBasis((PI, PI), 9)._mode_indices.tolist()
    assert [1, 4] in kept and [3, 3] not in kept


def test_2d_mode_selection_stays_small():
    # only the index pairs under the bound from the ceil(sqrt(M))-square block
    # are sorted; the whole M x M block took about 1 MB here
    basis = SpectralBasis((PI, PI), 144)
    tracemalloc.start()
    try:
        assert basis._mode_indices.shape == (144, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        SpectralBasis((PI,), 0)
    with pytest.raises(ValueError):
        SpectralBasis((-1.0,), 4)


def test_parseval(basis_pi):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(basis_pi.mode_count) / np.arange(1, 17)
    grid_energy = basis_pi.quadrature(basis_pi.synthesize(c) ** 2)
    assert grid_energy == pytest.approx(np.sum(c ** 2), rel=1e-8)


def test_phase_norm_cases(basis_pi):
    alpha = 0.25
    e1 = Field.from_mode(basis_pi, 1, 1.0)
    y = PhaseState(e1, Field.from_mode(basis_pi, 1, -alpha), alpha)
    assert phase_norm(y) == pytest.approx(1.0, rel=1e-12)
    assert phase_norm(PhaseState.zero(basis_pi, alpha)) == 0.0
    y2 = PhaseState(Field.zero(basis_pi), Field.from_mode(basis_pi, 1), alpha)
    assert phase_norm(y2) == pytest.approx(1.0, rel=1e-12)


def test_phase_norm_basis_mismatch():
    b1 = SpectralBasis((PI,), 8)
    b2 = SpectralBasis((1.0,), 8)
    with pytest.raises(BasisMismatchError):
        PhaseState(Field.zero(b1), Field.zero(b2), 0.1)


def test_evaluate_nonlinearity_linear_identity(basis_pi):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(16) / np.arange(1, 17) ** 2
    np.testing.assert_allclose(basis_pi.project(lambda u: u, c), c, atol=1e-10)
    assert np.all(basis_pi.project(lambda u: u ** 3, np.zeros(16)) == 0)


def test_evaluate_cubic_against_quadrature(basis_pi):
    # independent oracle: fine-grid trapezoid quadrature of (a e_1)^3 e_k
    a = 0.7
    out = basis_pi.project(lambda u: u ** 3, Field.from_mode(basis_pi, 1, a).coeffs)
    x = np.linspace(0, PI, 20001)
    e = lambda j: np.sqrt(2 / PI) * np.sin(j * x)
    for k in range(1, 6):
        expected = np.trapezoid((a * e(1)) ** 3 * e(k), x)
        assert out[k - 1] == pytest.approx(expected, abs=1e-9)


def test_energy_zero_and_free(basis_pi):
    energy = make_energy_fn(basis_pi, Nonlinearity.klein_gordon(1.0), 0.25)
    assert energy(PhaseState.zero(basis_pi, 0.25).as_array()) == 0.0
    rng = np.random.default_rng(3)
    y = PhaseState.from_coeffs(basis_pi, rng.standard_normal(16) / np.arange(1, 17) ** 2,
                               rng.standard_normal(16) / np.arange(1, 17), 0.25)
    free = make_energy_fn(basis_pi, Nonlinearity.zero(), 0.25)
    assert free(y.as_array()) == pytest.approx(phase_norm(y) ** 2, rel=1e-12)


def test_energy_klein_gordon_against_quadrature(basis_pi):
    a = 1.3
    y = PhaseState(Field.from_mode(basis_pi, 1, a), Field.zero(basis_pi), 0.25)
    energy = make_energy_fn(basis_pi, Nonlinearity.klein_gordon(1.0, 0.0), 0.25)
    x = np.linspace(0, PI, 20001)
    u = a * np.sqrt(2 / PI) * np.sin(x)
    expected = phase_norm(y) ** 2 + (2.0 / 3.0) * np.trapezoid(np.abs(u) ** 3, x)
    assert energy(y.as_array()) == pytest.approx(expected, rel=1e-6)


def test_energy_lower_bound_random_states(basis_pi):
    # energy(y) >= 0.5 |y|_H^2 - 2 C Vol(D) with C from the dissipativity scan
    from wavemix.nlw import check_dissipativity
    nl = Nonlinearity.klein_gordon(1.0, lam=0.5, nu=0.12)
    rep = check_dissipativity(nl)
    energy = make_energy_fn(basis_pi, nl, 0.25)
    rng = np.random.default_rng(4)
    for _ in range(50):
        c1 = 3 * rng.standard_normal(16) / np.arange(1, 17) ** 2
        c2 = 3 * rng.standard_normal(16) / np.arange(1, 17)
        y = PhaseState.from_coeffs(basis_pi, c1, c2, 0.25)
        assert energy(y.as_array()) >= 0.5 * phase_norm(y) ** 2 - 2 * rep.c_lower * PI - 1e-9


def test_norm_equivalence_constant(basis_pi):
    alpha = 0.25
    lam1 = basis_pi.eigenvalues[0]
    c_alpha = 1 + alpha / np.sqrt(lam1) + alpha ** 2 / lam1
    rng = np.random.default_rng(5)
    for _ in range(100):
        c1 = rng.standard_normal(16) / np.arange(1, 17) ** 1.2
        c2 = rng.standard_normal(16)
        y = PhaseState.from_coeffs(basis_pi, c1, c2, alpha)
        plain = np.sqrt(np.sum(basis_pi.eigenvalues * c1 ** 2) + np.sum(c2 ** 2))
        ratio = phase_norm(y) / plain
        assert 1 / c_alpha - 1e-12 <= ratio <= c_alpha + 1e-12


def test_sobolev_phase_norm(basis_pi):
    y = PhaseState(Field.from_mode(basis_pi, 2, 1.0), Field.zero(basis_pi), 0.0)
    s = 0.4
    lam = basis_pi.eigenvalues
    got = np.sqrt(sobolev_phase_norm_sq_arr(y.as_array(), lam, y.alpha, s))
    assert got == pytest.approx(np.sqrt(lam[1] ** (s + 1)), rel=1e-12)
