import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemix.coupling import (
    MaximalCoupling,
    couple_fp,
    couple_fp_batch,
    fp_contraction_test,
    girsanov_tv_experiment,
    mixing_rate,
    tv_bound,
    tv_estimate_likelihood,
)
from wavemix import coupling, nlw, stats
from wavemix.nlw import BlowupError, NoiseModel, Nonlinearity, SimConfig, draw_normals, run_flow
from wavemix.observables import default_observables
from wavemix.spectral import PhaseState, SpectralBasis, phase_norm

PI = np.pi


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis((PI,), 16)


@pytest.fixture(scope="module")
def noise(basis):
    return NoiseModel.power_law(basis, amplitude=0.25, q=2.0)


def make_cfg(basis, **kw):
    defaults = dict(gamma=1.0, dt=0.5 / np.sqrt(basis.eigenvalues[-1]),
                    horizon=4.0, seed=17, eps=1.0, stride=4)
    defaults.update(kw)
    return SimConfig(basis=basis, **defaults)


def smooth_state(basis, scale, seed, alpha):
    rng = np.random.default_rng(seed)
    m = basis.mode_count
    c1 = scale * rng.standard_normal(m) / np.arange(1, m + 1) ** 2
    c2 = scale * rng.standard_normal(m) / np.arange(1, m + 1) ** 2
    return PhaseState.from_coeffs(basis, c1, c2, alpha)


def unit_direction(basis, alpha):
    d = np.zeros((2, basis.mode_count))
    d[0, 0] = 1.0 / np.sqrt(basis.eigenvalues[0])
    d[1, 0] = -alpha / np.sqrt(basis.eigenvalues[0])
    return d


# ------------------------------------------------------------ FP intermediate


def test_same_start_gives_identical_processes(basis, noise):
    cfg = make_cfg(basis)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 1, cfg.alpha)
    run = couple_fp(cfg, nl, noise, z, z, n_feedback=4)
    assert run.diff_vu.shape == (1, run.t.size)
    assert np.max(run.diff_vu) < 1e-10
    assert run.novikov_energy[0, -1] == 0.0
    assert np.exp(run.log_lr[0, -1]) == pytest.approx(1.0)


def test_marginal_preservation(basis, noise):
    # the drive marginal of the coupled construction equals a plain run that
    # merges the same steps: run_flow
    cfg = make_cfg(basis, horizon=2.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 2, cfg.alpha)
    zp = smooth_state(basis, 0.4, 3, cfg.alpha)
    run = couple_fp(cfg, nl, noise, z, zp, n_feedback=4)
    plain = run_flow(cfg, nl, noise, z, return_states=True).states[0]
    np.testing.assert_allclose(run.states[0, :, 0], plain, rtol=0, atol=1e-13)
    # without feedback v is the plain flow from z'
    free_v = couple_fp(cfg, nl, noise, z, zp, n_feedback=0).states[0, :, 1]
    plain_p = run_flow(cfg, nl, noise, zp, return_states=True).states[0]
    np.testing.assert_allclose(free_v, plain_p, rtol=0, atol=1e-13)


def test_coupled_path_draws_as_many_normals_as_a_flow_path(basis, noise, monkeypatch):
    # n_steps + n_sync increments of (2, M) normals per path, as in run_flow
    cfg = make_cfg(basis, horizon=2.0)
    z = smooth_state(basis, 0.4, 2, cfg.alpha)
    drawn = []

    def counted(rngs, buf, chunk):
        drawn.append(chunk * buf[0, 0].size)
        draw_normals(rngs, buf, chunk)

    monkeypatch.setattr(nlw, "draw_normals", counted)
    couple_fp(cfg, Nonlinearity.klein_gordon(1.0), noise, z, z, n_feedback=4)
    n_sync = len(stats.record_steps(cfg.n_steps, cfg.stride)) - 1
    assert n_sync < cfg.n_steps
    assert sum(drawn) == (cfg.n_steps + n_sync) * 2 * basis.mode_count
    drawn.clear()
    run_flow(cfg, Nonlinearity.klein_gordon(1.0), noise, z)
    assert sum(drawn) == (cfg.n_steps + n_sync) * 2 * basis.mode_count


def test_linear_feedback_difference_is_free_wave(basis, noise):
    # f = 0: v - u solves the free damped wave; decay matches the closed form
    cfg = make_cfg(basis, horizon=3.0, stride=1)
    nl = Nonlinearity.zero()
    z = smooth_state(basis, 0.4, 4, cfg.alpha)
    zp = smooth_state(basis, 0.4, 5, cfg.alpha)
    run = couple_fp(cfg, nl, noise, z, zp, n_feedback=0)
    w0 = zp.as_array() - z.as_array()
    from wavemix.nlw import linear_ops, apply_modewise
    ops = linear_ops(cfg, noise)
    w = w0.copy()[None]
    diffs = [np.sqrt(float(np.sum(basis.eigenvalues * w[0, 0] ** 2
                                  + (w[0, 1] + cfg.alpha * w[0, 0]) ** 2)))]
    for _ in range(cfg.n_steps):
        w = apply_modewise(ops.P_half, w)
        w = apply_modewise(ops.P_half, w)
        diffs.append(np.sqrt(float(np.sum(basis.eigenvalues * w[0, 0] ** 2
                                          + (w[0, 1] + cfg.alpha * w[0, 0]) ** 2))))
    np.testing.assert_allclose(run.diff_vu[0], diffs, rtol=1e-9, atol=1e-13)


def test_lowmode_contraction_pathwise(basis, noise):
    cfg = make_cfg(basis, horizon=6.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.5, 6, cfg.alpha)
    zp = smooth_state(basis, 0.5, 7, cfg.alpha)
    d0_sq = phase_norm(PhaseState.from_coeffs(
        basis, *(zp.as_array() - z.as_array()), cfg.alpha)) ** 2
    for n in (4, 16):
        run = couple_fp(cfg, nl, noise, z, zp, n_feedback=n)
        ratio = run.lowmode_sq[0] / d0_sq * np.exp(cfg.alpha * run.t)
        assert np.max(ratio) <= 1.0 + 1e-6


def test_contraction_report(basis, noise):
    cfg = make_cfg(basis, horizon=8.0, stride=8)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.5, 8, cfg.alpha)
    zp = smooth_state(basis, 0.5, 9, cfg.alpha)
    rep = fp_contraction_test(cfg, nl, noise, z, zp, n_grid=(2, 4, 8, 16))
    assert rep.lowmode_ok
    assert rep.n_star is not None
    # full feedback reproduces at least the linear rate
    assert rep.rates[16] >= cfg.alpha * 0.9

    same = fp_contraction_test(cfg, nl, noise, z, z, n_grid=(2,))
    assert same.rates[2] == math.inf


# ------------------------------------------------------------ Girsanov and TV


def test_girsanov_zero_cases(basis, noise):
    cfg = make_cfg(basis, horizon=1.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 10, cfg.alpha)
    # u == v: zero drift, zero energy
    run = couple_fp(cfg, nl, noise, z, z, n_feedback=4)
    assert run.novikov_energy[0, -1] == 0.0
    # N = 0: zero drift regardless of the trajectories
    zp = smooth_state(basis, 0.4, 11, cfg.alpha)
    run0 = couple_fp(cfg, nl, noise, z, zp, n_feedback=0)
    assert run0.novikov_energy[0, -1] == 0.0
    assert run0.log_lr[0, -1] == 0.0


def test_batch_path_zero_matches_single_run(basis, noise):
    # path 0 of a batch draws from the same stream as the single coupled run
    cfg = make_cfg(basis, horizon=1.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 19, cfg.alpha)
    zp = smooth_state(basis, 0.4, 20, cfg.alpha)
    single = couple_fp(cfg, nl, noise, z, zp, n_feedback=4)
    batch = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=3)
    assert batch.states is None and batch.log_lr.shape == (3, single.t.size)
    assert single.log_lr[0, -1] != 0.0
    # the feedback's projection rounds differently with the batch size
    assert batch.log_lr[0, -1] == pytest.approx(single.log_lr[0, -1], rel=1e-12)
    assert batch.h_energy[0, -1] == pytest.approx(single.h_energy[0, -1], rel=1e-12)
    assert batch.novikov_energy[0, -1] == pytest.approx(single.novikov_energy[0, -1],
                                                        rel=1e-12)
    np.testing.assert_array_equal(batch.diff_vu[0], single.diff_vu[0])


def _assert_same_path(small, big, i, j=None):
    """Path i of ``small`` equals path j (default i) of ``big``."""
    j = i if j is None else j
    np.testing.assert_array_equal(small.diff_vu[i], big.diff_vu[j])
    np.testing.assert_array_equal(small.lowmode_sq[i], big.lowmode_sq[j])
    for name in ("novikov_energy", "h_energy", "log_lr"):
        assert getattr(small, name)[i, -1] == pytest.approx(getattr(big, name)[j, -1],
                                                            rel=1e-12), name


@pytest.fixture(scope="module")
def coupled_setup(basis):
    cfg = make_cfg(basis, horizon=0.5)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 19, cfg.alpha)
    zp = smooth_state(basis, 0.4, 20, cfg.alpha)
    return cfg, nl, z, zp


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n_traj=st.integers(1, 24), extra=st.integers(1, 16), data=st.data())
def test_batch_path_does_not_depend_on_batch_size(coupled_setup, noise, n_traj,
                                                  extra, data):
    # path i draws from stream seed_offset + i whatever the batch size
    cfg, nl, z, zp = coupled_setup
    i = data.draw(st.integers(0, n_traj - 1), label="path")
    small = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=n_traj,
                            seed_offset=7)
    big = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4,
                          n_traj=n_traj + extra, seed_offset=7)
    assert small.log_lr[i, -1] != 0.0
    _assert_same_path(small, big, i)


def test_batch_paths_match_across_block_boundary(coupled_setup, noise):
    # 129 paths run as blocks of 128 and 1, 140 as 128 and 12: the second
    # block picks its streams by seed_offset + lo, so path 128 is also the
    # first path of a batch that starts at offset 128
    cfg, nl, z, zp = coupled_setup
    small = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=129,
                            seed_offset=3)
    big = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=140,
                          seed_offset=3)
    for i in (0, 127, 128):
        _assert_same_path(small, big, i)
    tail = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=2,
                           seed_offset=3 + 128)
    _assert_same_path(tail, big, 0, 128)
    _assert_same_path(tail, big, 1, 129)


def test_likelihood_ratio_is_unit_mean(basis, noise):
    # E[Lambda] = 1 under the plain law. At stride 1 every kick closes through
    # the half-step, at stride 8 most through the merged full step; both
    # ratios are exact Gaussian densities
    for stride in (1, 8):
        cfg = make_cfg(basis, horizon=1.0, stride=stride, seed=23)
        z = smooth_state(basis, 0.3, 13, cfg.alpha)
        d = unit_direction(basis, cfg.alpha)
        # a small separation keeps the ratio's tail light enough that judging a
        # merged step with the half-step operators is seen (about 4.6 standard
        # errors)
        zp = PhaseState.from_coeffs(basis, *(z.as_array() + 0.02 * d), cfg.alpha)
        batch = couple_fp_batch(cfg, Nonlinearity.klein_gordon(1.0), noise, z, zp,
                                n_feedback=4, n_traj=200)
        mean, se = stats.mean_se(np.exp(batch.log_lr[:, -1]))
        assert abs(mean - 1.0) <= 3 * se, stride


def test_tv_bound_monotone_and_zero(basis, noise):
    cfg = make_cfg(basis, horizon=1.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 13, cfg.alpha)
    batch = couple_fp_batch(cfg, nl, noise, z, z, n_feedback=4, n_traj=1)
    b_eff = np.sqrt(cfg.eps) * noise.coeffs
    assert tv_bound(batch, b_eff, 4).value == 0.0
    # monotonicity in the Novikov energy: synthetic batches
    small = dataclasses.replace(batch, h_energy=batch.h_energy + 1e-3)
    big = dataclasses.replace(batch, h_energy=batch.h_energy + 4e-3)
    assert tv_bound(big, b_eff, 4).value >= tv_bound(small, b_eff, 4).value


def test_tv_estimate_in_unit_interval_and_zero_at_equal_points(basis, noise):
    cfg = make_cfg(basis, horizon=1.0)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 14, cfg.alpha)
    batch = couple_fp_batch(cfg, nl, noise, z, z, n_feedback=4, n_traj=16)
    est = tv_estimate_likelihood(batch)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    d = unit_direction(basis, cfg.alpha)
    zp = PhaseState.from_coeffs(basis, *(z.as_array() + 0.2 * d), cfg.alpha)
    batch2 = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=64)
    est2 = tv_estimate_likelihood(batch2)
    assert 0.0 <= est2.value <= 1.0


def test_tv_experiment_bound_dominates(basis, noise):
    cfg = make_cfg(basis, horizon=1.0, stride=8, seed=23)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 15, cfg.alpha)
    d = unit_direction(basis, cfg.alpha)
    exp = girsanov_tv_experiment(cfg, nl, noise, z, d, distances=(0.04, 0.02, 0.01),
                                 n_feedback=8, n_traj=250)
    for est, bnd in zip(exp.tv_estimates, exp.bounds):
        assert est.value <= bnd.value + 3 * est.stderr
    # quadratic scaling of the median Novikov energy in the separation
    assert exp.scaling_fit.slope == pytest.approx(2.0, abs=0.3)
    # both go to zero with the distance
    assert exp.tv_estimates[-1].value < exp.tv_estimates[0].value + 3 * exp.tv_estimates[0].stderr
    assert exp.bounds[-1].value < exp.bounds[0].value


def test_tv_experiment_distances_share_no_stream(basis, noise, monkeypatch):
    # above 1000 paths per distance, path 1000 + j of one distance and path j
    # of the next must still draw from different streams
    keys = []
    real = coupling.trajectory_streams

    def recorded(seed, n, offset=0):
        keys.extend((seed, offset + i) for i in range(n))
        return real(seed, n, offset)

    monkeypatch.setattr(coupling, "trajectory_streams", recorded)
    cfg = make_cfg(basis, horizon=2 * 0.5 / np.sqrt(basis.eigenvalues[-1]))
    assert cfg.n_steps == 2
    z = smooth_state(basis, 0.3, 15, cfg.alpha)
    girsanov_tv_experiment(cfg, Nonlinearity.klein_gordon(1.0), noise, z,
                           unit_direction(basis, cfg.alpha), distances=(0.04, 0.02),
                           n_feedback=4, n_traj=1001)
    assert len(keys) == 2 * 1001 and len(set(keys)) == len(keys)



def test_nonfinite_coupled_state_raises(basis, noise):
    # a blow-up must abort the run, not surface as a NaN likelihood ratio
    cfg = make_cfg(basis, horizon=0.5)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.5, 1, cfg.alpha)
    c1 = z.u1.coeffs.copy()
    c1[3] = np.nan
    bad = PhaseState.from_coeffs(basis, c1, z.u2.coeffs, cfg.alpha)
    with pytest.raises(BlowupError, match="nonfinite"):
        couple_fp_batch(cfg, nl, noise, bad, z, 4, n_traj=3)
    with pytest.raises(BlowupError, match="nonfinite"):
        couple_fp(cfg, nl, noise, z, bad, 4)


# ------------------------------------------------------------ maximal coupling


def test_maximal_coupling_exact_cases():
    rng = np.random.default_rng(0)
    eq = MaximalCoupling([0.3, 0.7], [0.3, 0.7])
    x, y = eq.sample(rng, 500)
    assert np.all(x == y)
    assert eq.tv == 0.0

    disjoint = MaximalCoupling([1.0, 0.0], [0.0, 1.0])
    x, y = disjoint.sample(rng, 500)
    assert np.all(x != y)
    assert disjoint.tv == 1.0

    mid = MaximalCoupling([0.5, 0.5], [0.75, 0.25])
    assert mid.tv == pytest.approx(0.25)


def test_maximal_coupling_statistics():
    rng = np.random.default_rng(1)
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.2, 0.6])
    mc = MaximalCoupling(p, q)
    n = 40000
    x, y = mc.sample(rng, n)
    # disagreement frequency estimates TV at the CLT rate
    freq = np.mean(x != y)
    se = math.sqrt(mc.tv * (1 - mc.tv) / n)
    assert abs(freq - mc.tv) < 4 * se
    # marginals exact: chi-square statistic below the 99% quantile (9.21, df=2)
    for sample, target in ((x, p), (y, q)):
        counts = np.bincount(sample, minlength=3)
        chi2 = np.sum((counts - n * target) ** 2 / (n * target))
        assert chi2 < 9.21
    # conditional independence on disagreement: joint of (x, y) | x != y factorizes
    xd, yd = x[x != y], y[x != y]
    joint = np.zeros((3, 3))
    for a, b in zip(xd, yd):
        joint[a, b] += 1
    joint /= joint.sum()
    marg_x = joint.sum(axis=1)
    marg_y = joint.sum(axis=0)
    np.testing.assert_allclose(joint, np.outer(marg_x, marg_y), atol=0.02)


# ------------------------------------------------------------ mixing


def test_mixing_same_start_inside_noise_band(basis, noise):
    cfg = make_cfg(basis, horizon=3.0, stride=8)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.4, 16, cfg.alpha)
    rep = mixing_rate(cfg, nl, noise, z, z, n_traj=60)
    # both starts share each path's stream, so every paired difference is 0
    assert np.all(rep.delta <= 3 * rep.noise_floor)
    assert np.all(rep.delta == 0)
    assert rep.inconclusive and np.all(np.isfinite(rep.noise_floor))


@pytest.mark.parametrize("nl", [Nonlinearity.zero(), Nonlinearity.klein_gordon(1.0)],
                         ids=["f0", "kg1"])
def test_common_noise_gap_agrees_with_independent_ensembles(basis, noise, nl):
    # the reference runs z and z' on disjoint streams, at two other seeds.
    # Delta is a max over 12 observables of their gaps, so the two estimates
    # of Delta differ by at most the worst gap difference; 4.5 joint standard
    # errors bounds all 12 x 21 of those at a family-wise level of about 0.2%
    cfg = make_cfg(basis, horizon=5.0, stride=8, seed=101)
    assert len(stats.record_steps(cfg.n_steps, cfg.stride)) == 21
    z = smooth_state(basis, 1.2, 17, cfg.alpha)
    zp = smooth_state(basis, 1.2, 18, cfg.alpha)
    n_traj = 300
    rep = mixing_rate(cfg, nl, noise, z, zp, n_traj=n_traj)
    probes = {o.name: o for o in default_observables(basis, cfg.alpha)}
    moments = [[stats.mean_se(run_flow(dataclasses.replace(cfg, seed=seed), nl, noise, y0,
                                       n_traj=n_traj, probes=probes).probes[k], axis=0)
                for k in probes] for seed, y0 in ((102, z), (103, zp))]
    gaps = [np.abs(ma - mb) for (ma, _), (mb, _) in zip(*moments)]
    se_ind = np.max([np.hypot(sa, sb) for (_, sa), (_, sb) in zip(*moments)], axis=0)
    joint = np.hypot(rep.noise_floor / coupling.FLOOR_SE, se_ind)
    # 1e-12: at t = 0 both sides are exact, up to the rounding of a mean
    assert np.all(np.abs(rep.delta - np.max(gaps, axis=0)) <= 4.5 * joint + 1e-12)


def test_mixing_linear_rate(basis, noise):
    cfg = make_cfg(basis, horizon=14.0, stride=16, seed=29)
    nl = Nonlinearity.zero()
    z = smooth_state(basis, 1.2, 17, cfg.alpha)
    zp = smooth_state(basis, 1.2, 18, cfg.alpha)
    rep = mixing_rate(cfg, nl, noise, z, zp, n_traj=600)
    assert rep.passed
    assert rep.kappa_ci[1] >= cfg.alpha / 2


def test_mixing_rate_holds_one_ensemble_of_probes():
    # 128 paths at M = 32 with 81 records: each ensemble's probes (about 1 MB)
    # are reduced to means and errors before the other ensemble runs
    basis = SpectralBasis((PI,), 32)
    cfg = make_cfg(basis, horizon=1.25, stride=1)
    assert cfg.n_steps == 80
    nl = Nonlinearity.klein_gordon(1.0)
    noise = NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    z = smooth_state(basis, 0.4, 1, cfg.alpha)
    zp = smooth_state(basis, 0.4, 2, cfg.alpha)
    mixing_rate(cfg, nl, noise, z, zp, n_traj=4)  # build the cached tables
    tracemalloc.start()
    try:
        mixing_rate(cfg, nl, noise, z, zp, n_traj=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one ensemble's probes, the 1 MiB noise buffer and the flow's working set;
    # holding both ensembles' probes takes about 3.65 MiB
    assert peak < 3 << 20


def test_tv_estimate_reindexing_invariance(basis, noise):
    cfg = make_cfg(basis, horizon=1.0, stride=8)
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 30, cfg.alpha)
    d = unit_direction(basis, cfg.alpha)
    zp = PhaseState.from_coeffs(basis, *(z.as_array() + 0.05 * d), cfg.alpha)
    batch = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=64)
    base = tv_estimate_likelihood(batch)
    perm = np.random.default_rng(0).permutation(len(batch.log_lr))
    shuffled = tv_estimate_likelihood(dataclasses.replace(batch, log_lr=batch.log_lr[perm]))
    assert shuffled.value == pytest.approx(base.value, rel=1e-12)


def test_tv_estimate_refinement_invariance(basis, noise):
    # halving dt leaves the likelihood-ratio TV estimate inside joint error bars
    nl = Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 41, cfg_alpha := 0.25)
    d = unit_direction(basis, cfg_alpha)
    zp = PhaseState.from_coeffs(basis, *(z.as_array() + 0.05 * d), cfg_alpha)
    vals = []
    for refine in (1, 2):
        cfg = make_cfg(basis, horizon=1.0, stride=8 * refine,
                       dt=0.5 / np.sqrt(basis.eigenvalues[-1]) / refine, seed=42)
        batch = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback=4, n_traj=300)
        vals.append(tv_estimate_likelihood(batch))
    gap = abs(vals[0].value - vals[1].value)
    assert gap <= 3 * math.hypot(vals[0].stderr, vals[1].stderr) + 0.01
