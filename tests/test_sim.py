import numpy as np
import pytest

from distmirror.embedding import cmds
from distmirror.sim import (
    FamilyVariant,
    GaussianFamilySpec,
    aligned_mirror_error,
    generate,
    mean_only_grid,
    mean_only_mirror,
    mean_sd_grid,
    mean_sd_mirror,
    run_mirror_experiment,
    run_recovery_experiment,
    true_distance_matrix,
    true_wasserstein,
)
from distmirror.transport import distance_matrix


def test_mean_only_mirror_values():
    assert mean_only_mirror(np.array([5.5, 5.5])) == pytest.approx(0.0)
    assert mean_only_mirror(np.array([1.0, 1.0])) == pytest.approx(4.05)
    assert mean_only_mirror(np.array([10.0, 5.5])) == pytest.approx(2.025)


def test_mean_sd_mirror_values():
    np.testing.assert_allclose(mean_sd_mirror(np.array([0.0, 0.0])), [0.02, 0.02])
    np.testing.assert_allclose(mean_sd_mirror(np.array([1.0, 1.0])), [2.42, 2.42])


def test_oracle_zero_at_equal_parameters():
    x = np.array([2.0, 3.0])
    assert true_wasserstein(FamilyVariant.MEAN_ONLY, x, x) == 0.0


def test_oracle_mean_only_difference_of_mirrors():
    a, b = np.array([1.0, 1.0]), np.array([10.0, 5.5])
    assert true_wasserstein(FamilyVariant.MEAN_ONLY, a, b) == pytest.approx(
        abs(4.05 - 2.025)
    )


def test_oracle_mean_sd_closed_form():
    got = true_wasserstein(FamilyVariant.MEAN_SD, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(2.4 * np.sqrt(2.0), abs=1e-9)


def test_default_grids():
    g1 = mean_only_grid()
    assert g1.shape == (100, 2)
    assert g1.min() == 1.0 and g1.max() == 10.0
    g2 = mean_sd_grid()
    assert g2.shape == (100, 2)
    assert g2.min() == 0.0 and g2.max() == 1.0


def test_generate_single_sample():
    spec = GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, n=1, seed=9)
    ds = generate(spec)
    assert all(s.n == 1 and s.q == 1 for s in ds.labeled)


def test_generate_deterministic():
    spec = GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, n=25, seed=123)
    a, b = generate(spec), generate(spec)
    for sa, sb in zip(a.labeled, b.labeled):
        np.testing.assert_array_equal(sa.samples, sb.samples)


def test_generate_substreams_independent_of_grid_size():
    full = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, n=10, seed=5))
    head = generate(
        GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=mean_sd_grid()[:7], n=10, seed=5)
    )
    for sa, sb in zip(head.labeled, full.labeled[:7]):
        np.testing.assert_array_equal(sa.samples, sb.samples)


def test_generate_thread_invariance(monkeypatch):
    spec = GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, n=30, seed=2)
    monkeypatch.setenv("MIRROR_THREADS", "1")
    a = generate(spec)
    monkeypatch.setenv("MIRROR_THREADS", "4")
    b = generate(spec)
    for sa, sb in zip(a.labeled, b.labeled):
        np.testing.assert_array_equal(sa.samples, sb.samples)


def test_generate_large_sample_mean():
    grid = np.array([[5.5, 5.5]])
    spec = GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, grid=grid, n=10**6, seed=0)
    ds = generate(spec)
    assert abs(ds.labeled[0].samples.mean()) < 0.01


def test_aligned_error_zero_on_truth():
    rng = np.random.default_rng(60)
    truth = rng.standard_normal((20, 2))
    emb = cmds_from_coords(truth)
    report = aligned_mirror_error(emb, truth)
    assert report.rmse == pytest.approx(0.0, abs=1e-12)


def cmds_from_coords(coords):
    from distmirror.embedding import MirrorEmbedding

    coords = np.asarray(coords, dtype=float)
    return MirrorEmbedding(
        ids=tuple(f"s{i}" for i in range(len(coords))),
        coords=coords,
        spectrum=np.zeros(len(coords)),
    )


def test_aligned_error_removes_isometries():
    rng = np.random.default_rng(61)
    truth = rng.standard_normal((15, 2))
    theta = 0.9
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = (truth - truth.mean(axis=0)) @ rot.T + np.array([4.0, -7.0])
    report = aligned_mirror_error(cmds_from_coords(moved), truth)
    assert report.rmse < 1e-10
    assert report.max_error < 1e-10


def test_empirical_distance_approaches_oracle():
    # median |W_hat - W| over seeds shrinks as n grows (1-d fast path)
    x, x2 = np.array([2.0, 3.0]), np.array([7.0, 8.0])
    oracle = true_wasserstein(FamilyVariant.MEAN_ONLY, x, x2)
    grid = np.vstack([x, x2])
    medians = []
    for n in (100, 1000, 10000):
        gaps = []
        for seed in range(20):
            ds = generate(
                GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, grid=grid, n=n, seed=seed)
            )
            w = distance_matrix(ds.labeled, p=1).values[0, 1]
            gaps.append(abs(w - oracle))
        medians.append(np.median(gaps))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] < medians[0]


def test_frobenius_gap_shrinks():
    grid = mean_only_grid()[::4][:25]
    tdm = true_distance_matrix(FamilyVariant.MEAN_ONLY, grid)
    gaps = {}
    for n in (100, 10000):
        runs = []
        for seed in range(10):
            ds = generate(
                GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, grid=grid, n=n, seed=seed)
            )
            dm = distance_matrix(ds.labeled, p=1)
            runs.append(np.linalg.norm(dm.values - tdm.values))
        gaps[n] = np.median(runs)
    assert gaps[10000] < gaps[100]


def test_mirror_experiment_deterministic():
    kwargs = dict(n_values=(10, 50), seeds=(0, 1))
    a = run_mirror_experiment(**kwargs)
    b = run_mirror_experiment(**kwargs)
    np.testing.assert_array_equal(a.errors, b.errors)
    for n in a.n_values:
        np.testing.assert_array_equal(a.surfaces[n], b.surfaces[n])


def test_mirror_experiment_error_decreases():
    study = run_mirror_experiment(n_values=(10, 500), seeds=(0, 1, 2))
    med = np.median(study.errors, axis=1)
    assert med[1] < med[0]


def test_recovery_experiment_shapes():
    grid = mean_sd_grid()[::4][:25].copy()
    # keep a proper 5x5 grid so the triangulation is well-behaved
    axis = np.linspace(0.0, 1.0, 5)
    grid = np.array([[a, b] for a in axis for b in axis])
    study = run_recovery_experiment(n_values=(50,), seed=1, grid=grid)
    rows = study.runs[50]
    assert len(rows) == 25
    flagged = sum(1 for _, _, on_hull in rows if on_hull)
    assert flagged == 16  # boundary ring of a 5x5 grid
