import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from distmirror.embedding import (
    MirrorEmbedding,
    RealizabilityReport,
    cmds,
    double_center,
    procrustes_align,
    realizability_diagnostics,
    select_dimension,
)
from distmirror.errors import MirrorError, NoPositiveSpectrum
from distmirror.transport import DistanceMatrix


def dm_from(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"s{i}" for i in range(len(values)))
    return DistanceMatrix(ids=ids, values=values)


def euclidean_dm(points):
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    values = np.sqrt(np.sum(diff * diff, axis=2))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    return dm_from(values)


def procrustes_fit(estimate, reference):
    """The rotation procrustes_align returns, and the residual it leaves on the centered inputs."""
    rotation = procrustes_align(estimate, reference)
    est = estimate - estimate.mean(axis=0)
    ref = reference - reference.mean(axis=0)
    return rotation, np.linalg.norm(ref - est @ rotation)


COLLINEAR = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_double_center_zero_matrix():
    np.testing.assert_array_equal(double_center(dm_from(np.zeros((4, 4)))), np.zeros((4, 4)))


def test_double_center_hand_example():
    # direct evaluation of -1/2 H D^(.2) H for the 0/1/2 collinear matrix
    b = double_center(dm_from(COLLINEAR))
    np.testing.assert_allclose(b, [[1, 0, -1], [0, 0, 0], [-1, 0, 1]], atol=1e-12)


def test_double_center_annihilates_row_sums():
    rng = np.random.default_rng(2)
    values = np.abs(rng.standard_normal((7, 7)))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    b = double_center(dm_from(values))
    np.testing.assert_allclose(b.sum(axis=0), 0.0, atol=1e-9 * 7)
    np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-9 * 7)
    assert np.array_equal(b, b.T)


def test_cmds_collinear_example():
    emb = cmds(dm_from(COLLINEAR), 1)
    coords = emb.coords[:, 0]
    target = np.array([-1.0, 0.0, 1.0])
    sign = 1.0 if coords[np.argmax(np.abs(coords))] * target[2] > 0 else -1.0
    np.testing.assert_allclose(coords, sign * target, atol=1e-10)
    np.testing.assert_allclose(emb.spectrum, [2.0, 0.0, 0.0], atol=1e-10)


def test_cmds_reproduces_unit_square():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    emb = cmds(euclidean_dm(square), 2)
    got = euclidean_dm(emb.coords).values
    np.testing.assert_allclose(got, euclidean_dm(square).values, atol=1e-10)


def test_cmds_full_dimension_pads_zero_columns():
    # non-positive eigenvalues are clipped: their columns come out exactly zero
    emb = cmds(dm_from([[0, 1, 1], [1, 0, 3], [1, 3, 0]]), 3)
    assert np.any(emb.spectrum < 0)
    for j in range(3):
        if emb.spectrum[j] <= 0:
            np.testing.assert_array_equal(emb.coords[:, j], np.zeros(3))


def test_cmds_exactness_random_configurations():
    rng = np.random.default_rng(8)
    for c in (1, 2, 3):
        points = rng.standard_normal((12, c)) * 3
        emb = cmds(euclidean_dm(points), c)
        got = euclidean_dm(emb.coords).values
        want = euclidean_dm(points).values
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_cmds_column_structure():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((10, 3))
    emb = cmds(euclidean_dm(points), 3)
    coords = emb.coords
    m = 10
    scale = np.abs(coords).max()
    np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-8 * m * scale)
    gram = coords.T @ coords
    np.testing.assert_allclose(
        gram - np.diag(np.diagonal(gram)), 0.0, atol=1e-8 * m * scale**2
    )
    for j in range(3):
        expect = max(emb.spectrum[j], 0.0)
        assert gram[j, j] == pytest.approx(expect, rel=1e-8, abs=1e-12)


def test_cmds_spectrum_traces_b():
    rng = np.random.default_rng(10)
    points = rng.standard_normal((9, 2))
    dm = euclidean_dm(points)
    emb = cmds(dm, 2)
    assert np.trace(double_center(dm)) == pytest.approx(emb.spectrum.sum(), rel=1e-9)


def test_cmds_sign_convention_deterministic():
    emb1 = cmds(dm_from(COLLINEAR), 1)
    emb2 = cmds(dm_from(COLLINEAR), 1)
    np.testing.assert_array_equal(emb1.coords, emb2.coords)
    col = emb1.coords[:, 0]
    assert col[np.argmax(np.abs(col))] > 0


def test_cmds_isometry_invariance():
    rng = np.random.default_rng(12)
    points = rng.standard_normal((15, 2))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = points @ rot.T + np.array([5.0, -2.0])
    emb_a = cmds(euclidean_dm(points), 2)
    emb_b = cmds(euclidean_dm(moved), 2)
    _, residual = procrustes_fit(emb_a.coords, emb_b.coords)
    assert residual < 1e-9


def test_embedding_dimension_is_its_coordinate_columns():
    emb = MirrorEmbedding(ids=("a", "b"), coords=np.zeros((2, 3)), spectrum=np.zeros(2))
    assert (emb.m, emb.c) == (2, 3)
    assert not emb.coords.flags.writeable and not emb.spectrum.flags.writeable


@pytest.mark.parametrize("coords, spectrum", [
    (np.zeros(2), np.zeros(2)),  # not 2-d
    (np.zeros((3, 1)), np.zeros(2)),  # a row too many
    (np.zeros((2, 1)), np.zeros(3)),  # an eigenvalue too many
], ids=["1-d-coords", "extra-row", "extra-eigenvalue"])
def test_embedding_rejects_a_shape_that_is_not_one_row_per_id(coords, spectrum):
    with pytest.raises(MirrorError):
        MirrorEmbedding(ids=("a", "b"), coords=coords, spectrum=spectrum)


@st.composite
def embedding_fields(draw):
    """Distinct ids with coordinates and eigenvalues, any of which may be NaN or infinite."""
    m = draw(st.integers(1, 5))
    ids = draw(st.lists(st.text(max_size=3), min_size=m, max_size=m, unique=True))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([np.nan, np.inf, -np.inf]))
    coords = draw(arrays(np.float64, (m, draw(st.integers(1, 3))), elements=values))
    spectrum = draw(arrays(np.float64, m, elements=values))
    return tuple(ids), coords, spectrum


@given(embedding_fields())
def test_embedding_rejects_non_finite_values_naming_the_first_row(fields):
    ids, coords, spectrum = fields
    bad = ~np.isfinite(coords).all(axis=1) | ~np.isfinite(spectrum)
    if not bad.any():
        emb = MirrorEmbedding(ids=ids, coords=coords, spectrum=spectrum)
        np.testing.assert_array_equal(emb.coords, coords)
        return
    with pytest.raises(MirrorError) as info:
        MirrorEmbedding(ids=ids, coords=coords, spectrum=spectrum)
    first = ids[int(np.argmax(bad))]
    assert str(info.value) == f"embedding row {first!r} has a non-finite coordinate or eigenvalue"


def test_cmds_dimension_bounds():
    with pytest.raises(MirrorError):
        cmds(dm_from(COLLINEAR), 0)
    with pytest.raises(MirrorError):
        cmds(dm_from(COLLINEAR), 4)


def test_diagnostics_euclidean_input_no_negatives():
    rng = np.random.default_rng(14)
    report = realizability_diagnostics(euclidean_dm(rng.standard_normal((8, 2))))
    assert report.count_negative == 0


def test_diagnostics_triangle_violation_detected():
    # eigendecomposition of its doubly centered matrix: spectrum (4.5, 0, -5/6)
    report = realizability_diagnostics(dm_from([[0, 1, 1], [1, 0, 3], [1, 3, 0]]))
    assert report.count_negative >= 1
    assert report.min_eigenvalue == pytest.approx(-5.0 / 6.0, abs=1e-10)


def test_report_reads_its_figures_from_the_spectrum():
    report = RealizabilityReport(spectrum=np.array([1e10, 0.0, -5.0, -20.0]))
    assert report.count_negative == 1  # -5 is within 1e-9 of the largest |eigenvalue|
    assert report.min_eigenvalue == -20.0
    np.testing.assert_array_equal(report.eigenvalue_share, [2.5e9, 0.0, -1.25, -5.0])


def test_diagnostics_two_point_closed_form():
    delta = 3.0
    report = realizability_diagnostics(dm_from([[0, delta], [delta, 0]]))
    np.testing.assert_allclose(report.spectrum, [delta**2 / 2, 0.0], atol=1e-12)


def test_select_dimension_examples():
    assert select_dimension(np.array([10.0, 9.0, 0.1, 0.05])) == 2
    assert select_dimension(np.array([5.0, 0.0, 0.0])) == 1
    assert select_dimension(np.array([4.0, 4.0, 0.1])) == 2


def test_select_dimension_tie_breaks_toward_smaller():
    # gaps at positions 1 and 2 are equal; the smaller dimension wins
    assert select_dimension(np.array([2.0, 1.0, 0.0])) == 1


def test_select_dimension_scale_invariant():
    rng = np.random.default_rng(15)
    spectrum = np.sort(np.abs(rng.standard_normal(6)))[::-1]
    base = select_dimension(spectrum)
    for factor in (1e-6, 3.7, 1e8):
        assert select_dimension(spectrum * factor) == base


def test_select_dimension_no_positive_spectrum():
    with pytest.raises(NoPositiveSpectrum):
        select_dimension(np.array([0.0, -1.0]))


@pytest.mark.parametrize("spectrum, message", [
    ([1.0], "spectrum must be a vector of length >= 2"),
    ([[2.0, 1.0]], "spectrum must be a vector of length >= 2"),
    ([1.0, 2.0, 0.0], "spectrum must be sorted in descending order"),
], ids=["one-value", "matrix", "ascending-step"])
def test_select_dimension_rejects_a_spectrum_it_cannot_read(spectrum, message):
    with pytest.raises(MirrorError, match=f"^{message}$"):
        select_dimension(np.array(spectrum))


def test_eigendecomposition_failure_is_a_mirror_error(monkeypatch):
    def no_convergence(b):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(MirrorError, match=r"^eigendecomposition failed: Eigenvalues did not converge$"):
        cmds(dm_from(COLLINEAR), 1)


def test_procrustes_identity():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((10, 3))
    rotation, residual = procrustes_fit(x, x)
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-10)
    assert residual < 1e-10


def random_orthogonal(rng, c):
    q, r = np.linalg.qr(rng.standard_normal((c, c)))
    return q * np.sign(np.diagonal(r))


def test_procrustes_recovers_known_rotation():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((12, 3))
    x -= x.mean(axis=0)
    rot = random_orthogonal(rng, 3)
    rotation, residual = procrustes_fit(x @ rot, x)
    np.testing.assert_allclose(rotation, rot.T, atol=1e-10)
    assert residual < 1e-10


def test_procrustes_beats_random_rotations():
    rng = np.random.default_rng(18)
    estimate = rng.standard_normal((9, 3))
    reference = estimate + 0.1 * rng.standard_normal((9, 3))
    _, residual = procrustes_fit(estimate, reference)
    est = estimate - estimate.mean(axis=0)
    ref = reference - reference.mean(axis=0)
    for _ in range(100):
        w = random_orthogonal(rng, 3)
        assert residual <= np.linalg.norm(ref - est @ w) + 1e-12


def test_procrustes_orthogonality_invariant():
    rng = np.random.default_rng(20)
    rotation = procrustes_align(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    np.testing.assert_allclose(rotation.T @ rotation, np.eye(2), atol=1e-10)


def test_procrustes_shape_mismatch():
    with pytest.raises(MirrorError):
        procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))


@pytest.mark.parametrize("side", ["estimate", "reference"])
def test_procrustes_names_a_point_that_is_not_finite(side):
    # Its SVD would raise a raw LinAlgError.
    inputs = {"estimate": np.eye(3, 2), "reference": np.eye(3, 2)}
    inputs[side][2, 0] = np.nan
    with pytest.raises(MirrorError, match=rf"^{side} point 2 \(\[nan, 0\.0\]\) is not finite$"):
        procrustes_align(inputs["estimate"], inputs["reference"])
