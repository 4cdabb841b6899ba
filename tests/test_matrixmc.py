import numpy as np
import pytest

from fractions import Fraction

from hurwitzkit import GuardError, ValidationError
from hurwitzkit.matrixmc import (
    LEMMA_RELATIONS,
    mc_proposition_check,
    mc_schur_moment,
    unitarity_residual,
)
from hurwitzkit.matrixmc import _chunks, _ginibre_batch, _haar_batch, _worker_rng

SEED = 20240818


def test_ginibre_moments():
    rng = _worker_rng(SEED, 0)
    z = _ginibre_batch(rng, 40_000, 3)
    # entrywise: mean zero, unit second absolute moment
    mean = z.mean()
    second = (np.abs(z) ** 2).mean()
    assert abs(mean) < 5 / np.sqrt(40_000 * 9)
    assert abs(second - 1.0) < 5 / np.sqrt(40_000 * 9)


def test_ginibre_trace_moment():
    z = _ginibre_batch(_worker_rng(SEED, 1), 2000, 3)
    vals = np.trace(z @ z.conj().swapaxes(-2, -1), axis1=-2, axis2=-1).real
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 9.0) < 5 * stderr  # E tr ZZ^dag = N^2


def test_haar_unitarity_residual():
    for u in _haar_batch(_worker_rng(SEED, 2), 20, 5):
        assert unitarity_residual(u) < 1e-12


def test_haar_first_moments():
    rng = _worker_rng(SEED, 3)
    batch = _haar_batch(rng, 30_000, 3)
    mean_entry = batch.mean(axis=0)
    assert np.abs(mean_entry).max() < 5 / np.sqrt(30_000 / 3)
    second = (np.abs(batch[:, 0, 0]) ** 2).mean()
    stderr = (np.abs(batch[:, 0, 0]) ** 2).std(ddof=1) / np.sqrt(30_000)
    assert abs(second - 1 / 3) < 5 * stderr  # E|U_11|^2 = 1/N


def test_chunks():
    assert _chunks(10, 4) == [3, 3, 2, 2]
    assert _chunks(3, 4) == [1, 1, 1]
    assert sum(_chunks(100_000, 7)) == 100_000


def test_estimate_reproducibility():
    a = mc_schur_moment("sAUBU-1", (2,), 3, samples=12_000, seed=5, workers=4)
    b = mc_schur_moment("sAUBU-1", (2,), 3, samples=12_000, seed=5, workers=4)
    assert a.estimate.mean == b.estimate.mean
    assert a.estimate.stderr == b.estimate.stderr
    c = mc_schur_moment("sAUBU-1", (2,), 3, samples=12_000, seed=6, workers=4)
    assert c.estimate.mean != a.estimate.mean


def test_guards():
    with pytest.raises(GuardError):
        mc_schur_moment("sAUBU-1", (2,), 7, samples=10_000)
    with pytest.raises(GuardError):
        mc_schur_moment("sAUBU-1", (2, 1, 1, 1, 1), 3, samples=10_000)
    with pytest.raises(GuardError):
        mc_schur_moment("sAUBU-1", (2,), 3, samples=5_000)
    with pytest.raises(ValidationError):
        mc_schur_moment("nope", (2,), 3)
    with pytest.raises(GuardError):
        mc_proposition_check("prop1", 1, 6)
    with pytest.raises(ValidationError):
        mc_proposition_check("chekhov", 1, 3)


@pytest.mark.parametrize("relation", LEMMA_RELATIONS)
def test_lemma_relations_small(relation):
    cmp = mc_schur_moment(relation, (2, 1), 3, samples=20_000, seed=SEED)
    assert cmp.passed, f"{relation}: {cmp.sigmas:.2f} sigmas"


def test_lemma_offdiagonal_zero():
    cmp = mc_schur_moment("sAZZ+B", (2,), 3, samples=15_000, seed=SEED, mu=(1, 1))
    assert cmp.exact == 0
    assert cmp.passed
    cmp = mc_schur_moment("sAUU-1B", (2,), 3, samples=15_000, seed=SEED, mu=(1, 1))
    assert cmp.exact == 0
    assert cmp.passed


def test_lemma_identity_matrices_example():
    ident = np.eye(2, dtype=complex)
    cmp = mc_schur_moment(
        "sAZBZ+", (2,), 2, samples=30_000, seed=SEED, a_matrix=ident, b_matrix=ident
    )
    assert abs(cmp.exact - 18) < 1e-12
    assert cmp.passed


def test_wick_contraction_example():
    """E s_(1)(A Z B Z^dag) = tr A tr B."""
    a = np.diag([1.0 + 0j, 2.0]);  b = np.diag([0.5 + 0j, -1.0])
    cmp = mc_schur_moment("sAZBZ+", (1,), 2, samples=30_000, seed=SEED,
                          a_matrix=a, b_matrix=b)
    assert abs(cmp.exact - np.trace(a) * np.trace(b)) < 1e-12
    assert cmp.passed


@pytest.mark.parametrize(
    "name,n", [("prop1", 1), ("prop2", 1), ("prop2", 2), ("prop1_u", 1), ("prop2_u", 2)]
)
def test_propositions_small(name, n):
    cmp = mc_proposition_check(name, n, 3, degree=2, samples=20_000, seed=SEED)
    assert cmp.passed, f"{name} n={n}: {cmp.sigmas:.2f} sigmas"


def test_proposition_wick_degree_one():
    """E tr(Z C Z^dag) = N tr C: the degree-one coefficient of the one-matrix
    single-tau layout."""
    from hurwitzkit.genfun import proposition_layout
    from hurwitzkit.symfunc import PowerAlphabet

    size = 3
    c = np.diag([1.0 + 0j, 2.0, -0.5])
    layout = proposition_layout("prop2", 1)
    series = layout.series(N=size, d_max=1)
    alpha_c = PowerAlphabet.from_matrix([list(r) for r in c], 1)
    alpha_p = PowerAlphabet.explicit({1: Fraction(1)})
    exact = complex(series.evaluate([alpha_c, alpha_p])) - 1  # drop the constant term
    assert abs(exact - size * np.trace(c)) < 1e-12

    rng = _worker_rng(SEED, 9)
    z = _ginibre_batch(rng, 30_000, size)
    vals = np.einsum("bij,jk,bik->b", z, c, z.conj())
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 5 * stderr
