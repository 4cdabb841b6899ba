"""Monte Carlo evaluation of the unitary/complex matrix integrals.

Sampling is batched with numpy; every run is split into worker chunks whose
random streams are counter-based (Philox keyed by (seed, worker)), so the
estimate is bit-identical for a fixed (seed, samples, workers) regardless of
schedule.  Schur functions on sampled matrices are always evaluated from
traces of matrix powers, never from eigendecompositions; exact predictions
are converted to complex floats only at the comparison boundary.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Mapping, Sequence

import numpy as np

from ._errors import GuardError, ValidationError
from .genfun import proposition_layout
from .partitions import Partition, as_partition, partitions_of
from .symfunc import PowerAlphabet, eval_schur, schur_poly

# relation -> (Haar unitary M, else Ginibre; paired s_lam(A M B M^dag), else
# split s_mu(A M) s_lam(M^dag B)).  The exact side divides by s_lam(N) for
# Haar matrices and by s_lam(p_infinity) for Ginibre ones.
_RELATIONS = {
    "sAUBU-1": (True, True),
    "sAUU-1B": (True, False),
    "sAZBZ+": (False, True),
    "sAZZ+B": (False, False),
}
LEMMA_RELATIONS = tuple(_RELATIONS)


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValidationError("an estimate needs at least 2 samples")
        if self.stderr < 0:
            raise ValidationError("stderr must be nonnegative")


@dataclass(frozen=True)
class MCComparison:
    estimate: MCEstimate
    exact: complex
    sigmas: float
    passed: bool


def _worker_rng(seed: int, worker: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, worker], dtype=np.uint64)))


def _ginibre_batch(rng: np.random.Generator, batch: int, size: int) -> np.ndarray:
    re = rng.standard_normal((batch, size, size))
    im = rng.standard_normal((batch, size, size))
    return (re + 1j * im) / np.sqrt(2.0)


def _haar_batch(rng: np.random.Generator, batch: int, size: int) -> np.ndarray:
    z = _ginibre_batch(rng, batch, size)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def unitarity_residual(u: np.ndarray) -> float:
    n = u.shape[-1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


def _batched_traces(mats: np.ndarray, m_max: int) -> dict[int, np.ndarray]:
    traces = {}
    power = mats
    for m in range(1, m_max + 1):
        traces[m] = np.trace(power, axis1=-2, axis2=-1)
        if m < m_max:
            power = power @ mats
    return traces


def _schur_on_traces(lam: Partition, traces: Mapping[int, np.ndarray]) -> np.ndarray:
    poly = schur_poly(lam)
    some = next(iter(traces.values()))
    total = np.zeros(some.shape, dtype=complex)
    for key, coeff in poly.coeffs.items():
        term = np.full(some.shape, float(coeff), dtype=complex)
        for m in key:
            term = term * traces[m]
        total += term
    return total


def _accumulate(values_by_worker: Sequence[np.ndarray], samples: int, seed: int) -> MCEstimate:
    total = 0j
    total_sq = 0.0
    for vals in values_by_worker:  # merged in worker order: deterministic
        total += complex(np.sum(vals))
        total_sq += float(np.sum(np.abs(vals) ** 2))
    mean = total / samples
    var = max(total_sq - samples * abs(mean) ** 2, 0.0) / (samples - 1)
    return MCEstimate(mean=mean, stderr=sqrt(var / samples), samples=samples, seed=seed)


def _chunks(samples: int, workers: int) -> list[int]:
    base, extra = divmod(samples, workers)
    return [base + (1 if i < extra else 0) for i in range(workers) if base + (i < extra) > 0]


def _compare(estimate: MCEstimate, exact: complex, gate: float) -> MCComparison:
    diff = abs(estimate.mean - exact)
    scale = 1.0 + abs(exact)
    if diff < 1e-9 * scale:
        return MCComparison(estimate, exact, 0.0, True)
    sigmas = diff / estimate.stderr if estimate.stderr > 0 else float("inf")
    return MCComparison(estimate, exact, sigmas, sigmas <= gate)


def default_test_matrix(size: int, which: int = 0) -> np.ndarray:
    """Deterministic diagonal (hence normal, invertible) complex test matrix."""
    k = np.arange(1, size + 1, dtype=float)
    diag = 1.0 + 0.25 * which + 0.5 * k / size + 0.3j * k / (size + which + 1)
    return np.diag(diag).astype(complex)


def _exact_schur(lam: Partition, matrix: np.ndarray) -> complex:
    alpha = PowerAlphabet.from_matrix([list(row) for row in matrix], max(lam.weight(), 1))
    return complex(eval_schur(lam, alpha))


def _schur_norm(lam: Partition, size: int, haar: bool) -> complex:
    """s_lam(N) = s_lam at p_m = N for Haar matrices, s_lam(p_infinity) for Ginibre ones."""
    m_max = max(lam.weight(), 1)
    alpha = PowerAlphabet.constant(Fraction(size), m_max) if haar else PowerAlphabet.p_infinity(m_max)
    return complex(eval_schur(lam, alpha))


def _check_stream(seed: int, workers: int) -> None:
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must satisfy 0 <= seed < 2^64")


def mc_schur_moment(
    relation: str,
    lam,
    size: int,
    samples: int = 100_000,
    seed: int = 7,
    mu=None,
    a_matrix: np.ndarray | None = None,
    b_matrix: np.ndarray | None = None,
    workers: int = 4,
    gate: float = 5.0,
) -> MCComparison:
    """Estimate one of the four single/paired Schur averages and compare with
    its exact value at `gate` standard errors."""
    if relation not in _RELATIONS:
        raise ValidationError(f"relation must be one of {LEMMA_RELATIONS}")
    haar, paired = _RELATIONS[relation]
    _check_stream(seed, workers)
    lam = as_partition(lam)
    mu = as_partition(mu) if mu is not None else lam
    if lam.weight() < 1 or mu.weight() < 1:
        raise ValidationError("partitions must be nonempty")
    if lam.weight() > 4 or mu.weight() > 4:
        raise GuardError("mc guard: |lam| <= 4")
    if size > 6:
        raise GuardError("mc guard: N <= 6")
    if samples < 10_000:
        raise GuardError("mc guard: samples >= 10^4")
    if lam.weight() != mu.weight() and paired:
        raise ValidationError("single-Schur relations take one partition")
    a = default_test_matrix(size, 0) if a_matrix is None else np.asarray(a_matrix, dtype=complex)
    b = default_test_matrix(size, 1) if b_matrix is None else np.asarray(b_matrix, dtype=complex)

    m_max = max(lam.weight(), mu.weight(), 1)
    sample = _haar_batch if haar else _ginibre_batch
    values = []
    for worker, chunk in enumerate(_chunks(samples, workers)):
        mats = sample(_worker_rng(seed, worker), chunk, size)
        dag = mats.conj().swapaxes(-2, -1)
        if paired:
            prod = a[None] @ mats @ b[None] @ dag
            values.append(_schur_on_traces(lam, _batched_traces(prod, m_max)))
        else:
            left = _schur_on_traces(mu, _batched_traces(a[None] @ mats, mu.weight()))
            right = _schur_on_traces(lam, _batched_traces(dag @ b[None], lam.weight()))
            values.append(left * right)

    estimate = _accumulate(values, samples, seed)

    # Schur functions of N x N matrices vanish identically beyond N rows, so
    # those relations degenerate to 0 = 0.
    if lam.length() > size or mu.length() > size:
        exact = 0j
    elif paired:
        exact = _exact_schur(lam, a) * _exact_schur(lam, b) / _schur_norm(lam, size, haar)
    else:
        exact = _exact_schur(lam, a @ b) / _schur_norm(lam, size, haar) if mu == lam else 0j

    return _compare(estimate, exact, gate)


def _tau_truncated(mats: np.ndarray, alphabet: PowerAlphabet, d_max: int,
                   traces: Mapping[int, np.ndarray]) -> np.ndarray:
    some = next(iter(traces.values()))
    total = np.ones(some.shape, dtype=complex)
    for d in range(1, d_max + 1):
        for lam in partitions_of(d):
            coeff = complex(eval_schur(lam, alphabet))
            if coeff:
                total = total + coeff * _schur_on_traces(lam, traces)
    return total


def mc_proposition_check(
    layout_name: str,
    n: int,
    size: int,
    degree: int = 2,
    samples: int = 100_000,
    seed: int = 11,
    c_matrices: Sequence[np.ndarray] | None = None,
    p_values: Mapping[int, Fraction] | None = None,
    p_star_values: Mapping[int, Fraction] | None = None,
    workers: int = 4,
    gate: float = 5.0,
) -> MCComparison:
    """MC average of the degree-truncated integrand for one of the basic
    layouts (prop1/prop2 and their unitary analogues), against the exact
    truncated character sum from the same layout."""
    if layout_name not in ("prop1", "prop2", "prop1_u", "prop2_u"):
        raise ValidationError("mc propositions cover prop1, prop2, prop1_u, prop2_u")
    _check_stream(seed, workers)
    if size > 5:
        raise GuardError("mc guard: N <= 5")
    if degree > 3:
        raise GuardError("mc guard: degree <= 3")
    layout = proposition_layout(layout_name, n)
    unitary = layout.matrix_kind == "unitary"
    two_sided = layout_name in ("prop1", "prop1_u")

    cs = (
        [np.asarray(c, dtype=complex) for c in c_matrices]
        if c_matrices is not None
        else [default_test_matrix(size, i) for i in range(n)]
    )
    if len(cs) != n:
        raise ValidationError("need one C matrix per sampled matrix")
    p_values = dict(p_values or {1: Fraction(1, 2), 2: Fraction(1, 3)})
    p_star_values = dict(p_star_values or {1: Fraction(1, 3), 2: Fraction(1, 4)})
    p_alpha = PowerAlphabet.explicit({m: p_values.get(m, Fraction(0)) for m in range(1, degree + 1)})
    p_star_alpha = PowerAlphabet.explicit(
        {m: p_star_values.get(m, Fraction(0)) for m in range(1, degree + 1)}
    )

    # Exact side: layout series evaluated on the slot alphabets.
    slot_alphabets = []
    for slot in layout.slots:
        if slot == "p":
            slot_alphabets.append(p_alpha)
        elif slot == "p*":
            slot_alphabets.append(p_star_alpha)
        else:
            mat = np.eye(size, dtype=complex)
            for label in slot.split("*"):
                mat = mat @ cs[int(label[1:]) - 1]
            slot_alphabets.append(PowerAlphabet.from_matrix([list(r) for r in mat], degree))
    series = layout.series(N=size, d_max=degree)
    exact = complex(series.evaluate(slot_alphabets))

    values = []
    for worker, chunk in enumerate(_chunks(samples, workers)):
        rng = _worker_rng(seed, worker)
        ms = [
            _haar_batch(rng, chunk, size) if unitary else _ginibre_batch(rng, chunk, size)
            for _ in range(n)
        ]
        prod = ms[0] @ cs[0][None]
        for alpha in range(1, n):
            prod = prod @ ms[alpha] @ cs[alpha][None]
        star = ms[n - 1].conj().swapaxes(-2, -1)
        for alpha in range(n - 2, -1, -1):
            star = star @ ms[alpha].conj().swapaxes(-2, -1)
        if two_sided:
            left = _tau_truncated(prod, p_alpha, degree, _batched_traces(prod, degree))
            right = _tau_truncated(star, p_star_alpha, degree, _batched_traces(star, degree))
            values.append(left * right)
        else:
            both = prod @ star
            values.append(_tau_truncated(both, p_alpha, degree, _batched_traces(both, degree)))

    estimate = _accumulate(values, samples, seed)
    return _compare(estimate, exact, gate)
