"""Monte Carlo evaluation of the unitary/complex matrix integrals.

Sampling is batched with numpy; every run is split into worker chunks whose
random streams are counter-based (Philox keyed by (seed, worker)), so the
estimate is bit-identical for a fixed (seed, samples, workers) on one
numpy/BLAS build, regardless of schedule.  Each kernel works on a whole
chunk at once: Haar unitaries are Gram-Schmidt orthonormalised Ginibre
matrices, which is Mezzadri's QR with the phase fix built in; a fixed test
matrix enters as one matrix product over the chunk, placed on the right by
cyclicity of the trace; and tr X^m for m <= 4 comes from X and X^2 alone.
Schur functions on sampled matrices are always evaluated from these traces,
never from eigendecompositions; exact predictions are converted to complex
floats only at the comparison boundary.

`mc_schur_moment` keeps the per-draw trace table of its latest call, so
consecutive calls that differ only in the partitions draw once.  A kept table
holds the same arrays a fresh draw computes, so results do not depend on it.
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

# The |lam| guard, and the depth of a deep trace table: _batched_traces forms
# powers up to 4 only, so a larger value fails loudly there.
_MAX_WEIGHT = 4
_MAX_MATRICES = 8
_MIN_SAMPLES = 10_000
_MAX_SAMPLES = 10**6
_MAX_WORKERS = 64

# The trace table of the latest mc_schur_moment call, at most one entry:
# (relation, size, samples, seed, workers, A bytes, B bytes) -> (depth, one
# table per chunk).  A table is {m: tr X^m for m <= depth} of X = A M B M^dag
# for paired relations, and a (left, right) pair of them for X = A M and
# X = M^dag B for split ones.
_trace_slot: dict[tuple, tuple[int, list]] = {}


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
    """Haar unitaries as the Q of Ginibre matrices (Mezzadri 2007): Gram-Schmidt
    over the columns, vectorised across the batch.  Each column is
    orthogonalised twice ("twice is enough") and then normalised, so R's
    diagonal is real and positive by construction; that is Mezzadri's phase
    fix, and Q is Haar distributed."""
    z = _ginibre_batch(rng, batch, size)
    q = np.empty_like(z)
    for j in range(size):
        v = z[:, :, j]
        basis = q[:, :, :j]
        for _ in range(2):
            v = v - np.einsum("bik,bk->bi", basis, np.einsum("bik,bi->bk", basis.conj(), v))
        q[:, :, j] = v / np.sqrt(np.einsum("bi,bi->b", v.conj(), v).real)[:, None]
    return q


def unitarity_residual(u: np.ndarray) -> float:
    n = u.shape[-1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


def _batched_traces(mats: np.ndarray, m_max: int) -> dict[int, np.ndarray]:
    """tr X^m for m <= m_max from X and X^2 alone: tr X^3 = <X^2, X^T> and
    tr X^4 = <X^2, (X^2)^T>, so at most one batched product is formed."""
    if m_max > 4:
        raise ValueError(f"traces from X and X^2 reach m <= 4, not m = {m_max}")
    traces = {1: np.einsum("bii->b", mats)}
    if m_max >= 2:
        traces[2] = np.einsum("bij,bji->b", mats, mats)
    if m_max >= 3:
        square = mats @ mats
        traces[3] = np.einsum("bij,bji->b", square, mats)
    if m_max >= 4:
        traces[4] = np.einsum("bij,bji->b", square, square)
    return traces


def _times(mats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M C for every M of the batch, as one matrix product."""
    return (mats.reshape(-1, c.shape[0]) @ c).reshape(mats.shape)


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
    if workers > _MAX_WORKERS:
        raise GuardError(f"mc guard: workers <= {_MAX_WORKERS}")


def _check_samples(samples: int) -> None:
    if samples < _MIN_SAMPLES:
        raise GuardError("mc guard: samples >= 10^4")
    if samples > _MAX_SAMPLES:
        raise GuardError("mc guard: samples <= 10^6")


def _as_test_matrix(matrix, size: int) -> np.ndarray:
    """A caller's test matrix as a C-ordered complex size x size array; its
    bytes then determine its values, and so the draws' trace table."""
    try:
        out = np.ascontiguousarray(matrix, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"test matrix is not numeric: {exc}") from exc
    if out.shape != (size, size):
        raise ValidationError(f"test matrices must be {size} x {size}, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValidationError("test matrices must have finite entries")
    return out


def _trace_tables(haar: bool, paired: bool, size: int, samples: int, seed: int,
                  workers: int, a: np.ndarray, b: np.ndarray, depth: int) -> list:
    sample = _haar_batch if haar else _ginibre_batch
    tables = []
    for worker, chunk in enumerate(_chunks(samples, workers)):
        mats = sample(_worker_rng(seed, worker), chunk, size)
        dag = mats.conj().swapaxes(-2, -1)
        # Cyclicity puts every fixed factor on the right: tr(A M B M^dag)^m =
        # tr(M B M^dag A)^m and tr(A M)^m = tr(M A)^m.
        if paired:
            tables.append(_batched_traces(_times(mats, b) @ _times(dag, a), depth))
        else:
            tables.append((_batched_traces(_times(mats, a), depth),
                           _batched_traces(_times(dag, b), depth)))
    return tables


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
    its exact value at `gate` standard errors.

    The draws' trace table is kept until the next call of either entry point;
    a call with the same (relation, size, samples, seed, workers, A, B) reuses
    it and draws nothing."""
    if relation not in _RELATIONS:
        raise ValidationError(f"relation must be one of {LEMMA_RELATIONS}")
    haar, paired = _RELATIONS[relation]
    _check_stream(seed, workers)
    lam = as_partition(lam)
    mu = as_partition(mu) if mu is not None else lam
    if lam.weight() < 1 or mu.weight() < 1:
        raise ValidationError("partitions must be nonempty")
    if lam.weight() > _MAX_WEIGHT or mu.weight() > _MAX_WEIGHT:
        raise GuardError(f"mc guard: |lam| <= {_MAX_WEIGHT}")
    if size < 1:
        raise ValidationError("size must be >= 1")
    if size > 6:
        raise GuardError("mc guard: N <= 6")
    _check_samples(samples)
    if paired and mu != lam:
        raise ValidationError(f"{relation} takes one partition: mu must equal lambda")
    a = default_test_matrix(size, 0) if a_matrix is None else _as_test_matrix(a_matrix, size)
    b = default_test_matrix(size, 1) if b_matrix is None else _as_test_matrix(b_matrix, size)

    # Weight-1 calls build p_1 alone, so a single such call does no extra
    # work; any deeper need builds p_1..p_4 once, enough for every partition
    # the guard admits.
    m_max = max(lam.weight(), mu.weight())
    key = (relation, size, samples, seed, workers, a.tobytes(), b.tobytes())
    kept = _trace_slot.get(key)
    if kept is None or kept[0] < m_max:
        _trace_slot.clear()
        depth = 1 if m_max == 1 else _MAX_WEIGHT
        kept = (depth, _trace_tables(haar, paired, size, samples, seed, workers, a, b, depth))
        _trace_slot[key] = kept
    if paired:
        values = [_schur_on_traces(lam, table) for table in kept[1]]
    else:
        values = [_schur_on_traces(mu, left) * _schur_on_traces(lam, right)
                  for left, right in kept[1]]

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


def _tau_truncated(alphabet: PowerAlphabet, d_max: int,
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
    if size < 1:
        raise ValidationError("size must be >= 1")
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if size > 5:
        raise GuardError("mc guard: N <= 5")
    if degree > 3:
        raise GuardError("mc guard: degree <= 3")
    if n > _MAX_MATRICES:
        raise GuardError(f"mc guard: n <= {_MAX_MATRICES}")
    _check_samples(samples)
    layout = proposition_layout(layout_name, n)
    unitary = layout.matrix_kind == "unitary"
    two_sided = layout_name in ("prop1", "prop1_u")

    cs = (
        [_as_test_matrix(c, size) for c in c_matrices]
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

    _trace_slot.clear()
    values = []
    for worker, chunk in enumerate(_chunks(samples, workers)):
        rng = _worker_rng(seed, worker)
        ms = [
            _haar_batch(rng, chunk, size) if unitary else _ginibre_batch(rng, chunk, size)
            for _ in range(n)
        ]
        prod = _times(ms[0], cs[0])
        for alpha in range(1, n):
            prod = _times(prod @ ms[alpha], cs[alpha])
        star = ms[n - 1].conj().swapaxes(-2, -1)
        for alpha in range(n - 2, -1, -1):
            star = star @ ms[alpha].conj().swapaxes(-2, -1)
        if two_sided:
            left = _tau_truncated(p_alpha, degree, _batched_traces(prod, degree))
            right = _tau_truncated(p_star_alpha, degree, _batched_traces(star, degree))
            values.append(left * right)
        else:
            both = prod @ star
            values.append(_tau_truncated(p_alpha, degree, _batched_traces(both, degree)))

    estimate = _accumulate(values, samples, seed)
    return _compare(estimate, exact, gate)
