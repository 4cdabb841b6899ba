"""Monte Carlo evaluation of the unitary/complex matrix integrals.

Sampling is batched with numpy; every run is split into worker chunks whose
random streams are counter-based (Philox keyed by (seed, worker)), so the
estimate is bit-identical for a fixed (seed, samples, workers) on one numpy
build, regardless of schedule.  A chunk is one (N, N, batch) array, batch
axis last, so each matrix entry is a vector over the chunk and every kernel
is whole-vector ufuncs: Haar unitaries are Gram-Schmidt orthonormalised
Ginibre matrices (Mezzadri's QR with the phase fix built in); one product
kernel serves sampled and fixed test matrices, which cyclicity of the trace
puts on the right; tr X^m for m <= 4 comes from X and X^2.  Schur functions
of sampled matrices come from these traces, never from eigendecompositions;
exact predictions become complex floats only at the comparison boundary.

`mc_schur_moment` keeps the per-draw trace table of its latest call, so
consecutive calls that differ only in the partitions draw once.  A kept table
holds the same arrays a fresh draw computes, so results do not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod, sqrt
from typing import Mapping, Sequence

import numpy as np

from ._errors import LIMITS, ValidationError, guard
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

# Every estimate is gated at this many standard errors.
_GATE = 5.0

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
    """(re + 1j*im)/sqrt(2) of two (batch, size, size) normal draws, batch-last."""
    out = np.empty((size, size, batch), dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal((batch, size, size)).transpose(1, 2, 0),
                    1.0 / np.sqrt(2.0), out=part)
    return out


def _haar_batch(rng: np.random.Generator, batch: int, size: int) -> np.ndarray:
    """Haar unitaries as the Q of Ginibre matrices (Mezzadri 2007): Gram-Schmidt
    over the columns, vectorised across the batch.  Each column is
    orthogonalised twice ("twice is enough") and then normalised, so R's
    diagonal is real and positive by construction; that is Mezzadri's phase
    fix, and Q is Haar distributed."""
    z = _ginibre_batch(rng, batch, size)
    q, q_dag = np.empty_like(z), np.empty_like(z)
    for j in range(size):
        v = z[:, j, None]
        for _ in range(2 if j else 0):
            v = v - _mul(q[:, :j], _mul(q_dag[:j], v))
        q[:, j] = v[:, 0] * (1.0 / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0)))
        np.conj(q[:, j], out=q_dag[j])
    return q


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for batch-last stacks, out[i, j] = sum_k x[i, k] y[k, j] by vector
    multiply-adds over the chunk; a 2-d y is a fixed matrix for every draw."""
    y = y if y.ndim == 3 else y[:, :, None]
    out = np.empty(np.broadcast_shapes(x[:, :1].shape, y[:1].shape), dtype=complex)
    for i, j in np.ndindex(out.shape[:2]):
        acc = np.multiply(x[i, 0], y[0, j], out=out[i, j])
        for k in range(1, x.shape[1]):
            acc += x[i, k] * y[k, j]
    return out


def _batched_traces(mats: np.ndarray, m_max: int) -> dict[int, np.ndarray]:
    """tr X^m for m <= m_max from X and X^2 alone: X^m = Y Z with halves Y, Z
    in {X, X^2} and tr(Y Z) = sum_ij Y_ij Z_ji, so at most one product is formed."""
    if m_max > 4:
        raise ValueError(f"traces from X and X^2 reach m <= 4, not m = {m_max}")
    square = _mul(mats, mats) if m_max >= 3 else None
    halves = {2: (mats, mats), 3: (square, mats), 4: (square, square)}
    traces = {m: np.einsum("ijb,jib->b", *halves[m]) for m in range(2, m_max + 1)}
    return {1: np.trace(mats), **traces}


def _accumulate(values_by_worker: Sequence[np.ndarray], samples: int, seed: int) -> MCEstimate:
    """Mean and standard error; each chunk's squares are centred on its own
    mean and merged in worker order by the pairwise update of Chan et al., so
    a spread small against |mean|^2 does not cancel away."""
    total = 0j
    count = 0
    spread = 0.0  # sum of |x - mean|^2 over the chunks merged so far
    for vals in values_by_worker:  # merged in worker order: deterministic
        chunk_total = complex(np.sum(vals))
        chunk_mean = chunk_total / len(vals)
        if count:
            delta = abs(chunk_mean - total / count) ** 2
            spread += delta * count * len(vals) / (count + len(vals))
        spread += float(np.sum(np.abs(vals - chunk_mean) ** 2))
        total += chunk_total
        count += len(vals)
    return MCEstimate(mean=total / samples, stderr=sqrt(spread / (samples - 1) / samples),
                      samples=samples, seed=seed)


def _chunks(samples: int, workers: int) -> list[int]:
    base, extra = divmod(samples, workers)
    return [base + (1 if i < extra else 0) for i in range(workers) if base + (i < extra) > 0]


def _compare(estimate: MCEstimate, exact: complex) -> MCComparison:
    diff = abs(estimate.mean - exact)
    if diff < 1e-9 * (1.0 + abs(exact)):
        return MCComparison(estimate, exact, 0.0, True)
    sigmas = diff / estimate.stderr if estimate.stderr > 0 else float("inf")
    return MCComparison(estimate, exact, sigmas, sigmas <= _GATE)


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
    guard("mc workers", workers)


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
        dag = mats.conj().swapaxes(0, 1)
        # Cyclicity puts every fixed factor on the right: tr(A M B M^dag)^m =
        # tr(M B M^dag A)^m and tr(A M)^m = tr(M A)^m.
        if paired:
            tables.append(_batched_traces(_mul(_mul(mats, b), _mul(dag, a)), depth))
        else:
            tables.append((_batched_traces(_mul(mats, a), depth),
                           _batched_traces(_mul(dag, b), depth)))
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
) -> MCComparison:
    """Estimate one of the four single/paired Schur averages and compare with
    its exact value at 5 standard errors.

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
    guard("mc weight", max(lam.weight(), mu.weight()))
    if size < 1:
        raise ValidationError("size must be >= 1")
    guard("mc moment size", size)
    guard("mc samples", samples)
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
        depth = 1 if m_max == 1 else LIMITS["mc weight"].most
        kept = (depth, _trace_tables(haar, paired, size, samples, seed, workers, a, b, depth))
        _trace_slot[key] = kept
    if paired:
        values = [schur_poly(lam).evaluate(table) for table in kept[1]]
    else:
        values = [schur_poly(mu).evaluate(left) * schur_poly(lam).evaluate(right)
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

    return _compare(estimate, exact)


def _tau_truncated(alphabet: PowerAlphabet | None, d_max: int,
                   traces: Mapping[int, np.ndarray]) -> np.ndarray:
    """sum over |lam| <= d_max of s_lam(alphabet) s_lam(X), or of s_lam(X)
    alone for a BKP factor (alphabet None)."""
    some = next(iter(traces.values()))
    total = np.ones(some.shape, dtype=complex)
    for d in range(1, d_max + 1):
        for lam in partitions_of(d):
            coeff = 1.0 if alphabet is None else complex(eval_schur(lam, alphabet))
            if coeff:
                total = total + coeff * schur_poly(lam).evaluate(traces)
    return total


def _word_product(word, mats: Sequence[np.ndarray], cs: Sequence[np.ndarray]) -> np.ndarray:
    """The batch of products a layout word spells, evaluated left to right."""
    out = None
    for i, power in word:
        if power == 0:
            out = _mul(out, cs[i - 1])
        else:
            z = mats[i - 1] if power > 0 else mats[i - 1].conj().swapaxes(0, 1)
            out = z if out is None else _mul(out, z)
    return out


def mc_proposition_check(
    layout_name: str,
    n: int,
    size: int,
    degree: int = 2,
    samples: int = 100_000,
    seed: int = 11,
    c_matrices: Sequence[np.ndarray] | None = None,
    workers: int = 4,
    t: int | None = None,
) -> MCComparison:
    """MC average of the degree-truncated integrand of a layout, built from its
    words, against the exact truncated character sum from the same layout, at
    5 standard errors.  The free alphabets are p = (1/2, 1/3) and
    p* = (1/3, 1/4) in p_1, p_2, and 0 beyond."""
    layout = proposition_layout(layout_name, n, t)
    if layout.constant is not None:
        raise ValidationError(f"{layout_name} has no test matrix for {layout.constant}")
    _check_stream(seed, workers)
    if size < 1:
        raise ValidationError("size must be >= 1")
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    guard("mc proposition size", size)
    guard("mc proposition degree", degree)
    guard("mc samples", samples)

    cs = (
        [_as_test_matrix(c, size) for c in c_matrices]
        if c_matrices is not None
        else [default_test_matrix(size, i) for i in range(n)]
    )
    if len(cs) != n:
        raise ValidationError("need one C matrix per sampled matrix")
    alphabets = {None: None}  # a BKP factor has no free alphabet
    for name, values in (("p", (Fraction(1, 2), Fraction(1, 3))),
                         ("p*", (Fraction(1, 3), Fraction(1, 4)))):
        alphabets[name] = PowerAlphabet.explicit(
            {m: values[m - 1] if m <= 2 else Fraction(0) for m in range(1, degree + 1)})

    # Exact side: the layout's value on the slot alphabets.
    slot_alphabets = [alphabets[name] for name, _ in layout.factors if name]
    for vertex in layout.vertices:
        mat = np.eye(size, dtype=complex)
        for i in vertex:
            mat = mat @ cs[i - 1]
        slot_alphabets.append(PowerAlphabet.from_matrix([list(r) for r in mat], degree))
    exact = complex(layout.value(size, degree, slot_alphabets))

    _trace_slot.clear()
    sample = _haar_batch if layout.matrix_kind == "unitary" else _ginibre_batch
    values = []
    for worker, chunk in enumerate(_chunks(samples, workers)):
        rng = _worker_rng(seed, worker)
        ms = [sample(rng, chunk, size) for _ in range(n)]
        values.append(prod(
            _tau_truncated(alphabets[name], degree,
                           _batched_traces(_word_product(word, ms, cs), degree))
            for name, word in layout.factors))

    estimate = _accumulate(values, samples, seed)
    return _compare(estimate, exact)
