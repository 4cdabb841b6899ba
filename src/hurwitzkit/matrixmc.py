"""Monte Carlo evaluation of the unitary/complex matrix integrals.

Every integrand is built from words in the sampled matrices, their daggers
and fixed test matrices, in the letters of the genfun layouts, the four lemma
relations included: they are the layouts of one matrix.  One pipeline,
`_word_traces`, draws for both entry points: a run of `samples` draws is split
into ceil(samples / _CHUNK) chunks of near-equal width, chunk k drawn from its
own random stream (SFC64 seeded through SeedSequence from (seed, k)).  One
drawing thread fills the next chunk's Ginibre batches in place, at most one
chunk ahead, while the calling thread evaluates the current chunk whole, in
arrays allocated once per run; so at most two chunks' batches are alive,
whatever `samples` is.  A chunk is (N, N, batch) arrays, batch axis last, so
each matrix entry is a vector over the chunk and every kernel is whole-vector
ufuncs, elementwise along the batch: Haar unitaries are Gram-Schmidt
orthonormalised Ginibre matrices (Mezzadri's QR with the phase fix built in);
one product kernel multiplies a word's letters left to right, reading a fixed
letter by its nonzero entries only; one kernel sums tr(Y Z) = sum_ij Y_ij Z_ji,
so tr X comes from the word's head and last letter, X itself is formed only
for a deeper power, and tr X^m for m <= 4 comes from X and X^2.  So the
estimate depends on neither the threads' timing nor `workers`, which is
checked and does nothing else, and is bit-identical for a fixed (seed,
samples) on one numpy build.  Schur functions of sampled matrices come from
these traces, never from eigendecompositions; exact predictions become
complex floats only at the comparison boundary.

`mc_schur_moment` keeps the per-draw trace tables of its latest call, so
consecutive calls that differ only in the partitions draw once.  A kept table
holds the same arrays a fresh draw computes, and tr X is formed the same way
at every depth, so results do not depend on it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod, sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._errors import LIMITS, ValidationError, as_int, guard
from .genfun import build_layout, proposition_layout
from .partitions import as_partition, partitions_of
from .symfunc import PowerAlphabet, eval_schur, schur_poly

# The lemma relations are the layouts of one matrix M = Z1 with a constant
# C0.  A paired relation s_lam(A M B M^dag) is the BKP word Z1 C1 Z1^dag C0
# (C1 = B, C0 = A, by cyclicity of the trace), glued into the vertices C0 and
# C1; a split one s_mu(A M) s_lam(M^dag B) is the BKP|BKP words Z1 C1 and
# Z1^dag C0 (C1 = A, C0 = B), glued into the one vertex C0 C1.
_RELATIONS = {
    relation: build_layout(shape, kind, (1,), "C0", relation)
    for relation, shape, kind in (("sAUBU-1", "BKP", "unitary"), ("sAUU-1B", "BKP|BKP", "unitary"),
                                  ("sAZBZ+", "BKP", "complex"), ("sAZZ+B", "BKP|BKP", "complex"))
}
LEMMA_RELATIONS = tuple(_RELATIONS)

# Every estimate is gated at this many standard errors.
_GATE = 5.0

# The most samples drawn and evaluated at once: a run is split into
# ceil(samples / _CHUNK) chunks of near-equal width, none narrower than half of
# it once samples >= _CHUNK.  The width was measured as the slice in which
# 25 000-sample chunks were evaluated: the 11 calls of the mc-gates workload
# in one process (2 cores, numpy 2.4.6, median of 4 passes, two rounds) took
# 0.68-0.71 s at 2 500, 0.66-0.72 s at 3 125, 0.63-0.64 s at 6 250,
# 0.67-0.74 s at 12 500 and 0.83-0.86 s on whole chunks.  A 3 x 3 matrix batch
# of 6 250 samples is 0.9 MB.
_CHUNK = 6_250

# The trace tables of the latest mc_schur_moment call, at most one entry:
# (relation, size, samples, seed, A bytes, B bytes) -> (depth, per
# chunk the list `_word_traces` yields: one table {m: tr X^m for m <= depth}
# per word of the relation).
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


def _worker_rng(seed: int, chunk: int) -> np.random.Generator:
    """The stream of chunk number `chunk` of a run: SFC64 seeded through
    SeedSequence([seed, chunk]).  Nothing jumps or advances a stream, so it
    needs no counter-based generator."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk])))


def _ginibre_batch(rng: np.random.Generator, batch: int, size: int) -> np.ndarray:
    """A (size, size, batch) batch of (re + 1j*im)/sqrt(2): the stream's normals
    fill the array's float64 view in place, in C order, so each entry's real and
    imaginary parts are consecutive draws, and are then scaled in place."""
    out = np.empty((size, size, batch), dtype=complex)
    parts = out.view(np.float64)
    rng.standard_normal(out=parts)
    parts *= 1.0 / np.sqrt(2.0)
    return out


def _haar_batch(z: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Haar unitaries as the Q of the Ginibre matrices z (Mezzadri 2007), and
    their daggers: Gram-Schmidt over the columns, vectorised across the batch.
    Each column is orthogonalised twice ("twice is enough") and then
    normalised, so R's diagonal is real and positive by construction; that is
    Mezzadri's phase fix, and Q is Haar distributed.  Q and Q^dag are written
    into out if given."""
    q, q_dag = out if out is not None else (np.empty_like(z), np.empty_like(z))
    for j in range(z.shape[1]):
        v = z[:, j, None]
        for _ in range(2 if j else 0):
            v = v - _mul(q[:, :j], _mul(q_dag[:j], v))
        q[:, j] = v[:, 0] * (1.0 / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0)))
        np.conj(q[:, j], out=q_dag[j])
    return q, q_dag


def _dagger(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The conjugate transposes of a batch, written into out if given."""
    return np.conj(z.swapaxes(0, 1), out=out)


def _mul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y for batch-last stacks, out[i, j] = sum_k x[i, k] y[k, j] by vector
    multiply-adds over the chunk, k increasing, column j for every i at once.  A
    2-d y is a fixed matrix for every draw, read by its nonzero entries only:
    column j sums over the k with y[k, j] != 0, so a diagonal y costs one vector
    multiply per column, and a column with no such k is 0.  The product is
    written into out if given, which must not share memory with x or y."""
    if out is None:
        out = np.empty((x.shape[0], y.shape[1], x.shape[-1]), dtype=complex)
    for j in range(y.shape[1]):
        ks = range(y.shape[0]) if y.ndim == 3 else np.flatnonzero(y[:, j])
        if not len(ks):
            out[:, j] = 0
            continue
        acc = np.multiply(x[:, ks[0]], y[ks[0], j], out=out[:, j])
        for k in ks[1:]:
            acc += x[:, k] * y[k, j]
    return out


def _trace_of_product(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """tr(y z) = sum_ij y[i, j] z[j, i] for a batch y, by vector multiply-adds into
    one buffer, i then j increasing.  A 2-d z is fixed and read by its nonzero
    entries only; with none, the trace is 0."""
    pairs = (np.argwhere(z.T) if z.ndim == 2
             else [(i, j) for i in range(y.shape[0]) for j in range(y.shape[1])])
    if not len(pairs):
        return np.zeros(y.shape[-1], dtype=complex)
    (i, j), *rest = pairs
    out = y[i, j] * z[j, i]
    for i, j in rest:
        out += y[i, j] * z[j, i]
    return out


def _batched_traces(mats: np.ndarray, m_max: int, first: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """tr X^m for m <= m_max from X and X^2 alone: X^m = Y Z with halves Y, Z
    in {X, X^2}, each trace one `_trace_of_product`, so at most one product is
    formed, into out if given.  first is tr X if the caller has it
    (`_word_traces_table`)."""
    if m_max > 4:
        raise ValueError(f"traces from X and X^2 reach m <= 4, not m = {m_max}")
    square = _mul(mats, mats, out) if m_max >= 3 else None
    halves = {2: (mats, mats), 3: (square, mats), 4: (square, square)}
    traces = {m: _trace_of_product(*halves[m]) for m in range(2, m_max + 1)}
    return {1: np.trace(mats) if first is None else first, **traces}


def _accumulate(values_by_chunk: Iterable[np.ndarray], samples: int, seed: int) -> MCEstimate:
    """Mean and standard error; each chunk's squares are centred on its own
    mean and merged in chunk order by the pairwise update of Chan et al., so
    a spread small against |mean|^2 does not cancel away."""
    total = 0j
    count = 0
    spread = 0.0  # sum of |x - mean|^2 over the chunks merged so far
    for vals in values_by_chunk:  # merged in chunk order: deterministic
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


def _chunks(samples: int, count: int) -> list[int]:
    """samples split into count widths that differ by at most one."""
    base, extra = divmod(samples, count)
    return [base + (i < extra) for i in range(count) if base + (i < extra) > 0]


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


def check_seed(seed: int) -> int:
    """seed as an integer, refused outside [0, 2^64), the range of the streams' seeds."""
    seed = as_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must satisfy 0 <= seed < 2^64")
    return seed


def _check_stream(seed: int, workers: int) -> tuple[int, int]:
    """seed and workers as integers, each checked against its range.  workers
    changes nothing else: the chunks and their streams depend on samples."""
    seed, workers = check_seed(seed), as_int("workers", workers, 1)
    guard("mc workers", workers)
    return seed, workers


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


def _vertex_alphabets(vertices, cs: Sequence[np.ndarray], depth: int) -> list[PowerAlphabet]:
    """The trace alphabet, to p_depth, of each vertex's product of C matrices;
    cs[i - 1] is C_i, so the constant C0 is cs[-1]."""
    return [PowerAlphabet.from_matrix(reduce(np.matmul, (cs[i - 1] for i in vertex),
                                             np.eye(len(cs[0]), dtype=complex)), depth)
            for vertex in vertices]


def _letter(letter, mats: Sequence[tuple[np.ndarray, np.ndarray]],
            cs: Sequence[np.ndarray]) -> np.ndarray:
    """The matrix a layout letter (i, power) stands for: the batch Z_i, its
    dagger, or for power 0 the fixed C_i.  mats[i - 1] is Z_i with its dagger."""
    i, power = letter
    return cs[i - 1] if power == 0 else mats[i - 1][power < 0]


def _word_traces_table(word, mats: Sequence[tuple[np.ndarray, np.ndarray]],
                       cs: Sequence[np.ndarray], depth: int,
                       spare: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> dict[int, np.ndarray]:
    """{m: tr X^m for m <= depth} of the product X a word spells, multiplied
    left to right.  tr X is tr(H L) of the word's halves, H every letter but the
    last and L the last, so at depth 1 X is never formed, and the row is the
    same at every depth.  The products are written into the two spare arrays
    by turns, or into new ones; the traces are new arrays."""
    letters = [_letter(letter, mats, cs) for letter in word]
    out, free = spare if spare is not None else (None, None)
    if len(letters) == 1:
        return _batched_traces(letters[0], depth, out=out)
    head = letters[0]
    for letter in letters[1:-1]:
        head = _mul(head, letter, out)
        out, free = free, out
    first = _trace_of_product(head, letters[-1])
    if depth == 1:
        return {1: first}
    return _batched_traces(_mul(head, letters[-1], out), depth, first, free)


class _Draw(threading.Thread):
    """Draws a chunk's n Ginibre batches from its stream on a thread of its own."""

    def __init__(self, seed: int, chunk: int, width: int, n: int, size: int):
        super().__init__(name="hurwitzkit-mc-draw")
        self.spec = (seed, chunk, width, n, size)
        self.drawn = None
        self.start()

    def run(self):
        seed, chunk, width, n, size = self.spec
        try:
            rng = _worker_rng(seed, chunk)
            self.drawn = [_ginibre_batch(rng, width, size) for _ in range(n)]
        except BaseException as exc:  # re-raised by result() in the waiting thread
            self.drawn = exc

    def result(self) -> list[np.ndarray]:
        self.join()
        drawn, self.drawn = self.drawn, None
        if isinstance(drawn, BaseException):
            raise drawn
        return drawn


def _word_traces(kind: str, words: Sequence[tuple], cs: Sequence[np.ndarray], n: int,
                 size: int, samples: int, seed: int, depth: int):
    """Per chunk, the trace tables {m: tr X^m for m <= depth} of the products
    X the words spell, on n matrices of the kind drawn from the chunk's stream.
    One thread draws the next chunk while this one evaluates the current one;
    closing the generator early waits for that draw and starts no other.

    Every chunk is evaluated in one block of arrays allocated for the widest:
    the n daggers, the n Haar batches of a unitary kind, and two spare arrays
    for the words' products.  Arrays of a few MB made anew at every chunk cost
    a minor page fault per 4 KB each time, as the freed heap is handed back to
    the system and paged in again."""
    widths = _chunks(samples, -(-samples // _CHUNK))
    count = (2 * n if kind == "unitary" else n) + 2
    work = np.empty((count, size, size, widths[0]), dtype=complex)
    pending = _Draw(seed, 0, widths[0], n, size)
    try:
        for chunk, width in enumerate(widths):
            draws = pending.result()
            pending = (_Draw(seed, chunk + 1, widths[chunk + 1], n, size)
                       if chunk + 1 < len(widths) else None)
            arrays = work[..., :width]  # n daggers, n Haar batches if unitary, 2 spare
            mats = [_haar_batch(z, (arrays[n + i], arrays[i])) if kind == "unitary"
                    else (z, _dagger(z, arrays[i])) for i, z in enumerate(draws)]
            del draws  # the Ginibre batches of a unitary chunk are not held past Q
            yield [_word_traces_table(word, mats, cs, depth, (arrays[-2], arrays[-1]))
                   for word in words]
            del mats  # not held while the next chunk is taken
    finally:
        if pending is not None:
            pending.join()


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
    the exact term of lam in the relation's layout (0 when mu != lam), at 5
    standard errors.

    The draws' trace tables are kept until the next call of either entry point;
    a call with the same (relation, size, samples, seed, A, B) reuses it and
    draws nothing.  workers is checked and changes nothing."""
    if relation not in _RELATIONS:
        raise ValidationError(f"relation must be one of {LEMMA_RELATIONS}")
    layout = _RELATIONS[relation]
    words = [word for _, word in layout.factors]
    seed, workers = _check_stream(seed, workers)
    lam = as_partition(lam)
    mu = as_partition(mu) if mu is not None else lam
    if lam.weight() < 1 or mu.weight() < 1:
        raise ValidationError("partitions must be nonempty")
    guard("mc weight", max(lam.weight(), mu.weight()))
    size = as_int("size", size, 1)
    guard("mc moment size", size)
    samples = as_int("samples", samples)
    guard("mc samples", samples)
    if len(words) == 1 and mu != lam:
        raise ValidationError(f"{relation} takes one partition: mu must equal lambda")
    a = default_test_matrix(size, 0) if a_matrix is None else _as_test_matrix(a_matrix, size)
    b = default_test_matrix(size, 1) if b_matrix is None else _as_test_matrix(b_matrix, size)
    cs = (b, a) if len(words) == 1 else (a, b)  # C1, then the constant C0

    # Weight-1 calls build p_1 alone, so a single such call does no extra
    # work; any deeper need builds p_1..p_4 once, enough for every partition
    # the guard admits.
    m_max = max(lam.weight(), mu.weight())
    key = (relation, size, samples, seed, a.tobytes(), b.tobytes())
    kept = _trace_slot.get(key)
    if kept is None or kept[0] < m_max:
        _trace_slot.clear()
        depth = 1 if m_max == 1 else LIMITS["mc weight"].most
        kept = (depth, list(_word_traces(layout.matrix_kind, words, cs, 1, size, samples,
                                         seed, depth)))
        _trace_slot[key] = kept
    parts = (lam,) if len(words) == 1 else (mu, lam)
    values = [prod(schur_poly(part).evaluate(table) for part, table in zip(parts, tables))
              for tables in kept[1]]

    estimate = _accumulate(values, samples, seed)
    exact = (layout.term(lam, size, _vertex_alphabets(layout.vertices, cs, lam.weight()))
             if mu == lam else 0j)
    return _compare(estimate, complex(exact))


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
    p* = (1/3, 1/4) in p_1, p_2, and 0 beyond.  c_matrices are C1 ... Cn, then
    the constant's matrix if the layout has one (by default
    default_test_matrix(size, i) for C_(i+1), and (size, n) for the constant)."""
    layout = proposition_layout(layout_name, n, t)
    seed, workers = _check_stream(seed, workers)
    size, degree = as_int("size", size, 1), as_int("degree", degree, 1)
    guard("mc proposition size", size)
    guard("mc proposition degree", degree)
    samples = as_int("samples", samples)
    guard("mc samples", samples)

    count = n + (layout.constant is not None)
    cs = ([default_test_matrix(size, i) for i in range(count)] if c_matrices is None
          else [_as_test_matrix(c, size) for c in c_matrices])
    if len(cs) != count:
        raise ValidationError(f"{layout_name} takes {count} C matrices: C1 ... Cn, then"
                              " its constant's if it has one")
    alphabets = {None: None}  # a BKP factor has no free alphabet
    for name, values in (("p", (Fraction(1, 2), Fraction(1, 3))),
                         ("p*", (Fraction(1, 3), Fraction(1, 4)))):
        alphabets[name] = PowerAlphabet.explicit(
            {m: values[m - 1] if m <= 2 else Fraction(0) for m in range(1, degree + 1)})

    # Exact side: the layout's value on the slot alphabets.
    slot_alphabets = ([alphabets[name] for name, _ in layout.factors if name]
                      + _vertex_alphabets(layout.vertices, cs, degree))
    exact = complex(layout.value(size, degree, slot_alphabets))

    _trace_slot.clear()
    names, words = zip(*layout.factors)
    values = (prod(_tau_truncated(alphabets[name], degree, table)
                   for name, table in zip(names, tables))
              for tables in _word_traces(layout.matrix_kind, words, cs, n, size, samples,
                                         seed, degree))

    estimate = _accumulate(values, samples, seed)
    return _compare(estimate, exact)
