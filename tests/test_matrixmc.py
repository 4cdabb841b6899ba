import threading
import time
from functools import reduce

import numpy as np
import pytest

from fractions import Fraction

import hurwitzkit
from hurwitzkit import LIMITS, GuardError, ValidationError, matrixmc
from hurwitzkit.matrixmc import (
    LEMMA_RELATIONS,
    mc_proposition_check,
    mc_schur_moment,
)
from hurwitzkit.matrixmc import (
    _CHUNK,
    _RELATIONS,
    _batched_traces,
    _chunks,
    _dagger,
    _ginibre_batch,
    _haar_batch,
    _mul,
    _trace_of_product,
    _trace_slot,
    _word_traces,
    _word_traces_table,
    _worker_rng,
    default_test_matrix,
)
from hurwitzkit.genfun import proposition_layout
from hurwitzkit.partitions import partitions_of

SEED = 20240818
_MAX_WEIGHT = LIMITS["mc weight"].most


def test_ginibre_moments():
    rng = _worker_rng(SEED, 0)
    z = _ginibre_batch(rng, 40_000, 3)
    # entrywise: mean zero, unit second absolute moment
    mean = z.mean()
    second = (np.abs(z) ** 2).mean()
    assert abs(mean) < 5 / np.sqrt(40_000 * 9)
    assert abs(second - 1.0) < 5 / np.sqrt(40_000 * 9)


def test_ginibre_entries_are_circular():
    """E z^2 = 0, E[re im] = 0 and Var re = Var im = 1/2, each at 5 sigma: a
    fill that copied the real parts into the imaginary ones would still pass
    test_ginibre_moments."""
    z = _ginibre_batch(_worker_rng(SEED, 0), 40_000, 3).ravel()

    def assert_mean(vals, want):
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - want) < 5 * stderr

    assert_mean(z ** 2, 0.0)
    assert_mean(z.real * z.imag, 0.0)
    for part in (z.real, z.imag):
        assert_mean((part - part.mean()) ** 2, 0.5)


def test_ginibre_batch_fills_the_sfc64_stream_in_place():
    """The draws are bit for bit the normals of SFC64 seeded by
    SeedSequence([seed, worker]), times 1/sqrt(2), in C order over
    (N, N, batch, re/im): batch axis last, and each entry's real and imaginary
    parts consecutive draws."""
    scale = 1.0 / np.sqrt(2.0)
    for size in (1, 2, 3, 6):
        stream = np.random.Generator(np.random.SFC64(np.random.SeedSequence([SEED, 20 + size])))
        normals = stream.standard_normal((size, size, 500, 2))
        want = np.empty((size, size, 500), dtype=complex)
        want.real = normals[..., 0] * scale
        want.imag = normals[..., 1] * scale
        got = _ginibre_batch(_worker_rng(SEED, 20 + size), 500, size)
        assert got.shape == (size, size, 500)
        assert got.tobytes() == want.tobytes()


def test_ginibre_trace_moment():
    z = np.moveaxis(_ginibre_batch(_worker_rng(SEED, 1), 2000, 3), -1, 0)
    vals = np.trace(z @ z.conj().swapaxes(-2, -1), axis1=-2, axis2=-1).real
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 9.0) < 5 * stderr  # E tr ZZ^dag = N^2


def _lapack_haar(z):
    """Independent oracle for _haar_batch: LAPACK QR of the Ginibre draws with
    Mezzadri's phase fix, R's diagonal made real and positive."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("size", range(1, 7))
def test_haar_matches_lapack_qr_with_phase_fix(size):
    z = np.moveaxis(_ginibre_batch(_worker_rng(SEED, 10 + size), 2_000, size), -1, 0)
    # q orthonormalises z: both come from the same stream.
    q, q_dag = _haar_batch(_ginibre_batch(_worker_rng(SEED, 10 + size), 2_000, size))
    assert q_dag.tobytes() == _dagger(q).tobytes()
    q = np.moveaxis(q, -1, 0)
    assert np.abs(q - _lapack_haar(z)).max() < 1e-12
    # Orthogonalising twice keeps Q unitary to a few ulps; one pass loses ~1e-13.
    assert np.abs(q.conj().swapaxes(-2, -1) @ q - np.eye(size)).max() < 4e-15


def _power_traces(mats, m_max):
    return {m: np.trace(np.linalg.matrix_power(mats, m), axis1=-2, axis2=-1)
            for m in range(1, m_max + 1)}


def _assert_traces_close(got, want):
    assert got.keys() == want.keys()
    for m in want:
        assert np.allclose(got[m], want[m], rtol=1e-12, atol=1e-12 * np.abs(want[m]).max()), m


def test_batched_traces_match_matrix_powers():
    rng = np.random.default_rng(SEED)
    for size in (1, 2, 3, 6):
        x = rng.standard_normal((300, size, size)) + 1j * rng.standard_normal((300, size, size))
        x[:, 0, -1] += 3.0  # far from normal
        for m_max in range(1, 5):
            _assert_traces_close(_batched_traces(np.moveaxis(x, 0, -1), m_max),
                                 _power_traces(x, m_max))


def test_batched_traces_stop_at_the_weight_guard():
    """X and X^2 give tr X^m up to m = 4 only; a deep trace table has depth
    LIMITS["mc weight"], so raising that guard beyond 4 has to fail here."""
    x = _ginibre_batch(_worker_rng(SEED, 4), 10, 3)
    assert sorted(_batched_traces(x, _MAX_WEIGHT)) == list(range(1, _MAX_WEIGHT + 1))
    with pytest.raises(ValueError):
        _batched_traces(x, 5)


def _dense_mul(x, y):
    """x @ y by a multiply-add for every k, zeros included: the reference the
    product kernel must match bit for bit."""
    y = y if y.ndim == 3 else y[:, :, None]
    out = np.empty((x.shape[0], y.shape[1], x.shape[-1]), dtype=complex)
    for i in range(x.shape[0]):
        for j in range(y.shape[1]):
            acc = x[i, 0] * y[0, j]
            for k in range(1, x.shape[1]):
                acc = acc + x[i, k] * y[k, j]
            out[i, j] = acc
    return out


def _fixed_factors(rng, size):
    """Diagonal, sparse off-diagonal (a column with two entries when size > 1),
    zero-column and all-zero test matrices, and a dense one."""
    sparse = np.zeros((size, size), dtype=complex)
    sparse[size - 1, 0] = 1.5 - 0.5j
    sparse[0, size - 1] += 0.25 + 2j
    sparse[size // 2, size - 1] += -0.75j
    dense = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    zero_column = dense.copy()
    zero_column[:, size // 2] = 0
    return {"diagonal": default_test_matrix(size, 1), "sparse": sparse,
            "zero column": zero_column, "zero": np.zeros((size, size), dtype=complex),
            "dense": dense}


@pytest.mark.parametrize("size", range(1, 7))
def test_mul_reads_a_fixed_factor_by_its_nonzero_entries(size):
    """Skipping the zero entries of a fixed factor changes no bit of the
    product: every entry equals the dense multiply-add's (signed zeros are
    compared as zeros, hence the + 0.0).  Products of two batches, which
    skip nothing, match it too."""
    rng = np.random.default_rng(SEED + size)
    x = _ginibre_batch(_worker_rng(SEED, 30 + size), 257, size)
    y = _ginibre_batch(_worker_rng(SEED, 40 + size), 257, size)
    for name, c in {**_fixed_factors(rng, size), "batch": y}.items():
        got, want = _mul(x, c), _dense_mul(x, c)
        assert got.shape == want.shape == (size, size, 257), name
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), name
    assert not _mul(x, np.zeros((size, size))).any()


def _assert_traces_within(got, want, rel=1e-15):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("size", range(1, 7))
def test_trace_of_product_matches_the_matrix_product(size):
    """tr(Y Z) = sum_ij Y_ij Z_ji against np.trace(Y @ Z), for a sampled Z and
    for fixed ones, which the kernel reads by their nonzero entries."""
    rng = np.random.default_rng(SEED + size)
    y = _ginibre_batch(_worker_rng(SEED, 50 + size), 400, size)
    z = _ginibre_batch(_worker_rng(SEED, 60 + size), 400, size)
    batch_y = np.moveaxis(y, -1, 0)
    _assert_traces_within(_trace_of_product(y, z),
                          np.trace(batch_y @ np.moveaxis(z, -1, 0), axis1=1, axis2=2))
    for name, c in _fixed_factors(rng, size).items():
        want = np.trace(batch_y @ c, axis1=1, axis2=2)
        got = _trace_of_product(y, c)
        if not c.any():
            assert got.shape == (400,) and not got.any(), name
        else:
            _assert_traces_within(got, want)


def _sampled(kind, rng, batch, size=3):
    """One drawn batch as the pipeline holds it: with its dagger."""
    z = _ginibre_batch(rng, batch, size)
    return _haar_batch(z) if kind == "unitary" else (z, _dagger(z))


def _numpy_products(word, mats, cs):
    """The products a word spells, batch first, by numpy's matmul, each
    dagger made here from its batch."""
    batches = [np.moveaxis(z, -1, 0) for z, _ in mats]
    letters = [cs[i - 1] if power == 0 else
               batches[i - 1] if power > 0 else batches[i - 1].conj().swapaxes(-2, -1)
               for i, power in word]
    return reduce(np.matmul, letters)


@pytest.mark.parametrize("name,n,t", [("prop2_u", 2, None), ("prop1", 1, None),
                                      ("odd3", 2, 2)])
def test_depth_one_table_is_the_first_row_of_a_deep_one(name, n, t):
    """At depth 1 a word's product is never formed: tr X = tr(head x last
    letter).  The deep table forms tr X the same way, so its first row is the
    depth-1 table bit for bit, which keeps a kept table's p_1 the same as a
    fresh one's; both are within 1e-15 of the trace of the whole product."""
    layout = proposition_layout(name, n, t)
    cs = [default_test_matrix(3, i) for i in range(n)]
    rng = _worker_rng(SEED, 70)
    mats = [_sampled(layout.matrix_kind, rng, 500) for _ in range(n)]
    for _, word in layout.factors:
        shallow = _word_traces_table(word, mats, cs, 1)
        deep = _word_traces_table(word, mats, cs, _MAX_WEIGHT)
        assert list(shallow) == [1] and sorted(deep) == list(range(1, _MAX_WEIGHT + 1))
        assert shallow[1].tobytes() == deep[1].tobytes(), word
        _assert_traces_within(shallow[1], np.trace(_numpy_products(word, mats, cs),
                                                   axis1=1, axis2=2))


@pytest.mark.parametrize("name,n,t", [("prop3_u", 3, None), ("int4", 3, 3), ("odd3", 2, 2)])
def test_spare_arrays_change_no_bit_of_a_table(name, n, t):
    """Products written by turns into two spare arrays, used again for every
    word, give the tables of products made in new arrays, bit for bit."""
    layout = proposition_layout(name, n, t)
    cs = _random_matrices(np.random.default_rng(SEED + n), n)
    mats = [_sampled(layout.matrix_kind, _worker_rng(SEED, 80 + i), 300) for i in range(n)]
    spare = (np.empty((3, 3, 300), dtype=complex), np.empty((3, 3, 300), dtype=complex))
    for _ in range(2):
        for _, word in layout.factors:
            for depth in (1, _MAX_WEIGHT):
                got = _word_traces_table(word, mats, cs, depth, spare)
                want = _word_traces_table(word, mats, cs, depth)
                assert got.keys() == want.keys()
                for m in want:
                    assert got[m].tobytes() == want[m].tobytes(), (word, depth, m)


def _random_matrices(rng, count, size=3):
    return [rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            for _ in range(count)]


@pytest.mark.parametrize("relation", LEMMA_RELATIONS)
def test_trace_tables_match_the_direct_products(relation):
    """The words of each relation's layout, with C1 = B and C0 = A in the
    paired word Z1 C1 Z1^dag C0 and C1 = A, C0 = B in the split words Z1 C1 and
    Z1^dag C0, spell A M B M^dag, or A M and M^dag B."""
    layout = _RELATIONS[relation]
    words = [word for _, word in layout.factors]
    a, b = _random_matrices(np.random.default_rng(SEED), 2)
    cs = (b, a) if len(words) == 1 else (a, b)
    [tables] = _word_traces(layout.matrix_kind, words, cs, 1, 3, 500, SEED, _MAX_WEIGHT)
    mats = np.moveaxis(_sampled(layout.matrix_kind, _worker_rng(SEED, 0), 500)[0], -1, 0)
    dag = mats.conj().swapaxes(-2, -1)
    if len(words) == 1:
        [table] = tables
        _assert_traces_close(table, _power_traces(a @ mats @ b @ dag, _MAX_WEIGHT))
    else:
        _assert_traces_close(tables[0], _power_traces(a @ mats, _MAX_WEIGHT))
        _assert_traces_close(tables[1], _power_traces(dag @ b, _MAX_WEIGHT))


@pytest.mark.parametrize("name,n,t", [("int4", 3, 3), ("prop3_u", 3, None), ("odd3", 2, 2)])
def test_layout_words_match_products_in_word_order(name, n, t):
    """Each word's product, letter by letter in word order, against numpy's
    matmul and matrix powers, with C matrices that do not commute: the
    default diagonal ones cannot tell a word from its letters reordered.  The
    chunks, of 4 168, 4 167 and 4 167 samples, are evaluated in one block of
    arrays sized for the first, the later two in views one sample narrower."""
    layout = proposition_layout(name, n, t)
    cs = _random_matrices(np.random.default_rng(SEED + n), n)
    words = [word for _, word in layout.factors]
    samples = 2 * _CHUNK + 2
    widths = _chunks(samples, 3)
    assert widths == [4_168, 4_167, 4_167]
    chunks = _word_traces(layout.matrix_kind, words, cs, n, 3, samples, SEED, _MAX_WEIGHT)
    for chunk, (width, tables) in enumerate(zip(widths, chunks, strict=True)):
        rng = _worker_rng(SEED, chunk)
        mats = [_sampled(layout.matrix_kind, rng, width) for _ in range(n)]
        for word, table in zip(words, tables):
            _assert_traces_close(table, _power_traces(_numpy_products(word, mats, cs),
                                                      _MAX_WEIGHT))


@pytest.mark.parametrize("name,n,t", [("prop2_u", 2, None), ("int4", 3, 3)])
def test_sliced_chunks_equal_the_whole_chunk(name, n, t):
    """The pipeline evaluates each chunk in a slice of one block of arrays
    sized for the widest chunk, with its products in two spare arrays used by
    turns; its tables are bit for bit those of the words evaluated on the
    whole chunk in new arrays.  The chunks here, 2 S + 2 samples split in three
    for chunks of at most S, differ in width, so the later two are narrower
    slices of the block."""
    layout = proposition_layout(name, n, t)
    cs = _random_matrices(np.random.default_rng(SEED + n), n)
    words = [word for _, word in layout.factors]
    widths = _chunks(2 * _CHUNK + 2, 3)
    assert widths == [4_168, 4_167, 4_167]
    got = _word_traces(layout.matrix_kind, words, cs, n, 3, sum(widths), SEED, _MAX_WEIGHT)
    for chunk, (width, tables) in enumerate(zip(widths, got, strict=True)):
        rng = _worker_rng(SEED, chunk)
        mats = [_sampled(layout.matrix_kind, rng, width) for _ in range(n)]
        for word, table in zip(words, tables):
            want = _word_traces_table(word, mats, cs, _MAX_WEIGHT)
            assert table.keys() == want.keys()
            for m in want:
                assert table[m].tobytes() == want[m].tobytes(), (name, chunk, word, m)


def test_workers_change_no_bit_of_an_estimate():
    """A run's chunks and their streams depend on samples alone, so workers
    changes no bit of (mean, stderr), on both entry points."""
    for relation in ("sAUBU-1", "sAZZ+B"):
        got = set()
        for workers in (1, 3, 4, 64):
            _trace_slot.clear()
            est = mc_schur_moment(relation, (2, 1), 3, samples=20_001, seed=SEED,
                                  workers=workers).estimate
            got.add((est.mean, est.stderr))
        assert len(got) == 1, relation
    got = {(est.mean, est.stderr) for est in (
        mc_proposition_check("int4", 3, 3, degree=2, samples=20_001, seed=SEED, t=3,
                             workers=workers).estimate for workers in (1, 3, 4, 64))}
    assert len(got) == 1


def _counting_draws(monkeypatch):
    """Patch the chunk streams to record the number of every chunk drawn."""
    draws = []
    stream = matrixmc._worker_rng
    monkeypatch.setattr(matrixmc, "_worker_rng",
                        lambda seed, chunk: draws.append(chunk) or stream(seed, chunk))
    return draws


def test_no_drawing_thread_outlives_a_call():
    start = threading.active_count()
    _trace_slot.clear()
    mc_schur_moment("sAUBU-1", (2,), 3, samples=10_000, seed=SEED)
    assert threading.active_count() == start
    mc_proposition_check("prop2_u", 1, 3, samples=10_000, seed=SEED)
    assert threading.active_count() == start


def _drawing_threads():
    return [t for t in threading.enumerate() if t.name == "hurwitzkit-mc-draw"]


def test_closing_the_pipeline_early_starts_no_further_draw(monkeypatch):
    """At most one chunk is drawn ahead of the one the caller holds; closing
    the generator waits for that draw, starts none of the rest and joins the
    drawing thread.  The draw ahead is slowed down, so it is still running
    when the generator closes."""
    draws = _counting_draws(monkeypatch)
    ginibre = matrixmc._ginibre_batch

    def slow_ahead(rng, batch, size):
        time.sleep(0.2 if len(draws) > 1 else 0)
        return ginibre(rng, batch, size)

    monkeypatch.setattr(matrixmc, "_ginibre_batch", slow_ahead)
    layout = _RELATIONS["sAUBU-1"]
    words = [word for _, word in layout.factors]
    cs = _random_matrices(np.random.default_rng(SEED), 2)
    assert not _drawing_threads()
    chunks = _word_traces("unitary", words, cs, 1, 3, 40_000, SEED, 2)
    next(chunks)
    assert draws in ([0], [0, 1])
    [drawing] = _drawing_threads()
    chunks.close()
    assert not drawing.is_alive() and not _drawing_threads()
    assert draws == [0, 1]
    time.sleep(0.3)  # time for a draw that close() had failed to stop
    assert draws == [0, 1]


def test_a_failed_draw_is_raised_by_the_call(monkeypatch):
    def fail(rng, batch, size):
        raise MemoryError("no room for the draw")

    monkeypatch.setattr(matrixmc, "_ginibre_batch", fail)
    start = threading.active_count()
    _trace_slot.clear()
    with pytest.raises(MemoryError, match="no room"):
        mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, seed=SEED)
    assert threading.active_count() == start
    assert not _trace_slot


def test_haar_first_moments():
    rng = _worker_rng(SEED, 3)
    batch = np.moveaxis(_haar_batch(_ginibre_batch(rng, 30_000, 3))[0], -1, 0)
    mean_entry = batch.mean(axis=0)
    assert np.abs(mean_entry).max() < 5 / np.sqrt(30_000 / 3)
    second = (np.abs(batch[:, 0, 0]) ** 2).mean()
    stderr = (np.abs(batch[:, 0, 0]) ** 2).std(ddof=1) / np.sqrt(30_000)
    assert abs(second - 1 / 3) < 5 * stderr  # E|U_11|^2 = 1/N


def test_chunk_widths_lie_between_half_a_chunk_and_a_chunk():
    """Every admitted run is split into ceil(samples / _CHUNK) near-equal
    chunks, none wider than _CHUNK and none narrower than half of it, so
    memory is bounded by one chunk whatever samples is.  Checked at every
    multiple of _CHUNK, one sample either side, and on a stride between."""
    assert _chunks(10, 4) == [3, 3, 2, 2]
    assert _chunks(3, 4) == [1, 1, 1]
    lo, hi = LIMITS["mc samples"].least, LIMITS["mc samples"].most
    assert (lo, hi) == (10**4, 10**6)
    edges = {m * _CHUNK + e for m in range(1, hi // _CHUNK + 1) for e in (-1, 0, 1)}
    for samples in sorted({lo, hi} | set(range(lo, hi + 1, 997)) | edges):
        if lo <= samples <= hi:
            widths = _chunks(samples, -(-samples // _CHUNK))
            assert sum(widths) == samples
            assert _CHUNK // 2 <= min(widths) <= max(widths) <= _CHUNK, samples


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
    with pytest.raises(ValidationError, match="2 C matrices"):
        mc_proposition_check("chekhov", 1, 3, c_matrices=[np.eye(3)])
    with pytest.raises(GuardError):
        mc_proposition_check("prop1", 1, 2, samples=1)
    with pytest.raises(ValidationError):
        mc_proposition_check("prop1", 1, 2, degree=0)
    with pytest.raises(ValidationError):
        mc_proposition_check("prop1", 1, 0)
    for n in (9, 160):
        with pytest.raises(GuardError, match="n <= 8"):
            mc_proposition_check("prop2", n, 3, degree=1, samples=10_000)
    with pytest.raises(ValidationError):
        mc_schur_moment("sAUBU-1", (1,), 0, samples=10_000)
    # Both guards fire before any chunk is sized or drawn.
    for workers in (65, 10**12):
        with pytest.raises(GuardError, match="workers"):
            mc_schur_moment("sAUBU-1", (1,), 2, samples=10_000, workers=workers)
        with pytest.raises(GuardError, match="workers"):
            mc_proposition_check("prop1", 1, 2, samples=10_000, workers=workers)
    for samples in (10**6 + 1, 10**15):
        with pytest.raises(GuardError, match="samples"):
            mc_schur_moment("sAUBU-1", (1,), 2, samples=samples)
        with pytest.raises(GuardError, match="samples"):
            mc_proposition_check("prop1", 1, 2, samples=samples)


def test_seeds_cover_the_unsigned_64_bit_range():
    """SeedSequence takes any non-negative integer, so _check_stream alone
    bounds the seed, on both entry points."""
    for seed in (0, 2**64 - 1):
        assert mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, seed=seed).estimate.seed == seed
        assert mc_proposition_check("prop2", 1, 2, degree=1, samples=10_000,
                                    seed=seed).estimate.seed == seed
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match=r"seed must satisfy 0 <= seed < 2\^64"):
            mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, seed=seed)
        with pytest.raises(ValidationError, match=r"seed must satisfy 0 <= seed < 2\^64"):
            mc_proposition_check("prop2", 1, 2, degree=1, samples=10_000, seed=seed)


@pytest.mark.parametrize("relation", ["sAUBU-1", "sAZBZ+"])
def test_paired_relations_reject_a_different_mu(relation):
    for mu in ((1, 1), (1,)):
        with pytest.raises(ValidationError, match="mu must equal lambda"):
            mc_schur_moment(relation, (2,), 2, samples=10_000, mu=mu)
    cmp = mc_schur_moment(relation, (2,), 2, samples=10_000, mu=(2,))
    assert cmp == mc_schur_moment(relation, (2,), 2, samples=10_000)


def test_test_matrices_are_validated():
    good = np.eye(2, dtype=complex)
    bad = [np.eye(3), np.ones((1, 4)), np.ones(4), np.array([[1, np.nan], [0, 1]]),
           np.array([[1, 0], [np.inf, 1]]), [["a", "b"], ["c", "d"]]]
    for matrix in bad:
        with pytest.raises(ValidationError):
            mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, a_matrix=matrix)
        with pytest.raises(ValidationError):
            mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, b_matrix=matrix)
        with pytest.raises(ValidationError):
            mc_proposition_check("prop2", 2, 2, samples=10_000, c_matrices=[good, matrix])


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


def test_every_layout_passes_a_small_gate():
    """Each layout's word-built integrand against its exact series, at n = 2
    (n = 3 for int6_odd_u), t = 2 (t = 1 where t must be odd; no t where the
    layout fixes it) and degree 2; chekhov's constant takes the test matrix
    after C1 ... Cn."""
    from hurwitzkit.genfun import LAYOUT_NAMES

    for name in LAYOUT_NAMES:
        n = 3 if name == "int6_odd_u" else 2
        t = {"int3": 2, "int5": 2, "odd3": 2, "int4": 1, "int6": 1, "odd4": 1}.get(name)
        cmp = mc_proposition_check(name, n, 2, degree=2, samples=10_000, seed=SEED, t=t)
        assert cmp.passed, (name, cmp.sigmas)


# Means recorded on the SFC64 streams of the fixed chunks, (seed, chunk
# number), each batch filled in place.  A kernel that reassigns draws moves a
# mean by O(stderr), far beyond 1e-12; rounding-level kernel changes stay
# below it.
PINNED_MEANS = {
    "sAUBU-1": ("0x1.04b56431dfecep+6", "0x1.45edce0518ca2p+5"),
    "sAUU-1B": ("0x1.05fa30af369d4p+3", "0x1.51020ab496d0bp+2"),
    "sAZBZ+": ("0x1.84ad37d7414a4p+10", "0x1.e665baf275867p+9"),
    "sAZZ+B": ("0x1.7cad7b1d753d0p+7", "0x1.ea9cefea60d2cp+6"),
    "int4": ("0x1.3f77fb1f5a2b8p+5", "0x1.773a158c715b3p+4"),
}


def test_means_are_pinned_to_the_sample_stream():
    got = {relation: mc_schur_moment(relation, (2, 1), 3, samples=10_000)
           for relation in LEMMA_RELATIONS}
    got["int4"] = mc_proposition_check("int4", 3, 3, t=3)
    for name, (re, im) in PINNED_MEANS.items():
        want = complex(float.fromhex(re), float.fromhex(im))
        assert abs(got[name].estimate.mean - want) <= 1e-12 * abs(want), name


def test_stderr_of_a_constant_integrand_is_rounding_free():
    """det(AB) is the same for every draw, so the spread is zero; the
    centred merge keeps the stderr at rounding level of the mean."""
    cmp = mc_schur_moment("sAUU-1B", (1, 1, 1), 3, samples=100_000, seed=90_003)
    assert cmp.estimate.stderr <= 1e-12 * abs(cmp.estimate.mean)


def test_proposition_wick_degree_one():
    """E tr(Z C Z^dag) = N tr C: the degree-one coefficient of the one-matrix
    single-tau layout."""
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
    z = np.moveaxis(_ginibre_batch(rng, 30_000, size), -1, 0)
    vals = np.einsum("bij,jk,bik->b", z, c, z.conj())
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 5 * stderr


# --- the kept trace table ------------------------------------------------------

WEIGHT_3 = [lam for d in (1, 2, 3) for lam in partitions_of(d)]


def _bits(cmp):
    return (cmp.estimate.mean, cmp.estimate.stderr, cmp.exact, cmp.sigmas)


@pytest.mark.parametrize("relation", LEMMA_RELATIONS)
def test_kept_table_gives_the_fresh_results(relation):
    def moment(lam):
        return mc_schur_moment(relation, lam, 3, samples=10_000, seed=SEED, workers=3)

    fresh = {}
    for lam in WEIGHT_3:
        _trace_slot.clear()
        fresh[lam] = _bits(moment(lam))
    for order in (WEIGHT_3, WEIGHT_3[::-1]):
        _trace_slot.clear()
        for lam in order:
            assert _bits(moment(lam)) == fresh[lam], (relation, lam)
            assert len(_trace_slot) == 1


def test_kept_table_is_reused_only_for_the_same_draws(monkeypatch):
    draws = _counting_draws(monkeypatch)

    def moment(lam=(2,), **kwargs):
        args = dict(relation="sAUU-1B", size=2, samples=10_000, seed=SEED, workers=2)
        args.update(kwargs)
        draws.clear()
        mc_schur_moment(lam=lam, **args)
        assert len(_trace_slot) <= 1
        return len(draws)

    # 10 000 samples are 2 chunks, 12 501 are 3; workers changes no draw.
    _trace_slot.clear()
    assert moment((1,)) == 2          # p_1 only
    assert moment((1,)) == 0
    assert moment((2, 1)) == 2        # needs more than p_1: drawn once more
    for lam in WEIGHT_3:
        assert moment(lam) == 0
    assert moment((1,), mu=(1,)) == 0
    assert moment((2,), mu=(1, 1)) == 0
    assert moment(a_matrix=2 * np.eye(2)) == 2
    assert moment(a_matrix=2 * np.eye(2)) == 0
    assert moment() == 2
    assert moment(b_matrix=np.eye(2)) == 2
    assert moment(seed=SEED + 1) == 2
    assert moment(samples=12_501) == 3
    assert moment() == 2
    for workers in (1, 3, 64):
        assert moment(workers=workers) == 0
    assert moment(relation="sAZZ+B", workers=3) == 2
    assert moment(relation="sAZZ+B", size=3) == 2
    assert moment(relation="sAZZ+B", size=3, workers=1) == 0


def test_proposition_check_empties_the_slot():
    mc_schur_moment("sAUBU-1", (2,), 2, samples=10_000, seed=SEED)
    assert len(_trace_slot) == 1
    mc_proposition_check("prop2", 1, 2, degree=1, samples=10_000, seed=SEED)
    assert len(_trace_slot) == 0


def test_cache_stats_and_clear_caches():
    # A profile other than the identity reaches the character columns.
    hurwitzkit.hurwitz_value(1, 5, [(2, 1, 1, 1)])
    mc_schur_moment("sAZBZ+", (1,), 2, samples=10_000, seed=SEED)
    stats = hurwitzkit.cache_stats()
    # The whole inventory, so a new memo cache is a visible edit here.
    assert sorted(stats) == [
        "characters._column", "characters.class_column",
        "matrixmc.trace_slot", "oracle._class_pairs", "oracle._commutator_counts",
        "oracle._square_counts", "partitions._class_size",
        "partitions.partitions_of", "symfunc.complete_homogeneous", "symfunc.schur_poly",
    ]
    assert stats["matrixmc.trace_slot"] == 1
    assert stats["characters._column"] > 0 and stats["partitions.partitions_of"] > 0
    hurwitzkit.clear_caches()
    stats = hurwitzkit.cache_stats()
    assert stats and set(stats.values()) == {0}


def test_proposition_check_expands_no_profile_series(monkeypatch):
    """The exact side sums each partition's weight times its Schur values
    (`PropositionLayout.value`), so even n = 8 at degree 3 is cheap."""
    from hurwitzkit import genfun

    def refuse(*args, **kwargs):
        raise AssertionError("the MC exact side expanded a profile series")

    monkeypatch.setattr(genfun, "hypergeometric_series", refuse)
    monkeypatch.setattr(genfun, "ProfileSeries", refuse)
    for name, n, degree in (("prop1", 8, 3), ("prop2_u", 2, 2), ("odd4", 3, 2)):
        t = 3 if name == "odd4" else None
        assert mc_proposition_check(name, n, 3, degree=degree, samples=10_000, seed=SEED,
                                    t=t).passed, name
