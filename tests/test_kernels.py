"""Determinism and contracts of the hot kernels."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import _cache, _kernels


def _case(J=400, P=97, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(J)
    b = rng.standard_normal(J)
    t = rng.uniform(0, 2 * np.pi, P)
    return np.arange(J), a, b, t


def test_deterministic_reruns():
    ks, a, b, t = _case()
    first = _kernels.point_series(ks, a, b, t)
    second = _kernels.point_series(ks, a, b, t)
    assert np.array_equal(first, second)


def test_dft_rejects_even_length():
    with pytest.raises(ValueError):
        _kernels.dft(np.zeros(4))


DFT_REFERENCE = Path(__file__).parent / "data" / "dft_reference.json"


@pytest.mark.parametrize("entry", json.loads(DFT_REFERENCE.read_text())["configs"],
                         ids=lambda entry: f"n{entry['n']}")
def test_dft_is_within_4eps_of_the_40_digit_sum(entry):
    # tools/dft_reference.py sums the same samples at 40 digits; the phase
    # is exact, so only the table entries and the sum itself round.
    values = np.array(entry["values"])
    assert values.shape == (2 * entry["n"] + 1,)
    _, a, b = _kernels.dft(values)
    tol = 4.0 * np.finfo(float).eps * float(entry["abs_scale"])
    for row in entry["coefficients"]:
        k = row["k"]
        assert abs(a[k - 1] - float(row["a"])) <= tol
        assert abs(b[k - 1] - float(row["b"])) <= tol


def _dft_entries():
    # The store's DFT entries: N -> stacked matrix.
    return {key[0]: value[0] for (build, key), (value, _) in _cache._entries.items()
            if build is _kernels._dft_matrix}


def test_dft_phase_cache_stays_within_its_bound(cache_patch):
    # A grid's stacked (2n+1, N) matrix (a row of ones, the n cos rows, the
    # n sin rows) is one entry of the store when its 8 N^2 bytes fit its
    # budget, so n = 1023 is the largest grid stored: n = 1024 is gathered
    # per call and leaves the store as it was, while n = 256 is stored
    # whole and a repeat call reads it, building no table.
    assert 8 * 2047**2 <= _cache._BUDGET < 8 * 2049**2
    values = np.random.default_rng(256).standard_normal(513)
    cold = _kernels.dft(values)
    entries = _dft_entries()
    assert list(entries) == [513]
    stacked = entries[513]
    assert stacked.shape == (513, 513) and np.all(stacked[0] == 1.0)
    assert not stacked.flags.writeable
    assert _cache.stored_bytes() == stacked.nbytes == 8 * 513 * 513
    stored = dict(_cache._entries)
    big = np.random.default_rng(1024).standard_normal(2049)
    first = _kernels.dft(big)
    assert _cache._entries == stored and _cache.stored_bytes() == 8 * 513 * 513
    with mock.patch.object(_kernels, "_phase_table", side_effect=AssertionError):
        warm = _kernels.dft(values)
    for got, want in ((_kernels.dft(big), first), (warm, cold)):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_point_series_pure_harmonic():
    # A unit cosine coefficient, among zero terms, reads cos(2t) itself.
    t = np.linspace(0, 2 * np.pi, 11, endpoint=False)
    vals = _kernels.point_series([1, 2], [0.0, 1.0], [0.0, 0.0], t)
    assert np.array_equal(vals, np.cos(2 * t))


def test_point_series_readonly_inputs():
    ks, a, b, t = _case(J=16, P=5)
    for arr in (ks, a, b, t):
        arr.setflags(write=False)
    vals = _kernels.point_series(ks, a, b, t)
    assert vals.shape == t.shape


def _point_loop(ks, a, b, t):
    # The definition of the summation order: term i's a_i cos(k_i t) +
    # b_i sin(k_i t) at the rounded phase k_i t, added to the running sum
    # one term after another.
    out = np.zeros(np.shape(t))
    for k, x, y in zip(ks, a, b):
        out = out + (x * np.cos(k * t) + y * np.sin(k * t))
    return out


@pytest.mark.parametrize("P", [1, 2, 97, 70_000])
def test_point_series_bits_depend_on_neither_blocks_nor_shape(P, cache_patch):
    # One row per block, the points as a column, and each point alone give
    # the bits of the default blocks, which are the term loop's.
    rng = np.random.default_rng(P)
    ks = rng.integers(0, 400, 40)
    a, b = rng.standard_normal((2, ks.size)) * 10.0 ** rng.integers(-6, 6, (2, ks.size))
    t = np.concatenate(([0.0, np.pi, -np.pi], rng.uniform(-20.0, 20.0, P)))[:P]
    values = _kernels.point_series(ks, a, b, t)
    assert np.array_equal(values, _point_loop(ks, a, b, t))
    column = _kernels.point_series(ks, a, b, t.reshape(-1, 1))
    assert column.shape == (P, 1) and np.array_equal(column[:, 0], values)
    for i in range(min(P, 5)):
        alone = _kernels.point_series(ks, a, b, t[i])
        assert alone.shape == () and alone.tobytes() == values[i].tobytes()
    cache_patch.setattr(_kernels, "_GRID_CELLS", 1)
    assert np.array_equal(_kernels.point_series(ks, a, b, t), values)


def test_point_series_of_no_terms_or_no_points_is_empty_sum():
    assert np.array_equal(_kernels.point_series([], [], [], [0.5, 1.0]), [0.0, 0.0])
    assert _kernels.point_series([1, 2], [1.0, 2.0], [0.0, 1.0], np.zeros((0, 3))).shape == (0, 3)


GRID_REFERENCE = Path(__file__).parent / "data" / "harmonic_grid_reference.json"


@pytest.mark.parametrize("entry", json.loads(GRID_REFERENCE.read_text())["configs"],
                         ids=lambda entry: f"G{entry['G']}")
def test_grid_series_is_within_its_contract_of_the_40_digit_sum(entry):
    # tools/harmonic_grid_reference.py sums the same terms at 40 digits, k
    # up to 4G. The contract is (3 + M/2) eps sum_k (|a_k| + |b_k|) for M
    # terms; the exact phases keep every fixture value within 1 eps of that
    # scale (0.12-0.34 eps here), where rounded phases k * (2 pi g/G) are
    # 24 eps off at G = 17 and 13,000 eps at G = 2^14.
    G, ks = entry["G"], np.array(entry["k"])
    values = _kernels.grid_series(ks, np.array(entry["a"]), np.array(entry["b"]), G)
    assert values.shape == (G,)
    scale = np.finfo(float).eps * float(entry["abs_scale"])
    errors = np.abs(values[entry["points"]] - np.array(entry["values"], dtype=float))
    assert np.all(errors <= (3 + ks.size / 2) * scale)
    assert np.all(errors <= scale)


def _term_loop(ks, a, b, G):
    # The definition of the summation order: term i's a_i C + b_i S, added
    # to the running sum one term after another, from the table at k g mod G.
    cos, sin = _kernels._phase_table(G)
    out = np.zeros(G)
    for k, x, y in zip(ks, a, b):
        m = k * np.arange(G) % G
        out = out + (x * cos[m] + y * sin[m])
    return out


@pytest.mark.parametrize("G", [1, 2, 3, 17, 128, 129, 4096, 1 << 14, (1 << 14) + 3])
def test_grid_series_bits_depend_on_neither_blocks_nor_the_store(G, cache_patch):
    # Blocks of one row each and a store that keeps nothing give the bits of
    # the default blocks and stored table, which are the term loop's. From
    # G = 2^14 up a default block holds one row too.
    rng = np.random.default_rng(G)
    ks = rng.integers(0, 5 * G, 40)
    a, b = rng.standard_normal((2, ks.size)) * 10.0 ** rng.integers(-6, 6, (2, ks.size))
    values = _kernels.grid_series(ks, a, b, G)
    assert np.array_equal(values, _term_loop(ks, a, b, G))
    cache_patch.setattr(_kernels, "_GRID_CELLS", 1)
    assert np.array_equal(_kernels.grid_series(ks, a, b, G), values)
    cache_patch.setattr(_cache, "_BUDGET", 0)
    _cache.clear()
    assert np.array_equal(_kernels.grid_series(ks, a, b, G), values)
    assert _cache.stored_bytes() == 0


@st.composite
def _grid_terms(draw):
    # A grid of G in 1..70, 4094..4098 or 2^14 +- 2 and up to 8 terms at
    # k = qG + r >= G for some, with r = 0 and r = G/2 among the residues;
    # coefficients of any sign, signed zeros and subnormals among them,
    # with magnitudes from 1e-300 to 1e300.
    G = draw(st.one_of(st.integers(1, 70), st.integers(4094, 4098),
                       st.integers((1 << 14) - 2, (1 << 14) + 2)))
    residues = st.one_of(st.just(0), st.just(G // 2), st.integers(0, G - 1))
    ks = draw(st.lists(st.builds(lambda q, r: q * G + r, st.integers(0, 4), residues),
                       max_size=8))
    coefficients = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320]),
        st.builds(lambda x, e: x * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 300)))
    a = draw(st.lists(coefficients, min_size=len(ks), max_size=len(ks)))
    b = draw(st.lists(coefficients, min_size=len(ks), max_size=len(ks)))
    return np.array(ks, dtype=np.int64), np.array(a, dtype=float), np.array(b, dtype=float), G


@settings(max_examples=80, deadline=None)
@given(_grid_terms())
def test_grid_series_has_the_bits_of_the_term_loop(case):
    # Even grids read half their phases and add each term to both halves,
    # blocks of one row are added in place and larger ones reduced, and
    # the table may be stored or built for the call: the bits are the term
    # loop's in every case, signed zeros included.
    ks, a, b, G = case
    want = _term_loop(ks, a, b, G).tobytes()
    assert _kernels.grid_series(ks, a, b, G).tobytes() == want
    with mock.patch.object(_kernels, "_GRID_CELLS", 1):
        assert _kernels.grid_series(ks, a, b, G).tobytes() == want
    with mock.patch.object(_cache, "_BUDGET", 0):
        _cache.clear()
        assert _kernels.grid_series(ks, a, b, G).tobytes() == want
        assert _cache.stored_bytes() == 0


# Grid sizes for the phase table's identities: every G up to 600 and a few
# large ones, powers of two and not.
_TABLE_SIZES = [*range(1, 601), 4094, 4095, 4096, 4097, 4098, 1 << 14, 1 << 16, 3 << 15, 10**6]


def _bits(x):
    return np.asarray(x).view(np.uint64)


def test_phase_table_half_turn_is_an_exact_negation_on_every_even_grid():
    # Entry m + G/2 is minus entry m, bit for bit (signed zeros too): what
    # lets grid_series read half the phases of an even grid.
    for G in (G for G in _TABLE_SIZES if G % 2 == 0):
        cos, sin = _kernels._phase_table(G)
        turned = (np.arange(G) + G // 2) % G
        assert np.array_equal(_bits(cos[turned]), _bits(-cos)), G
        assert np.array_equal(_bits(sin[turned]), _bits(-sin)), G


def test_phase_table_quarter_turn_holds_where_four_divides_G():
    # Entry m + G/4 is entry m turned a quarter, (-sin, cos), bit for bit.
    for G in (G for G in _TABLE_SIZES if G % 4 == 0):
        cos, sin = _kernels._phase_table(G)
        turned = (np.arange(G) + G // 4) % G
        assert np.array_equal(_bits(cos[turned]), _bits(-sin)), G
        assert np.array_equal(_bits(sin[turned]), _bits(cos)), G


def _eighths(G):
    # The 45-degree entries m = G/8, 3G/8, 5G/8, 7G/8 of a grid 8 divides.
    return [G // 8 * i for i in (1, 3, 5, 7)]


def test_phase_table_reflection_holds_only_where_eight_does_not_divide_G():
    # Entries m and G - m are conjugates in value (a zero's sign aside)
    # unless 8 divides G; then they differ at the four 45-degree entries
    # alone. Every odd grid, the DFT's among them, has the reflection.
    for G in _TABLE_SIZES:
        cos, sin = _kernels._phase_table(G)
        m = np.arange(G)
        broken = (cos[-m % G] != cos) | (sin[-m % G] != -sin)
        assert m[broken].tolist() == (_eighths(G) if G % 8 == 0 else []), G


def test_phase_table_45_degree_entries_mix_the_rounded_cos_and_sin():
    # At G = 2^14 the angle at m = 2048 and m = 14336 is the rounded -pi/4,
    # reached from the quarter turns q = 1 and q = 0: their cosines are the
    # rounded sin(pi/4) and cos(pi/4), one ulp apart.
    cos, sin = _kernels._phase_table(1 << 14)
    assert (cos[2048], sin[2048]) == (0.7071067811865475, 0.7071067811865476)
    assert (cos[14336], sin[14336]) == (0.7071067811865476, -0.7071067811865475)
    assert np.cos(np.pi / 4) == 0.7071067811865476 and np.sin(np.pi / 4) == 0.7071067811865475


def test_grid_series_blocks_stay_small():
    # A warm call at G = 2^14 with 65 terms holds at most 8 arrays of G
    # doubles at once (6 here, 4 with blocks of one row, since an even
    # grid's terms are formed at half its points); blocks of 2^15 cells
    # would hold more, and the heap would map them afresh on each call.
    G = 1 << 14
    ks = np.arange(65)
    a, b = np.random.default_rng(65).standard_normal((2, ks.size))
    _kernels.grid_series(ks, a, b, G)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _kernels.grid_series(ks, a, b, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * G


def test_grid_series_keeps_one_read_only_table_per_grid(cache_patch):
    _kernels.grid_series([1, 5], [1.0, 2.0], [0.5, 0.0], 129)
    cos, sin = _kernels.grid_phases(7, 129)
    (build, key), (table, size) = next(iter(_cache._entries.items()))
    assert len(_cache._entries) == 1 and (build, key) == (_kernels._phase_table, (129,))
    assert size == _cache.stored_bytes() == 16 * 129
    assert not any(part.flags.writeable for part in table)
    m = 7 * np.arange(129) % 129
    assert np.array_equal(cos, table[0][m]) and np.array_equal(sin, table[1][m])
    # A unit cosine or sine coefficient reads the table entries themselves.
    assert np.array_equal(_kernels.grid_series([7], [1.0], [0.0], 129), cos)
    assert np.array_equal(_kernels.grid_series([7], [0.0], [1.0], 129), sin)
    assert len(_cache._entries) == 1


@pytest.mark.parametrize("G", [0, -1, 2**32 + 1, 2**64, 2.5, float("nan"), [3]])
def test_grid_series_refuses_a_bad_grid_before_allocating(G):
    with mock.patch.object(_kernels._cache, "get", side_effect=AssertionError):
        with pytest.raises(ValueError, match="grid size G"):
            _kernels.grid_series([1], [1.0], [0.0], G)
        with pytest.raises(ValueError, match="grid size G"):
            _kernels.grid_phases(1, G)


def test_grid_series_refuses_mismatched_terms():
    for ks, a, b in (([1, 2], [1.0], [0.0]), ([[1]], [[1.0]], [[0.0]]), ([-1], [1.0], [0.0])):
        with pytest.raises(ValueError):
            _kernels.grid_series(ks, a, b, 17)
        with pytest.raises(ValueError):
            _kernels.point_series(ks, a, b, [0.5])


@pytest.mark.parametrize("G", [2**32 - 1, 2**32])
def test_phase_index_is_exact_near_the_largest_grid(G):
    # The reduction k g mod G at indices near G, where the product nears
    # 2^64, against Python's integers; only these few cells are allocated.
    near = [0, 1, 2, 3, G // 2, G // 2 + 1, G - 3, G - 2, G - 1]
    k = np.array(near, dtype=np.uint64)
    got = _kernels._phase_index(k, k, G)
    assert got.dtype == np.int64
    assert got.tolist() == [[i * j % G for j in near] for i in near]
