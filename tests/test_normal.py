"""The C core's normal draws (``fp_normal``, through ``kernels._normal``):
numpy's ``Generator.standard_normal`` byte for byte, and the state it leaves."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fpmimo import _core
from fpmimo.kernels import _NORMAL_SPLIT, _normal, _split_normal

# fp_normal's MIN_PIECE: a round cuts the draws left into pieces of at least
# this many words
MIN_PIECE = 1 << 13

# The tail of numpy's ziggurat starts at this magnitude.
ZIGGURAT_R = 3.6541528853610088


def _equal(a, b):
    """Bit generator states a and b are equal, key by key (some hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _same(rng, other, draw, shape):
    """draw(rng) has the bytes and leaves the state of other.standard_normal."""
    want = other.standard_normal(shape)
    got = draw(rng)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert _equal(rng.bit_generator.state, other.bit_generator.state)
    return got


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


SHAPES = [
    (),
    (0,),
    (3, 0, 5),
    (1,),
    (7,),
    (_NORMAL_SPLIT - 1,),
    (_NORMAL_SPLIT,),
    (_NORMAL_SPLIT + 1,),
    (3, 7, 1001),
    (2, 3, 5, 7, 11, 13),
]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_normal_is_standard_normal(shape, seed):
    _same(*_pair(seed), lambda g: _normal(g, shape), shape)


@pytest.mark.parametrize("seed", range(3))
def test_large_draws_run_the_tail(seed):
    x = _same(*_pair(seed), lambda g: _normal(g, (1_000_003,)), (1_000_003,))
    assert np.abs(x).max() > ZIGGURAT_R


def test_state_with_a_buffered_uint32_is_kept():
    rng, other = _pair(11)
    for g in (rng, other):
        g.integers(0, 2**32, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    shape = (_NORMAL_SPLIT * 3 + 1,)
    _same(rng, other, lambda g: _normal(g, shape), shape)
    _same(rng, other, lambda g: _split_normal(g, shape, 2), shape)
    assert rng.integers(0, 2**32, dtype=np.uint32) == other.integers(0, 2**32, dtype=np.uint32)


@pytest.mark.parametrize("pieces", [1, 2, 3, 8, 64])
@pytest.mark.parametrize(
    "n", [1, 7, MIN_PIECE, 2 * MIN_PIECE - 1, 2 * MIN_PIECE, 3 * MIN_PIECE + 1, 64 * MIN_PIECE + 3]
)
def test_every_piece_count_gives_the_bytes_of_one(pieces, n):
    """Below, at and above the size of a round; 64 pieces is also fp_normal's cap."""
    for seed in range(4):
        _same(*_pair(seed), lambda g: _split_normal(g, (n,), pieces), (n,))


@pytest.mark.parametrize("pieces", [0, -1, 65, 1000])
def test_piece_counts_outside_the_cap_are_clamped(pieces):
    n = 70 * MIN_PIECE
    _same(*_pair(5), lambda g: _split_normal(g, (n,), pieces), (n,))


@pytest.mark.parametrize("seed, word", [(0, 10819), (0, 18812), (1, 11921), (2, 23568)])
@pytest.mark.parametrize("pieces", [2, 3])
def test_a_piece_that_misses_the_true_chain_is_drawn_again(seed, word, pieces):
    """At these words of these seeds' streams, a sample of one thread ends a
    word or two past them, and the draws decoded from the word itself skip
    the word it ends at, so the piece that starts there finds no sample of
    the true chain among its first and is drawn again from the true start."""
    n = pieces * word  # the second piece starts at `word`
    _same(*_pair(seed), lambda g: _split_normal(g, (n,), pieces), (n,))


def test_many_seeds_at_many_piece_boundaries():
    for seed in range(40):
        n = 16 * MIN_PIECE + seed
        _same(*_pair(seed), lambda g: _split_normal(g, (n,), 16), (n,))


def test_draws_in_sequence_continue_the_stream():
    rng, other = _pair(21)
    for shape in [(5,), (_NORMAL_SPLIT + 3,), (2, 40000), (), (9, 3000)]:
        _same(rng, other, lambda g: _normal(g, shape), shape)
        _same(rng, other, lambda g: _split_normal(g, shape, 3), shape)


class _PCG64Child(np.random.PCG64):
    pass


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.SFC64, np.random.Philox, np.random.PCG64DXSM, _PCG64Child],
)
def test_other_bit_generators_go_to_numpy(bit_generator):
    rng, other = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
    shape = (4 * _NORMAL_SPLIT + 1,)
    _same(rng, other, lambda g: _normal(g, shape), shape)



@pytest.mark.parametrize("step", [2, -1, -3])
def test_strided_output_gets_the_draws_and_nothing_else(step):
    """Draws into every |step|-th double of a buffer, backwards for a negative
    step, as ``_noise`` draws into the parts of a complex array: the piece
    moves, the pieces drawn again and the one-thread tail all write at the
    stride, and the doubles between are left as they were."""
    cases = [(0, 10819 * 2, 2), (2, 23568 * 3, 3), (5, 70 * MIN_PIECE, 64), (7, 3 * MIN_PIECE + 1, 3)]
    for seed, n, pieces in cases:
        buf = np.full(abs(step) * n, -7.0)
        out = buf[::step] if step > 0 else buf[::step][:n]
        _same(*_pair(seed), lambda g: _split_normal(g, (n,), pieces, out), (n,))
        rest = np.ones(buf.size, dtype=bool)
        rest[np.arange(buf.size)[::step][:n]] = False
        assert (buf[rest] == -7.0).all()
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="float64 of shape"):
        _normal(rng, (4,), np.empty(8)[::2][:3])


# Pins itself to one CPU before the core loads, then draws into a strided
# output as _noise does, and a whole CN array through _noise, under tracemalloc.
_ONE_CPU = textwrap.dedent("""
    import json, math, os, tracemalloc
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np
    from fpmimo import _core
    from fpmimo.kernels import _noise, _normal

    n = 1 << 20
    rng, other = np.random.default_rng(8), np.random.default_rng(8)
    z = np.full(n, 7.0 + 7.0j)
    _noise(np.random.default_rng(0), (1 << 14,))  # loads the core
    tracemalloc.start()
    _normal(rng, (n,), z.imag)
    strided = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    w = _noise(rng, (n,))
    noise = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    want = other.standard_normal(n)
    re, im = other.standard_normal(n), other.standard_normal(n)
    print(json.dumps({
        "threads": _core.threads(),
        "bytes": z.imag.tobytes() == want.tobytes() and bool((z.real == 7.0).all()),
        "noise": w.tobytes() == ((1j * im + re) / math.sqrt(2.0)).tobytes(),
        "state": rng.bit_generator.state == other.bit_generator.state,
        "strided_peak": strided, "noise_peak": noise, "n": n,
    }))
""")


def test_one_cpu_draws_straight_into_the_output():
    """On one thread a large PCG64 draw still goes to fp_normal, which writes
    into the strided output: numpy's bytes and end state, and no temporary."""
    src = str(_core.SOURCE.parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU], capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["threads"] == 1
    assert got["bytes"] and got["noise"] and got["state"]
    assert got["strided_peak"] < (1 << 16)  # the draws need no array of their own
    assert got["noise_peak"] < 16 * got["n"] * 1.05  # the complex output, nearly alone
