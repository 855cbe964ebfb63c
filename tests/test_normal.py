"""The C core's normal draws (``fp_normal``, through ``kernels._normal``):
numpy's ``Generator.standard_normal`` byte for byte, and the state it leaves."""

import ctypes
import functools
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fpmimo import _core
from fpmimo.kernels import _NORMAL_SPLIT, _U64, _normal, _split_normal

# fp_normal's MIN_PIECE: a round cuts all but a sixteenth of the draws left
# into pieces of at least this many words
MIN_PIECE = 1 << 13

# The tail of numpy's ziggurat starts at this magnitude.
ZIGGURAT_R = 3.6541528853610088

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_UNMULT = pow(_MULT, -1, 1 << 128)
_RABS = (1 << 52) - 1  # the magnitude bits of a ziggurat word
_INC = np.random.default_rng(0).bit_generator.state["state"]["inc"]


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


def _draws(words):
    """The draw count whose first round cuts `words` words into its pieces:
    a round leaves a sixteenth of the draws it could make as room for its
    shift."""
    n = words + words // 15
    while n - n // 16 < words:
        n += 1
    while n - n // 16 > words:
        n -= 1
    assert n - n // 16 == words
    return n


@pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "complex-parts"])
@pytest.mark.parametrize("pieces", [2, 3, 8, 64])
def test_rounds_at_their_boundary_and_the_parallel_shift(pieces, stride):
    """Just below, at and just past the least draw count that makes a round,
    and counts whose chain after the first piece spans several times the core's
    least work a thread, so that its shift runs in chunks across threads and
    keeps the chunks' last entries in the round's room.  stride 2 draws into
    the real parts of a complex array, as ``_noise`` does."""
    least = _draws(pieces * MIN_PIECE)
    for seed, n in enumerate([least - 1, least, least + 1, 1 << 18, (1 << 20) + 7]):
        buf = np.full(stride * n, -7.0)
        out = buf[::stride]
        _same(*_pair(seed), lambda g: _split_normal(g, (n,), pieces, out), (n,))
        assert stride == 1 or (buf[1::2] == -7.0).all()


@functools.cache
def _misses(seed, word):
    """numpy's own view of default_rng(seed)'s stream at `word`: the draws
    decoded from that word skip the word where the true chain's next sample
    starts, among their first SYNC samples (16, as in the core).  Sample
    starts are found by matching states against the LCG stepped in Python."""
    rng = np.random.default_rng(seed)
    pcg = rng.bit_generator.state["state"]
    states, state = [], pcg["state"]
    for _ in range(word + 200):
        states.append(state)
        state = (state * _MULT + pcg["inc"]) & ((1 << 128) - 1)
    pos = {st: p for p, st in enumerate(states)}

    def at(gen):  # past the states stepped, any position will do that is past word
        return pos.get(gen.bit_generator.state["state"]["state"], word + 200)

    def after(k):  # the word the (k + 1)-th sample of the true chain starts at
        g = np.random.default_rng(seed)
        g.standard_normal(k)
        return at(g)

    lo, hi = 0, word  # k samples take at least k words
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if after(mid) >= word else (mid + 1, hi)
    g = np.random.default_rng(seed)
    state = g.bit_generator.state
    state["state"]["state"] = states[word]
    g.bit_generator.state = state
    starts = []
    for _ in range(16):
        starts.append(at(g))
        g.standard_normal()
    return after(lo) not in starts


@pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "complex-parts"])
@pytest.mark.parametrize(
    "seed, word, pieces, t",
    [(0, 10819, 2, 1), (0, 18812, 3, 2), (1, 11921, 3, 1), (2, 23568, 2, 1),
     (0, 154086, 3, 2), (1, 140229, 3, 2), (2, 155571, 3, 2)],
)
def test_a_miss_ends_the_round_and_is_decoded_again(seed, word, pieces, t, stride):
    """Piece t of the first round starts at `word`, from which the draws
    decoded skip the word where the true chain's next sample starts (the
    words of test_a_piece_that_misses_the_true_chain_is_drawn_again, and
    three more).  So the round ends before piece t, and the next round decodes
    its words again from the true start.  In the last three cases piece 1,
    which does meet the true chain, spans over twice the core's least work a
    thread, so that it is shifted in two chunks when the core has two threads
    or more."""
    assert _misses(seed, word)
    words = -(-word * pieces // t)
    assert words * t // pieces == word
    n = _draws(words)
    buf = np.full(stride * n, -7.0)
    out = buf[::stride]
    _same(*_pair(seed), lambda g: _split_normal(g, (n,), pieces, out), (n,))
    assert stride == 1 or (buf[1::2] == -7.0).all()


def test_many_seeds_at_many_piece_boundaries():
    for seed in range(40):
        n = 16 * MIN_PIECE + seed
        _same(*_pair(seed), lambda g: _split_normal(g, (n,), 16), (n,))


def test_draws_in_sequence_continue_the_stream():
    rng, other = _pair(21)
    for shape in [(5,), (_NORMAL_SPLIT + 3,), (2, 40000), (), (9, 3000)]:
        _same(rng, other, lambda g: _normal(g, shape), shape)
        _same(rng, other, lambda g: _split_normal(g, shape, 3), shape)


# -- the inline fast path, at each box's boundary -----------------------------
#
# numpy's ziggurat reads a word w as box idx = w & 0xff, sign bit 8 and
# magnitude rabs = (w >> 9) & (2^52 - 1); below the box's bound ki it returns
# rabs * wi[idx] from that word alone.  The C core decodes those words inline,
# with tables it reads back from numpy's function when it loads.  The oracle
# here finds each ki from numpy's Generator alone: the least rabs at which
# a draw moves the state on by more than one word.

def _word(idx, sign, rabs):
    return rabs << 9 | sign << 8 | idx


def _at_word(w, lead=0, salt=0x2F1D3C4B5A6978F):
    """A generator on a PCG64 whose output after `lead` others is the 64-bit w,
    and its LCG state after that output.  XSL-RR outputs rotr(hi ^ lo, hi >> 58)
    of the state hi:lo, so a high half with a rotation in its top 6 bits (and
    any other bits: the salt's) and lo = rotl(w, rot) ^ hi give w; the LCG
    then steps back lead + 1 times."""
    rot = w % 64
    hi = rot << 58 | salt & ((1 << 58) - 1)
    lo = ((w << rot | w >> (64 - rot)) & _U64) ^ hi
    after = hi << 64 | lo
    state = after
    for _ in range(lead + 1):
        state = (state - _INC) * _UNMULT & ((1 << 128) - 1)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": _INC},
                               "has_uint32": 0, "uinteger": 0}
    return rng, after


def _takes_one_word(w):
    rng, after = _at_word(w)
    rng.standard_normal()
    return rng.bit_generator.state["state"]["state"] == after


@functools.cache
def _numpy_ki():
    """Each box's ki, by bisection on numpy's draws; 2^52 where every rabs
    takes one word."""
    ki = []
    for idx in range(256):
        lo, hi = 0, _RABS + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _takes_one_word(_word(idx, 0, mid)) else (lo, mid)
        ki.append(lo)
    return ki


def test_at_word_makes_the_chosen_word_next():
    rng = np.random.default_rng(12)
    for w in [0, 1, _U64, 1 << 63, *map(int, rng.integers(0, 2**63, 50, dtype=np.uint64))]:
        for lead in (0, 3):
            g, after = _at_word(w, lead)
            assert int(g.bit_generator.random_raw(lead + 1)[-1]) == w
            assert g.bit_generator.state["state"]["state"] == after


def _lead_for_bulk(w):
    """(salt, draws) such that on _at_word(w, 40, salt) w is read as the first
    word of the draws'-th sample, past the core's first SYNC samples, so that
    its bulk loop decodes it; the sample boundaries are found from numpy's
    own draws, the salt by trial (each sets the 40 words before w)."""
    lead = 40
    for salt in range(1, 100):
        rng, _ = _at_word(w, lead, salt)
        state = rng.bit_generator.state["state"]["state"]
        starts, pos = [], 0
        while pos < lead:
            starts.append(pos)
            rng.standard_normal()
            now = rng.bit_generator.state["state"]["state"]
            while state != now:
                state = (state * _MULT + _INC) & ((1 << 128) - 1)
                pos += 1
        if pos == lead:
            return salt, len(starts) + 1
    raise AssertionError(f"no salt puts a sample start at {w:#x}")


@pytest.mark.parametrize("at", ["0", "1", "ki-1", "ki", "ki+1", "max"])
def test_every_box_at_its_boundary_gives_numpys_bytes(at):
    """For all 256 boxes and both signs, the word is decoded as numpy decodes
    it, to the same bytes and end state: first as the first sample of a call,
    then as a sample past the first SYNC ones.  Below ki that is the inline
    fast path; from ki on, numpy's own, from the same word."""
    bad = []
    for idx, ki in enumerate(_numpy_ki()):
        rabs = {"0": 0, "1": 1, "ki-1": ki - 1, "ki": ki, "ki+1": ki + 1, "max": _RABS}[at]
        if not 0 <= rabs <= _RABS:
            continue
        for sign in (0, 1):
            w = _word(idx, sign, rabs)
            cases = [(lambda: _at_word(w)[0], 2)]
            if at in ("1", "ki", "max") or idx % 16 == 0:  # the bulk loop, on a share
                salt, draws = _lead_for_bulk(w)
                cases.append((lambda: _at_word(w, 40, salt)[0], draws))
            for make, draws in cases:
                rng, other = make(), make()
                want = other.standard_normal(draws)
                got = _split_normal(rng, (draws,), 1)
                if got.tobytes() != want.tobytes() or not _equal(
                        rng.bit_generator.state, other.bit_generator.state):
                    bad.append((idx, sign, rabs, draws))
    assert not bad, f"(idx, sign, rabs, draws) unlike numpy: {bad[:8]}"


def test_the_tables_read_back_at_load_pass_their_check():
    """Every box with a fast path in numpy has it inline: the load-time check
    found the tables read back from numpy's function to give its bits."""
    boxes = ctypes.c_int64()
    _core.lib().fp_ziggurat(ctypes.byref(boxes))
    assert boxes.value == sum(ki > 0 for ki in _numpy_ki())


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
