"""Dropout sampling executor and sample-moment estimates.

Reproducibility contract: each (sample index, dropout layer index) pair gets
its own RNG stream keyed by the run seed, so results are bit-identical no
matter how or in what order the samples are evaluated.  A key is the four
words ``np.random.SeedSequence(entropy=seed, spawn_key=(sample, layer))``
would hand PCG64; ``stream_keys`` derives many at once, in one vectorized
pass, and ``sample_stream`` builds one stream through ``SeedSequence``
itself, the reference those keys must match.  ``mc_forward`` calls
``stream_keys`` and ``dropout_sample`` through their module-level names, so
a wrapper assigned to either name sees every call.

``mc_forward`` stacks up to ``STACK_BYTES`` of passes into one walk along the
batch axis.  Each stacked pass is bitwise the pass it would be alone: its
dropout rows draw from its own stream, and each dense layer makes one
matmul per pass (see ``layers.dense_det``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import network
from .layers import dropout_sample

# SeedSequence's hash, O'Neill's seed_seq_fe (numpy.random.bit_generator):
# 32-bit words, a 4-word pool, one multiplier sequence for mixing entropy in
# and one for drawing words out.  Numpy mixes the seed in; the spawn-key words
# and the output hash are repeated here, vectorized over many keys.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# passes whose keys one stream_keys call of mc_forward derives: T=30 is one
# call, and T=1e5 never holds the whole key table
_KEY_BLOCK = 1024

# mc_forward stacks as many passes into one walk as keep the widest
# activation of the stack within this many bytes.  Stacking saves per-op
# call overhead, which dominates small inputs (the one-example toy MLP: 8
# passes per walk); a large input (a 32-image batch of the reference CNN,
# the toy MLP at 2048 rows) runs one pass per walk, as forward_sample does.
# A larger stack saves little more, and its arrays push other work's data
# out of cache (see CHANGES.md for the budget sweep).
STACK_BYTES = 16 * 1024


def _constants(start: int, mult: int):
    """The (xor, multiplier) pair of each successive step of the hash."""
    h = start
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


_OUT_XOR, _OUT_MUL = np.array(
    [c for c, _ in zip(_constants(_INIT_B, _MULT_B), range(2 * _POOL))], np.uint32
).T
_OUT_WORDS = np.arange(2 * _POOL) % _POOL  # generate_state cycles through the pool


def _seed_pool(seed: int):
    """The pool after numpy's ``SeedSequence`` mixes in the seed's 32-bit
    words, and the hash's constants for the words mixed in after them: numpy
    used one per word it hashed, 16 for the first four seed words (zero-padded)
    and four for each seed word past the fourth."""
    n_words = max(-(-seed.bit_length() // 32), _POOL)
    consts = itertools.islice(_constants(_INIT_A, _MULT_A), _POOL * n_words, None)
    return np.random.SeedSequence(seed).pool, consts


def _mix_in(pool, words, consts):
    """Mix one more spawn-key word of every key into each pool word: the
    same uint32 arithmetic as the scalar hash, broadcast over keys."""
    xor, mul = np.array([next(consts) for _ in range(_POOL)], np.uint32).T
    hashed = (words[..., None] ^ xor) * mul
    hashed ^= hashed >> 16
    mixed = pool * np.uint32(_MIX_L) - hashed * np.uint32(_MIX_R)
    return mixed ^ (mixed >> 16)


def _index_words(indices, what: str) -> np.ndarray:
    words = [operator.index(i) for i in indices]
    if words and (min(words) < 0 or max(words) > _MASK32):
        raise ValueError(f"{what} indices must lie in [0, 2**32), got {indices!r}")
    return np.array(words, np.uint32)


def stream_keys(seed: int, samples, layers) -> np.ndarray:
    """PCG64 seed words of the stream of every (sample, layer) pair.

    Entry ``[a, b]`` of the ``(len(samples), len(layers), 4)`` uint64 result
    equals ``np.random.SeedSequence(entropy=seed, spawn_key=(samples[a],
    layers[b])).generate_state(4, np.uint64)``.  The seed (any integer >= 0)
    is mixed in once, by ``SeedSequence``; the two spawn-key words and the output
    hash run as numpy uint32 operations over all pairs at once.  Each index
    is one 32-bit word of the key, so indices must be below 2**32.
    """
    pool, consts = _seed_pool(network._check_seed(seed))
    pool = _mix_in(pool, _index_words(samples, "sample")[:, None], consts)
    pool = _mix_in(pool, _index_words(layers, "layer")[None, :], consts)
    out = pool[..., _OUT_WORDS] ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    keys = np.empty(pool.shape, np.uint64)  # words pair up little-endian
    keys[...] = out[..., 1::2]
    keys <<= np.uint64(32)
    keys |= out[..., 0::2]
    return keys


class _StreamKey(ISeedSequence):
    """Hands PCG64 a key's four precomputed words.  It cannot spawn: a
    stream's generator carries no ``SeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a stream key holds exactly 4 uint64 words")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_StreamKey(words)))


def sample_stream(seed: int, sample_index: int, layer_index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, sample, layer), seeded by
    numpy's ``SeedSequence``; the seed and indices are checked as in
    ``stream_keys``."""
    seed = network._check_seed(seed)
    key = (int(_index_words((sample_index,), "sample")[0]),
           int(_index_words((layer_index,), "layer")[0]))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class MomentEstimate:
    """Sample moments with their standard errors.

    variance is the unbiased estimator (divisor T-1); the variance standard
    error uses the fourth-central-moment formula, so it stays valid for
    non-Gaussian outputs.
    """

    mean: np.ndarray
    variance: np.ndarray
    standard_error_mean: np.ndarray
    standard_error_variance: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class SampleBatch:
    """T stacked stochastic outputs from repeated masked forward passes."""

    outputs: np.ndarray  # (T, ...)
    t: int
    seed: int

    def moments(self) -> MomentEstimate:
        return estimate_moments(self.outputs)


def _moments_from_power_sums(n, s1, s2, s3, s4):
    mean = s1 / n
    # unbiased variance and central fourth moment from raw power sums
    m2 = s2 / n - mean**2
    var = m2 * n / (n - 1)
    m4 = (s4 - 4 * mean * s3 + 6 * mean**2 * s2) / n - 3 * mean**4
    var_of_var = (m4 - (n - 3) / (n - 1) * var**2) / n
    se_mean = np.sqrt(np.maximum(var, 0.0) / n)
    se_var = np.sqrt(np.maximum(var_of_var, 0.0))
    return MomentEstimate(
        mean=mean,
        variance=np.maximum(var, 0.0),
        standard_error_mean=se_mean,
        standard_error_variance=se_var,
        n_samples=int(n),
    )


def estimate_moments(samples) -> MomentEstimate:
    """Per-component sample mean, unbiased variance, and standard errors of
    a (T, ...) array of T samples."""
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to estimate a variance")
    s1 = arr.sum(axis=0)
    s2 = np.square(arr).sum(axis=0)
    s3 = (arr**3).sum(axis=0)
    s4 = (arr**4).sum(axis=0)
    return _moments_from_power_sums(float(n), s1, s2, s3, s4)


def _pass_keys(seed, t: int, dropouts):
    """Each pass's (dropout layer, 4) key table, derived _KEY_BLOCK passes
    at a time."""
    for start in range(0, t, _KEY_BLOCK):
        yield from stream_keys(seed, range(start, min(start + _KEY_BLOCK, t)), dropouts)


def mc_forward(model: network.ModelSpec, x, t: int, seed: int = 0) -> SampleBatch:
    """T stochastic forward passes with fresh Bernoulli masks per pass.

    Deterministic given (model, x, t, seed) and independent of evaluation
    order, since every pass pulls its masks from its own keyed stream.  The
    seed is any integer >= 0; the first ``stream_keys`` call checks it,
    before any pass runs.  Passes run in groups of G, each group one walk
    over the batch repeated G times along axis 0 (see ``STACK_BYTES``).
    """
    t = network._check_samples(t)
    xb, squeeze = network._as_batch(model, x)
    widest = max(math.prod(s) for s in (model.input_shape,) + model.layer_shapes)
    group = min(t, max(1, STACK_BYTES // (8 * max(1, len(xb)) * widest)))
    stacked = np.concatenate([xb] * group) if group > 1 else xb
    draws = network._DrawScratch(model, xb)  # shared by every pass of this call
    column = {idx: c for c, idx in enumerate(model.dropouts)}
    outputs = np.empty((t, len(xb)) + model.output_shape)
    keys = _pass_keys(seed, t, model.dropouts)
    for start in range(0, t, group):
        passes = min(group, t - start)
        tables = list(itertools.islice(keys, passes))
        out = network._run_arrays(
            model,
            stacked[: passes * len(xb)],
            lambda h, layer, idx, o: dropout_sample(
                h, layer, [_generator(k[column[idx]]) for k in tables], o, draws.array
            ),
            passes=passes,
        )
        outputs[start : start + passes] = out.reshape((passes,) + outputs.shape[1:])
    if squeeze:
        outputs = outputs.reshape((t,) + model.output_shape)
    return SampleBatch(outputs=outputs, t=t, seed=seed)
