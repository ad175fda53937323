"""Per-row random streams, seeded for all rows in one vectorized pass.

Row-wise randomness in rodd (input corruption, Monte-Carlo scoring noise)
gives row i its own stream default_rng(seed ^ i), so a row's result does not
depend on which other rows are processed with it.  Building one generator per
row costs far more than the few draws a row takes, so row_streams reproduces
default_rng's seeding for every seed at once instead: numpy's SeedSequence
entropy hash as uint32 array arithmetic, then PCG64's two seeding LCG steps
(O'Neill, "PCG", HMC-CS-2014-0905), and moves a single shared Generator to
each resulting state in turn.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

SEED_LIMIT = 2**64  # row_streams' domain, and every seed's: [0, 2**64)

# numpy.random.SeedSequence's hash constants; its pool holds 4 uint32 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed, name: str = "seed") -> int:
    """The seed as an int; ContractViolation unless it is an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < SEED_LIMIT:
        raise ContractViolation(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def xor_seeds(seed: int, n: int) -> np.ndarray:
    """The per-row seeds seed ^ i for i < n, as uint64 (seed must be in range)."""
    return np.uint64(check_seed(seed)) ^ np.arange(n, dtype=np.uint64)


def _hashmix(words: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    words = words ^ np.uint32(const)
    const = (const * _MULT_A) & _MASK32
    words *= np.uint32(const)
    words ^= words >> np.uint32(16)
    return words, const


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(s).generate_state(4, np.uint64) for every seed s < 2**64.

    A seed's entropy is its little-endian uint32 words; SeedSequence hashes a
    missing pool word as 0, so [lo, hi, 0, 0] is exact for every such seed.
    """
    entropy = [seeds & _MASK32, seeds >> np.uint64(32)]
    entropy = [w.astype(np.uint32) for w in entropy] + [np.zeros(seeds.shape, np.uint32)] * 2
    pool, const = [], _INIT_A
    for word in entropy:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
                mixed ^= mixed >> np.uint32(16)
                pool[dst] = mixed
    out, const = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        word = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word *= np.uint32(const)
        word ^= word >> np.uint32(16)
        out.append(word.astype(np.uint64))
    return [out[2 * k] | (out[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after default_rng(s) for every s of a 1-D uint64
    array, such as xor_seeds returns.

    PCG64 takes the 128-bit seed s and stream sequence q from the four words
    of its SeedSequence, sets inc = 2q + 1 and state = (inc + s) * M + inc.
    """
    s_hi, s_lo, q_hi, q_lo = (w.tolist() for w in _seed_words(seeds))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, q_hi, q_lo):
        inc = (((c << 64) | d) << 1 | 1) & _MASK128
        states.append((((((a << 64) | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def row_streams(seeds: np.ndarray):
    """Yield, for each seed, one shared Generator in the state of default_rng(seed).

    The same Generator object is yielded every time and is reset before each
    yield, buffered 32-bit word included, so a caller must finish with a
    row's stream before asking for the next one.
    """
    states = pcg64_states(seeds)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for state, inc in states:
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def standard_normal_rows(seeds: np.ndarray, width: int) -> np.ndarray:
    """Row i of the result is default_rng(seeds[i]).standard_normal(width)."""
    rows = np.empty((len(seeds), width))
    for row, rng in zip(rows, row_streams(seeds)):
        rng.standard_normal(out=row)
    return rows
