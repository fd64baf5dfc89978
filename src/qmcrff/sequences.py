"""Unit-cube point sets: Halton (plain and deterministically scrambled),
rank-1 lattices and seeded Monte Carlo, named in `UNIT_SEQUENCES`.

Every generated coordinate is clamped into [eps, 1-eps] with eps = 2**-52 so
that downstream inverse-CDF transforms stay finite.  Each point is a pure
function of its index, so generation order (or parallel generation) cannot
change the output.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

UNIT_EPS = 2.0 ** -52
DEFAULT_KOROBOV_A = 1571

_PRIME_TABLE_SIZE = 1000


def _first_primes(count):
    # Sieve of Eratosthenes; 7919 is the 1000th prime.
    limit = 7920
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)[:count]
    if len(primes) < count:
        raise RuntimeError("prime sieve limit too small")
    return tuple(int(p) for p in primes)


PRIMES = _first_primes(_PRIME_TABLE_SIZE)


@cache
def digit_reversal_permutation(base):
    """Deterministic reverse-radix digit permutation for the given base.

    Each digit value is bit-reversed within ceil(log2(base)) bits; values
    that reverse outside the base are dropped, and the survivors (in order
    of the reversed scan) form the permutation.  0 maps to 0 in every base,
    and base 2 yields the identity.
    """
    nbits = max(1, (base - 1).bit_length())
    perm = []
    for k in range(1 << nbits):
        rev = 0
        v = k
        for _ in range(nbits):
            rev = (rev << 1) | (v & 1)
            v >>= 1
        if rev < base:
            perm.append(rev)
    return tuple(perm)


def radical_inverse(i, base, permutation=None):
    """Radical inverse of integer ``i`` (elementwise for an integer array) in the given base.

    Writes i = sum_a i_a * base**(a-1) and returns sum_a i_a * base**-a,
    optionally permuting each digit i_a first.  An array is expanded digit
    by digit in the same order as a scalar, so every entry has the bits of
    the scalar result.
    """
    i = np.asarray(i, dtype=np.int64)
    if np.any(i < 0):
        raise ValueError(f"radical_inverse requires i >= 0, got {i}")
    if base < 2:
        raise ValueError(f"radical_inverse requires base >= 2, got {base}")
    if permutation is not None:
        permutation = np.asarray(permutation)
    x = np.zeros(i.shape)
    scale = 1.0 / base
    while i.any():
        digit = i % base
        if permutation is not None:
            digit = permutation[digit]
        x += digit * scale
        i = i // base
        scale /= base
    return x if x.ndim else float(x)


def _clamp_unit(points):
    return np.clip(points, UNIT_EPS, 1.0 - UNIT_EPS)


@dataclass
class UnitPointSet:
    """s points in the open unit cube (0,1)^d plus provenance: ``generator``
    names a `UNIT_SEQUENCES` entry, or is "file" for points read from outside.
    ``seed_or_start`` is the RNG seed for ``mc``, the start index for the
    Halton variants, and ignored for ``lattice``.
    """

    points: np.ndarray
    generator: str
    seed_or_start: int = 0

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[0] < 1 or self.points.shape[1] < 1:
            raise ValueError("points must be an s x d matrix with s >= 1, d >= 1")
        valid = (*UNIT_SEQUENCES, "file")
        if self.generator not in valid:
            raise ValueError(f"unknown generator {self.generator!r}; valid: {', '.join(valid)}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("coordinates must be finite")
        if np.any(self.points <= 0.0) or np.any(self.points >= 1.0):
            raise ValueError("all coordinates must lie in the open interval (0, 1)")

    @property
    def s(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def to_json_dict(self):
        return {
            "generator": self.generator,
            "s": self.s,
            "d": self.d,
            "seed_or_start": self.seed_or_start,
            "points": [[float(v) for v in row] for row in self.points],
        }


def halton(s, d, scramble=False, start_index=1):
    """First ``s`` points of the d-dimensional Halton sequence.

    Row i is (phi_p1(start_index+i), ..., phi_pd(start_index+i)) with p_j
    the j-th prime.  With ``scramble`` each digit passes through the
    deterministic reverse-radix permutation of its base, so repeated calls
    are variance-free.  The default start index 1 skips the cube corner at
    index 0.
    """
    if s < 1:
        raise ValueError(f"halton requires s >= 1, got {s}")
    if not 1 <= d <= _PRIME_TABLE_SIZE:
        raise ValueError(f"halton supports 1 <= d <= {_PRIME_TABLE_SIZE}, got {d}")
    if start_index < 1:
        raise ValueError(f"halton requires start_index >= 1, got {start_index}")
    index = np.arange(start_index, start_index + s)
    points = np.empty((s, d))
    for j in range(d):
        base = PRIMES[j]
        perm = digit_reversal_permutation(base) if scramble else None
        points[:, j] = radical_inverse(index, base, perm)
    generator = "halton-scrambled" if scramble else "halton"
    return UnitPointSet(points=_clamp_unit(points), generator=generator,
                        seed_or_start=start_index)


def lattice(s, d, generating_vector=None):
    """Rank-1 lattice: point i is frac(i * z / s) componentwise, i = 0..s-1,
    with z the generating vector, `korobov_vector` (s, d) when it is None.

    For s > 1 every z_j must be coprime to s, so that each coordinate takes
    all s values k/s; otherwise points coincide in that coordinate, and a
    zero entry puts every point on a face of the cube.
    """
    if s < 1:
        raise ValueError(f"lattice requires s >= 1, got {s}")
    if d < 1:
        raise ValueError(f"lattice requires d >= 1, got {d}")
    z = np.asarray(korobov_vector(s, d) if generating_vector is None else generating_vector,
                   dtype=np.int64)
    if z.shape != (d,):
        raise ValueError(f"generating_vector must have length d={d}, got shape {z.shape}")
    if s > 1 and np.any(np.gcd(z, s) != 1):
        raise ValueError(f"lattice generating vector {z.tolist()} has an entry not "
                         f"coprime to s={s}")
    z = np.mod(z, s)
    idx = np.arange(s, dtype=np.int64)
    # Integer modular arithmetic keeps the fractions exact before clamping.
    points = np.mod(idx[:, None] * z[None, :], s) / float(s)
    return UnitPointSet(points=_clamp_unit(points), generator="lattice", seed_or_start=0)


def mc_uniform(s, d, seed):
    """i.i.d. uniform points from a seeded PCG64 stream (bitwise reproducible)."""
    if s < 1:
        raise ValueError(f"mc_uniform requires s >= 1, got {s}")
    if d < 1:
        raise ValueError(f"mc_uniform requires d >= 1, got {d}")
    rng = np.random.Generator(np.random.PCG64(seed))
    points = rng.random((s, d))
    return UnitPointSet(points=_clamp_unit(points), generator="mc", seed_or_start=int(seed))


def korobov_vector(s, d):
    """Default rank-1 generating vector (1, a, a^2, ...) mod s, a = DEFAULT_KOROBOV_A."""
    if s < 1:
        raise ValueError(f"korobov_vector requires s >= 1, got {s}")
    if d < 1:
        raise ValueError(f"korobov_vector requires d >= 1, got {d}")
    return np.array([pow(DEFAULT_KOROBOV_A, j, s) for j in range(d)], dtype=np.int64)


# Name -> (build, reads): ``build(s, d, seed, **params)`` returns the points,
# given only the keyword ``params`` that ``reads`` names.  A sequence that
# reads "seed" gives one trial per seed; the others ignore the seed.  Each
# build calls its generator through this module's name at call time, so a
# generator rebound on the module (as a tracer does) sees every call.
UNIT_SEQUENCES = {
    "halton": (lambda s, d, seed, **kw: halton(s, d, **kw), ("start_index",)),
    "halton-scrambled": (lambda s, d, seed, **kw: halton(s, d, True, **kw), ("start_index",)),
    "lattice": (lambda s, d, seed, **kw: lattice(s, d, **kw), ("generating_vector",)),
    "mc": (lambda s, d, seed: mc_uniform(s, d, seed), ("seed",)),
}


def make_pointset(seq, s, d, seed=0, **params):
    """s points in d dimensions of the unit-cube sequence named ``seq``.  Each
    of ``params`` (start_index, generating_vector) that is not None must be
    one the sequence reads; ``seed`` is always accepted."""
    if seq not in UNIT_SEQUENCES:
        raise ValueError(f"unknown sequence {seq!r}; valid names: {', '.join(UNIT_SEQUENCES)}")
    build, reads = UNIT_SEQUENCES[seq]
    params = {k: v for k, v in params.items() if v is not None}
    unread = sorted(params.keys() - set(reads))
    if unread:
        raise ValueError(f"sequence {seq!r} does not read {' or '.join(unread)}")
    return build(s, d, seed, **params)
