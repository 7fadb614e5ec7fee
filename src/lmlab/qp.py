"""Quadratic forms on per-coordinate symbol distributions.

For a finite set of K codewords, the distribution at one coordinate counts
how many codewords carry each symbol of [-s, s]; the total pairwise channel
distance decomposes coordinatewise into the quadratic form of that
distribution against the symbol-pair weight matrix.  This module provides:

* the exact form value and the distance-decomposition identity;
* closed-form maxima of the form for s in {1, 2, 3}, given the codeword
  count K and the nonzero-symbol mass a;
* two independent maximization oracles that know nothing about the closed
  forms: a dense-grid search with local ascent over real distributions, and
  an exhaustive scan over 0/1 assignments to the nonzero symbols;
* the piecewise quadratic envelope dominating the 0/1-constrained form, and
  the two average-distance bounds built from it.

Closed forms, envelope and bounds are exact rationals; only the continuous
oracle works in floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import _require_int, pair_weight_matrix
from .errors import (
    CapExceededError,
    HypothesesUnmetError,
    InvalidParameterError,
    PreconditionViolatedError,
    TooFewCodewordsError,
)
from .metric import Code, channel_distance

#: Grid resolution per free dimension (finer for the smaller simplexes).
DEFAULT_RESOLUTION = {1: 60, 2: 60, 3: 30}
FALLBACK_RESOLUTION = 12  # s >= 4: exploration only, nothing is asserted
ASCENT_ROUNDS = 200

#: Exhaustive integer-composition mode is meant for small codeword counts.
MAX_EXHAUSTIVE_K = 12
#: Largest simplex grid the continuous oracle materialises (s = 6 at the
#: default resolution needs 1,352,078 points, s = 7 needs 5,200,300).
MAX_GRID_POINTS = 2 * 10**6


@dataclass(frozen=True)
class SymbolDistribution:
    """Counts (or real masses) per symbol value, indexed by x in [-s, s]."""

    s: int
    counts: tuple

    def __post_init__(self) -> None:
        _require_int("s", self.s, 1)
        counts = tuple(self.counts)
        if len(counts) != 2 * self.s + 1:
            raise InvalidParameterError(
                f"expected {2 * self.s + 1} counts for s={self.s}, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise InvalidParameterError(f"counts must be nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)


def form_value(dist: SymbolDistribution):
    """The quadratic form of the distribution against the symbol-pair weights.

    Exact for integer or Fraction counts; float counts give a float.
    """
    entries = pair_weight_matrix(dist.s).entries
    counts = dist.counts
    total = 0
    for i, ci in enumerate(counts):
        if not ci:
            continue
        row = entries[i]
        total += ci * sum(cj * row[j] for j, cj in enumerate(counts) if cj)
    return total


def _validate_mass(s: int, K, a) -> tuple[Fraction, Fraction]:
    kq, aq = Fraction(K), Fraction(a)
    if not 0 <= aq <= kq:
        raise InvalidParameterError(f"need 0 <= a <= K, got a={a}, K={K}")
    return kq, aq


def form_max_closed(s: int, K, a) -> tuple[Fraction, SymbolDistribution]:
    """Closed-form maximum of the form at fixed total K and nonzero mass a.

    Returns the maximal value together with a distribution attaining it:

    * s = 1: 2Ka - a^2        at (a/2, K-a, a/2)
    * s = 2: 2Ka - 5a^2/6     at (a/3, a/6, K-a, a/6, a/3)
    * s = 3: 2Ka - 3a^2/4     at (a/4, a/4, 0, K-a, 0, a/4, a/4)
    """
    if s not in (1, 2, 3):
        raise InvalidParameterError(f"closed forms exist for s in {{1,2,3}}, got {s}")
    kq, aq = _validate_mass(s, K, a)
    if s == 1:
        value = 2 * kq * aq - aq * aq
        counts = (aq / 2, kq - aq, aq / 2)
    elif s == 2:
        value = 2 * kq * aq - Fraction(5, 6) * aq * aq
        counts = (aq / 3, aq / 6, kq - aq, aq / 6, aq / 3)
    else:
        value = 2 * kq * aq - Fraction(3, 4) * aq * aq
        counts = (aq / 4, aq / 4, Fraction(0), kq - aq, Fraction(0), aq / 4, aq / 4)
    return value, SymbolDistribution(s, counts)


def _nonzero_block(s: int) -> list[list[int]]:
    """Weight matrix restricted to the 2s nonzero symbols."""
    full = pair_weight_matrix(s).entries
    idx = [i for i in range(2 * s + 1) if i != s]
    return [[full[i][j] for j in idx] for i in idx]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_GRID_CACHE: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}


def _grid_best(s: int, resolution: int) -> tuple[int, tuple[int, ...]]:
    """Best integer composition of the grid for the nonzero-block form.

    The form is homogeneous of degree 2 on the nonzero block and the
    zero-symbol cross terms contribute the constant 2a(K - a), so the grid
    winner does not depend on K or a; it is computed once per (s, resolution)
    and scaled.  Values here are exact integers.
    """
    key = (s, resolution)
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    points = comb(resolution + 2 * s - 1, 2 * s - 1)
    if points > MAX_GRID_POINTS:
        raise CapExceededError(
            f"the s={s} grid at resolution {resolution} has {points} points, cap is {MAX_GRID_POINTS}"
        )
    import numpy as np  # the only numpy user: keeps it out of CLI startup

    block = np.array(_nonzero_block(s), dtype=np.int64)
    comps = np.array(list(_compositions(resolution, 2 * s)), dtype=np.int64)
    values = np.einsum("ij,jk,ik->i", comps, block, comps)
    best = int(np.argmax(values))  # first maximizer: deterministic
    result = (int(values[best]), tuple(int(x) for x in comps[best]))
    _GRID_CACHE[key] = result
    return result


def continuous_oracle_search(
    s: int, K, a, resolution: int | None = None
) -> tuple[float, SymbolDistribution]:
    """Grid search plus local pairwise ascent over real distributions.

    Maximizes the form over nonnegative real distributions with total K and
    nonzero mass a, without using any closed form: a dense simplex grid
    (step a/resolution per free dimension) seeds repeated coordinate-pair
    mass moves with geometrically shrinking step.  Returns the best value
    found and the distribution attaining it.
    """
    _require_int("s", s, 1)
    kq, aq = _validate_mass(s, K, a)
    kf, af = float(kq), float(aq)
    zero_count = kf - af
    if aq == 0:
        dist = SymbolDistribution(s, (0.0,) * s + (kf,) + (0.0,) * s)
        return 0.0, dist
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(s, FALLBACK_RESOLUTION)
    _require_int("resolution", resolution, 1)

    _, seed = _grid_best(s, resolution)
    m = 2 * s
    block = _nonzero_block(s)
    p = [c * af / resolution for c in seed]

    def gradient() -> list[float]:
        return [sum(block[k][j] * p[j] for j in range(m)) for k in range(m)]

    grad = gradient()
    step = af / 2
    for _ in range(ASCENT_ROUNDS):
        for _ in range(4):  # a few sweeps per step size
            improved = False
            for i in range(m):
                if p[i] <= 0.0:
                    continue
                delta = step if step < p[i] else p[i]
                for j in range(m):
                    if i == j:
                        continue
                    # move delta from i to j: quadratic form change
                    gain = 2 * delta * (grad[j] - grad[i]) - 2 * delta * delta * block[i][j]
                    if gain > 1e-12:
                        p[i] -= delta
                        p[j] += delta
                        for k in range(m):
                            grad[k] += delta * (block[k][j] - block[k][i])
                        delta = step if step < p[i] else p[i]
                        improved = True
                        if p[i] <= 0.0:
                            break
            if not improved:
                break
        grad = gradient()  # clear accumulated drift
        step *= 0.87

    counts = tuple(p[:s]) + (zero_count,) + tuple(p[s:])
    dist = SymbolDistribution(s, counts)
    return float(form_value(dist)), dist


def form_max_exhaustive_integer(s: int, K: int, a: int) -> tuple[int, SymbolDistribution]:
    """Exact maximum over integer count vectors (small K only)."""
    _require_int("K", K)
    _require_int("a", a)
    if K > MAX_EXHAUSTIVE_K:
        raise InvalidParameterError(
            f"exhaustive integer mode is limited to K <= {MAX_EXHAUSTIVE_K}, got K={K}"
        )
    _validate_mass(s, K, a)
    best: tuple[int, SymbolDistribution] | None = None
    for comp in _compositions(a, 2 * s):
        dist = SymbolDistribution(s, comp[:s] + (K - a,) + comp[s:])
        value = form_value(dist)
        if best is None or value > best[0]:
            best = (value, dist)
    assert best is not None
    return best


def form_max_oracle_binary(s: int, K: int, a: int) -> int:
    """Exhaustive maximum when each nonzero symbol is used at most once.

    Scans all C(2s, a) ways of placing a ones on the nonzero symbols, with
    the remaining K - a codewords on the zero symbol.  Exact integers.
    """
    _require_int("s", s, 1)
    _require_int("K", K)
    _require_int("a", a)
    if not 0 <= a <= 2 * s:
        raise InvalidParameterError(f"need 0 <= a <= 2s, got a={a}, s={s}")
    if K < a:
        raise InvalidParameterError(f"need K >= a, got K={K}, a={a}")
    if a == 0:
        return 0
    symbols = [x for x in range(-s, s + 1) if x != 0]
    best = 0
    for chosen in itertools.combinations(symbols, a):
        counts = [0] * (2 * s + 1)
        for x in chosen:
            counts[x + s] = 1
        counts[s] = K - a
        value = form_value(SymbolDistribution(s, tuple(counts)))
        if value > best:
            best = value
    return best


def form_envelope(x, K, s: int) -> Fraction:
    """Piecewise quadratic dominating the 0/1-constrained form at mass x.

    -(3/2) x^2 + 2 (K+s) x - s^2 - s   for x >= s,
    -(1/2) x^2 + (2K - 1) x            for x <  s;
    the two branches agree at x = s.
    """
    _require_int("s", s, 1)
    kq = Fraction(K)
    if kq < 1:
        raise InvalidParameterError(f"need K >= 1, got K={K}")
    xq = Fraction(x)
    if xq >= s:
        return -Fraction(3, 2) * xq * xq + 2 * (kq + s) * xq - s * s - s
    return -Fraction(1, 2) * xq * xq + (2 * kq - 1) * xq


def avg_distance_bound(n: int, e: int, K: int, s: int, variant: str = "first") -> Fraction:
    """Upper bound on the average pairwise distance of K codewords.

    ``variant="first"`` is unconditional (for K >= 2):
    (2K-1)(e+1)/(K-1) - K(e+1)^2 / (2(K-1)n).

    ``variant="second"`` needs the mass condition 3K(e+1) > (3s+1)n
    (checked exactly) and is then
    2(K+s)(e+1)/(K-1) - 3K(e+1)^2/(2(K-1)n) - n(s^2+s)/(K(K-1)).
    """
    for name, value in (("n", n), ("e", e), ("K", K), ("s", s)):
        _require_int(name, value)
    if n < 1 or e < 0 or s < 1:
        raise InvalidParameterError(f"need n >= 1, e >= 0, s >= 1; got n={n}, e={e}, s={s}")
    if K < 2:
        raise TooFewCodewordsError(f"average-distance bounds need K >= 2, got K={K}")
    if variant == "first":
        return Fraction((2 * K - 1) * (e + 1), K - 1) - Fraction(K * (e + 1) ** 2, 2 * (K - 1) * n)
    if variant == "second":
        if not 3 * K * (e + 1) > (3 * s + 1) * n:
            raise HypothesesUnmetError(
                f"second bound needs 3K(e+1) > (3s+1)n, got {3 * K * (e + 1)} <= {(3 * s + 1) * n}"
            )
        return (
            Fraction(2 * (K + s) * (e + 1), K - 1)
            - Fraction(3 * K * (e + 1) ** 2, 2 * (K - 1) * n)
            - Fraction(n * (s * s + s), K * (K - 1))
        )
    raise InvalidParameterError(f"variant must be 'first' or 'second', got {variant!r}")


def symbol_distributions(code: Code, s: int) -> list[SymbolDistribution]:
    """Per-coordinate symbol counts of a code inside [-s, s]^n."""
    for w in code.words:
        if any(abs(c) > s for c in w.coords):
            raise PreconditionViolatedError(
                f"codeword {w.coords} leaves [-{s}, {s}]^n"
            )
    dists = []
    for i in range(code.n):
        counts = [0] * (2 * s + 1)
        for w in code.words:
            counts[w.coords[i] + s] += 1
        dists.append(SymbolDistribution(s, tuple(counts)))
    return dists


def distance_decomposition(code: Code, s: int) -> tuple[int, int, bool]:
    """Check the coordinatewise decomposition of the total pairwise distance.

    Returns (sum of distances over ordered distinct pairs, sum of the
    per-coordinate form values, whether the two agree).  The identity holds
    whenever all codewords lie in [-s, s]^n, which is enforced.
    """
    dists = symbol_distributions(code, s)  # also validates the coordinate range
    ordered_sum = 0
    for x, y in itertools.combinations(code.words, 2):
        ordered_sum += 2 * channel_distance(x, y, s)
    coordinate_sum = sum(form_value(d) for d in dists)
    return ordered_sum, coordinate_sum, ordered_sum == coordinate_sum
