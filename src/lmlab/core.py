"""Error-ball combinatorics for the limited-magnitude channel.

The central object is the error ball: all integer vectors of Hamming weight
at most ``e`` whose entries lie in ``[-kminus, kplus]``.  A code corrects the
corresponding errors exactly when the balls centered at its codewords are
pairwise disjoint, so everything downstream (tiling verification, exclusion
bounds, density estimates) is driven by the quantities computed here.

All arithmetic is exact: volumes are arbitrary-precision integers, ratio
bounds are ``fractions.Fraction`` values, and enumeration yields every ball
vector exactly once in lexicographic coordinate order.  No floating point
enters this module.

One walk decides that order.  It combines per-coordinate images of the
values with an associative ``plus``: tuple concatenation for
``iter_ball_coords``, lane-wise addition of coset keys for lattice
verification, so the two streams agree vector for vector by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator

from .errors import (
    CapExceededError,
    HypothesesUnmetError,
    InvalidParameterError,
)

#: Default guardrail for explicit ball enumeration (number of vectors).
DEFAULT_ENUM_CAP = 10**7


def _require_int(name: str, value: object, minimum: int | None = None) -> int:
    """The package's one integer check; bools are not integers here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_ints(name: str, values: Iterable[object]) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each checked by ``_require_int``'s rule."""
    values = tuple(values)
    if {type(v) for v in values} - {int}:
        values = tuple([int(_require_int(name, v)) for v in values])
    return values


def _decimal(value: int) -> str:
    """``str(value)``, also for ints past the interpreter's int-to-str limit.

    Longer numbers are split at a power of ten near half their digits and
    converted piece by piece, so the process-wide limit is never raised.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + _decimal(-value)
    half = value.bit_length() * 3 // 20  # log10(2) > 3/10
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


@dataclass(frozen=True)
class BallParams:
    """Parameters ``(n, e, kplus, kminus)`` of an error ball.

    ``n`` is the ambient dimension, ``e`` the maximum number of erroneous
    coordinates, and ``kplus`` / ``kminus`` bound how far a coordinate may
    move in the positive / negative direction.  The symmetric channel has
    ``kplus == kminus == s``.
    """

    n: int
    e: int
    kplus: int
    kminus: int

    def __post_init__(self) -> None:
        for name in ("n", "e", "kplus", "kminus"):
            _require_int(name, getattr(self, name))
        if self.n < 1:
            raise InvalidParameterError(f"dimension must be positive, got n={self.n}")
        if not 0 <= self.e <= self.n:
            raise InvalidParameterError(f"need 0 <= e <= n, got e={self.e}, n={self.n}")
        if not self.kplus >= self.kminus >= 0:
            raise InvalidParameterError(
                f"need kplus >= kminus >= 0, got kplus={self.kplus}, kminus={self.kminus}"
            )
        if self.e >= 1 and self.kplus == 0:
            raise InvalidParameterError("kplus and kminus cannot both be 0 when e >= 1")

    @classmethod
    def symmetric(cls, n: int, e: int, s: int) -> "BallParams":
        """The symmetric ball with magnitude bound ``s`` in both directions."""
        _require_int("s", s, 1)
        return cls(n=n, e=e, kplus=s, kminus=s)

    @property
    def span(self) -> int:
        """Number of nonzero values available to an erroneous coordinate."""
        return self.kplus + self.kminus


@dataclass(frozen=True)
class IntVector:
    """A point of Z^n."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _require_ints("coordinate", self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


@dataclass(frozen=True)
class PairWeightMatrix:
    """Symbol-pair weight matrix for magnitude bound ``s``.

    Indexed by symbol values ``x, y`` in ``[-s, s]``: the entry is 0 when
    ``x == y``, 1 when ``1 <= |x - y| <= s`` and 2 when
    ``s + 1 <= |x - y| <= 2s``.
    """

    s: int
    entries: tuple[tuple[int, ...], ...]


def ball_volume(params: BallParams) -> int:
    """Exact number of vectors in the ball: sum of C(n,i) * (kplus+kminus)^i."""
    span = params.span
    return sum(comb(params.n, i) * span**i for i in range(params.e + 1))


#: Suffix lists of the lex walk are materialized up to about this many
#: images; longer balls are walked prefix by prefix, so a consumer that stops
#: early (a coset collision) leaves the rest of the ball unbuilt.
_WALK_BLOCK = 1 << 11


def _lex_walk(
    steps: list[tuple[list, list, list]], e: int, plus: Callable[[list, list], list]
) -> Iterator[list]:
    """Images of the ball vectors in lexicographic order, yielded in blocks.

    ``steps[i]`` holds the images of the values at coordinate i: the
    negative ones in increasing order, then [image of 0], then the positive
    ones.  ``plus(xs, ys)`` is ``[x + y for x in xs for y in ys]`` for an
    associative ``+`` that combines the images of a prefix and a suffix of
    coordinates.  A vector's image is the sum of its coordinates' images.
    """
    n = len(steps)
    neg, zero, pos = steps[-1]
    # tails[b]: images of the suffix from coordinate ``split`` on with at most
    # b nonzero entries, in lex order: [c + tail(b-1) for c < 0] + tail(b) +
    # [c + tail(b-1) for c > 0].  Budgets past the suffix length share a list.
    tails = [zero] + [neg + zero + pos] * e
    split = n - 1
    while split and len(tails[e]) < _WALK_BLOCK:
        split -= 1
        neg, zero, pos = steps[split]
        full = min(e, n - split)
        tails = [plus(zero, tails[0])] + [
            plus(neg, tails[b - 1]) + plus(zero, tails[b]) + plus(pos, tails[b - 1])
            for b in range(1, full + 1)
        ]
        tails += tails[-1:] * (e - full)

    def blocks(i: int, budget: int, head: list | None) -> Iterator[list]:
        # head: [image of coordinates < i], or None when i == 0
        if i == split:
            yield tails[budget] if head is None else plus(head, tails[budget])
            return
        for images, left in zip(steps[i], (budget - 1, budget, budget - 1)):
            if left >= 0:
                for c in images if head is None else plus(head, images):
                    yield from blocks(i + 1, left, [c])

    return blocks(0, e, None)


def iter_ball_coords(params: BallParams, cap: int = DEFAULT_ENUM_CAP) -> Iterator[tuple[int, ...]]:
    """Yield each ball vector once, as a raw tuple, in lexicographic order.

    The cap is checked on the call, not on the first ``next()``.
    """
    volume = ball_volume(params)
    if volume > cap:
        raise CapExceededError(f"ball volume {volume} exceeds the enumeration cap {cap}")
    values = [(v,) for v in range(-params.kminus, params.kplus + 1)]
    step = (values[: params.kminus], [(0,)], values[params.kminus + 1 :])
    blocks = _lex_walk([step] * params.n, params.e, lambda xs, ys: [x + y for x in xs for y in ys])
    return (w for block in blocks for w in block)


@lru_cache(maxsize=64)
def pair_weight_matrix(s: int) -> PairWeightMatrix:
    """The (2s+1) x (2s+1) symbol-pair weight matrix."""
    _require_int("s", s, 1)

    def weight(x: int, y: int) -> int:
        d = abs(x - y)
        if d == 0:
            return 0
        return 1 if d <= s else 2

    rows = tuple(
        tuple(weight(x, y) for y in range(-s, s + 1)) for x in range(-s, s + 1)
    )
    return PairWeightMatrix(s=s, entries=rows)


def volume_ratio_bound(n: int, e: int, r: int, s: int) -> Fraction:
    """Lower bound ((n-e-r+1)/(e+r))^r * (2s)^r on the volume ratio.

    Bounds the ratio of the radius-``(e+r)`` ball volume to the radius-``e``
    ball volume from below.  Valid whenever ``e + r <= n - 1``, which is
    exactly the domain on which the one-step bound ``(n-e')/(e'+1) * 2s``
    applies at every intermediate radius ``e' = e, ..., e+r-1``.
    """
    for name, value in (("n", n), ("e", e), ("r", r), ("s", s)):
        _require_int(name, value)
    if n < 1 or e < 0 or r < 1 or s < 1:
        raise InvalidParameterError(
            f"need n >= 1, e >= 0, r >= 1, s >= 1; got n={n}, e={e}, r={r}, s={s}"
        )
    if e + r > n - 1:
        raise HypothesesUnmetError(f"ratio bound needs e + r <= n - 1, got e+r={e + r}, n={n}")
    return Fraction((n - e - r + 1) ** r * (2 * s) ** r, (e + r) ** r)
