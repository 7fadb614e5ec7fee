"""The channel distance and exact correction-capability checks.

The distance between two vectors counts coordinates whose difference has
magnitude in ``[1, s]`` once and coordinates with magnitude in
``[s+1, 2s]`` twice; any larger difference is unreachable by two errors and
the distance saturates at the sentinel ``2n + 1``.  A code corrects ``e``
errors exactly when all pairwise distances are at least ``2e + 1``, which is
in turn equivalent to disjointness of the translated error balls.  Both
formulations are implemented here, independently, so their agreement can be
tested rather than assumed.

No triangle inequality is assumed or asserted anywhere: none of the checks
needs it, and it is deliberately left out of the tested surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import BallParams, IntVector, _require_int, _require_ints, ball_volume, iter_ball_coords
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    TooFewCodewordsError,
)

#: Default guardrail for disjointness checks (total ball cells touched).
DEFAULT_CELL_CAP = 10**6
#: Default guardrail for the difference-set equivalence oracle (vector pairs).
DEFAULT_PAIR_CAP = 10**6


@dataclass(frozen=True)
class Code:
    """A finite set of pairwise-distinct codewords in Z^n."""

    n: int
    words: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        for w in self.words:
            if len(w) != self.n:
                raise DimensionMismatchError(
                    f"codeword {w.coords} has length {len(w)}, expected {self.n}"
                )
        if len({w.coords for w in self.words}) != len(self.words):
            raise InvalidParameterError("codewords must be pairwise distinct")

    @classmethod
    def from_coords(cls, words: Iterable[Sequence[int]], n: int | None = None) -> "Code":
        vectors = tuple(IntVector(w) for w in words)
        if n is None:
            if not vectors:
                raise InvalidParameterError("cannot infer dimension of an empty code")
            n = len(vectors[0])
        return cls(n=n, words=vectors)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


def channel_distance(x: IntVector | Sequence[int], y: IntVector | Sequence[int], s: int) -> int:
    """Channel distance between ``x`` and ``y`` for magnitude bound ``s``."""
    _require_int("s", s, 1)
    xs, ys = _require_ints("coordinate", x), _require_ints("coordinate", y)
    if len(xs) != len(ys):
        raise DimensionMismatchError(f"vector lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    near = far = 0
    for a, b in zip(xs, ys):
        d = abs(a - b)
        if d == 0:
            continue
        if d <= s:
            near += 1
        elif d <= 2 * s:
            far += 1
        else:
            return 2 * n + 1
    return near + 2 * far


def min_distance(code: Code, s: int) -> int:
    """Minimum channel distance over unordered codeword pairs."""
    if len(code) < 2:
        raise TooFewCodewordsError("minimum distance needs at least two codewords")
    return min(
        channel_distance(a, b, s) for a, b in itertools.combinations(code.words, 2)
    )


def is_e_correcting(
    code: Code,
    e: int,
    s: int,
    method: str = "distance",
    cap: int = DEFAULT_CELL_CAP,
) -> bool:
    """Whether ``code`` corrects ``e`` errors of magnitude at most ``s``.

    ``method="distance"`` tests ``min_distance >= 2e + 1``;
    ``method="disjointness"`` explicitly intersects the translated error
    balls.  The two must agree; the test suite exercises that equivalence.
    """
    if _require_int("e", e, 0) > code.n:
        raise InvalidParameterError(f"need 0 <= e <= n, got e={e}, n={code.n}")
    if method not in ("distance", "disjointness"):
        raise InvalidParameterError(
            f"unknown method {method!r}; use 'distance' or 'disjointness'"
        )
    if len(code) < 2:
        return True
    if method == "distance":
        return min_distance(code, s) >= 2 * e + 1
    params = BallParams.symmetric(code.n, e, s)
    centers = [w.coords for w in code.words]
    # A window reaching every ball cell turns the windowed check into a full one.
    window = max(abs(c) for w in centers for c in w) + s
    return _first_overlap(centers, params, window, cap) is None


def _first_overlap(
    centers: list[tuple[int, ...]], params: BallParams, window: int, cap: int
) -> tuple[int, ...] | None:
    """First cell of [-window, window]^n covered by balls around two distinct centers.

    Places the balls cell by cell, in center order and then ball order, and
    returns ``None`` when no window cell is covered twice.  Pure Python and
    independent of the quotient-group machinery, on purpose: it is the
    brute-force oracle the lattice verdicts are checked against.
    """
    total = len(centers) * ball_volume(params)
    if total > cap:
        raise CapExceededError(f"ball placement needs {total} cells, cap is {cap}")
    ball = list(iter_ball_coords(params, cap))
    occupied: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t in centers:
        for b in ball:
            cell = tuple(a + d for a, d in zip(t, b))
            if any(abs(c) > window for c in cell):
                continue
            owner = occupied.get(cell)
            if owner is not None and owner != t:
                return cell
            occupied[cell] = t
    return None


def difference_set_equivalence(
    n: int, t: int, s: int, cap: int = DEFAULT_PAIR_CAP
) -> tuple[bool, IntVector | None]:
    """Difference-set oracle for the distance definition.

    Compares, by exhaustive enumeration, the set of differences of two
    radius-``t`` ball vectors with the set of vectors in ``[-2s, 2s]^n``
    whose distance to the origin is at most ``2t``.  Returns
    ``(True, None)`` when they coincide, otherwise ``(False, witness)``
    with a vector from the symmetric difference.
    """
    params = BallParams.symmetric(n, t, s)
    volume = ball_volume(params)
    if volume * volume > cap:
        raise CapExceededError(
            f"equivalence oracle needs {volume * volume} pairs, cap is {cap}"
        )
    ball = list(iter_ball_coords(params, cap))
    differences = {
        tuple(a - b for a, b in zip(e1, e2)) for e1 in ball for e2 in ball
    }
    zero = (0,) * n
    small_distance = {
        v
        for v in itertools.product(range(-2 * s, 2 * s + 1), repeat=n)
        if channel_distance(v, zero, s) <= 2 * t
    }
    if differences == small_distance:
        return True, None
    witness = min(differences.symmetric_difference(small_distance))
    return False, IntVector(witness)
