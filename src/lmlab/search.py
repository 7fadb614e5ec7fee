"""Exhaustive search for perfect lattice codes and finite-window checks.

Sublattices of Z^n of a given index are enumerated through their Hermite
normal forms (upper triangular, positive diagonal, entries above a diagonal
reduced modulo it), one representative per sublattice, in lexicographic
order by diagonal and then by the off-diagonal entries.

A perfect-code search builds the same bases bottom-up instead: first the
last row, then the row above it, and so on.  For an upper triangular basis,
L meets 0^i x Z^(n-i) in the lattice of rows i..n-1, so two ball vectors
supported on coordinates i..n-1 that these rows do not separate collide in
every completion, and the partial basis is pruned there.  A vector is
reduced into [0, d_i) x ... x [0, d_(n-1)) by back-substitution on the
rows and read as a mixed-radix key.  A vector with w_i = 0 keeps its key
when row i is prepended, so each level passes its key set down and reduces
only the vectors whose first nonzero coordinate is i; level 0 covers the
whole ball, which is the tiling test itself.  A diagonal entry is skipped
when fewer cosets remain than ball vectors supported below it.  No Smith
normal form is needed.

Window verification and density estimation are deliberately independent of
the quotient-group machinery: they place balls cell by cell inside a finite
box, which is the brute-force counterpart used to cross-check lattice
verdicts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    DEFAULT_ENUM_CAP,
    BallParams,
    IntVector,
    _require_int,
    _require_ints,
    ball_volume,
    iter_ball_coords,
)
from .errors import CapExceededError, DimensionMismatchError, InvalidParameterError
from .lattice import Lattice, QuotientMap
from .metric import DEFAULT_CELL_CAP, _first_overlap

#: Largest sublattice index the exhaustive enumeration will accept.
DEFAULT_INDEX_CAP = 10**4
#: Dimension limit for exhaustive sublattice searches.
MAX_SEARCH_DIMENSION = 4


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _ordered_factorizations(index: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (index,)
        return
    for d in _divisors(index):
        for rest in _ordered_factorizations(index // d, parts - 1):
            yield (d,) + rest


def _check_sublattice_args(n: int, index: int, index_cap: int) -> None:
    """The dimension and index checks of the enumerator and the search."""
    if not 1 <= _require_int("n", n) <= MAX_SEARCH_DIMENSION:
        raise InvalidParameterError(
            f"sublattice enumeration supports 1 <= n <= {MAX_SEARCH_DIMENSION}, got {n}"
        )
    _require_int("index", index, 1)
    if index > index_cap:
        raise CapExceededError(f"index {index} exceeds the enumeration cap {index_cap}")


def enumerate_sublattices(
    n: int, index: int, index_cap: int = DEFAULT_INDEX_CAP
) -> Iterator[Lattice]:
    """Yield one Hermite-normal-form generator per sublattice of the index.

    For a fixed diagonal (d_1, ..., d_n) with product equal to the index,
    the free entries are those above each diagonal element, ranging over
    [0, d_j); diagonals ascend lexicographically, then the off-diagonal
    entries read row by row.  ``n`` and ``index`` are checked on the call,
    before the first lattice is asked for.
    """
    _check_sublattice_args(n, index, index_cap)
    # Row i holds the n - 1 - i free entries right after its diagonal element.
    starts = [sum(n - 1 - k for k in range(i)) for i in range(n + 1)]

    def hnf() -> Iterator[Lattice]:
        for diag in _ordered_factorizations(index, n):
            ranges = [range(diag[j]) for i in range(n) for j in range(i + 1, n)]
            for offs in itertools.product(*ranges):
                yield Lattice(tuple(
                    (0,) * i + (diag[i],) + offs[starts[i]:starts[i + 1]] for i in range(n)
                ))

    return hnf()


def _level_keys(
    rows: list, i: int, vectors: list[tuple[int, ...]], seen: frozenset[int]
) -> frozenset[int] | None:
    """``seen`` plus the keys of ``vectors`` modulo HNF rows i..n-1, or None.

    Each vector, zero before coordinate i, is reduced into
    [0, d_i) x ... x [0, d_(n-1)) by back-substitution on the upper
    triangular rows (divide by d_k, subtract q * row_k) and read as a
    mixed-radix key.  None means a collision: two equal keys, or a key
    already in ``seen``.
    """
    n = len(rows)
    keys = set()
    for w in vectors:
        w = list(w)
        key = 0
        for k in range(i, n):
            row = rows[k]
            d = row[k]
            q, r = divmod(w[k], d)
            key = key * d + r
            if q:
                for j in range(k + 1, n):
                    w[j] -= q * row[j]
        if key in seen or key in keys:
            return None
        keys.add(key)
    return seen | keys


def search_perfect_lattices(
    params: BallParams,
    index_cap: int = DEFAULT_INDEX_CAP,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Lattice]:
    """All HNF lattices of index |ball| whose translates tile Z^n by the ball.

    The search is exhaustive, so the returned list is the complete
    collection of perfect lattice codes for these parameters (one canonical
    generator per lattice), sorted canonically.  Bases are built from the
    last row up, and a partial basis is dropped as soon as its rows fail to
    separate the ball vectors supported on their coordinates; a full basis
    of index |ball| that separates the whole ball tiles.
    """
    n, index = params.n, ball_volume(params)
    _check_sublattice_args(n, index, index_cap)
    # fresh[i]: the ball vectors whose first nonzero coordinate is i (zero at n - 1).
    fresh: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for w in iter_ball_coords(params, cap):
        fresh[next((i for i, x in enumerate(w) if x), n - 1)].append(w)
    # supported[i]: how many ball vectors vanish before coordinate i.
    supported = list(itertools.accumulate(map(len, fresh[::-1])))[::-1]
    rows: list = [None] * n
    found = []

    def extend(i: int, seen: frozenset[int], rest: int, cosets: int) -> None:
        # rest: the index left for d_0 ... d_i; cosets: d_(i+1) ... d_(n-1).
        ranges = [range(rows[j][j]) for j in range(i + 1, n)]
        for d in _divisors(rest) if i else (rest,):
            if supported[i] > d * cosets:  # fewer cosets than vectors to separate
                continue
            for offs in itertools.product(*ranges):
                rows[i] = (0,) * i + (d,) + offs
                keys = _level_keys(rows, i, fresh[i], seen)
                if keys is None:
                    continue
                if i:
                    extend(i - 1, keys, rest // d, cosets * d)
                else:
                    found.append(Lattice(tuple(rows)))

    extend(n - 1, frozenset(), index, 1)
    found.sort(key=lambda lat: lat.gen)
    return found


def _normalize_translates(
    translates: Iterable[IntVector | Sequence[int]], n: int
) -> list[tuple[int, ...]]:
    out = []
    for t in translates:
        coords = _require_ints("coordinate", t)
        if len(coords) != n:
            raise DimensionMismatchError(
                f"translate {coords} has length {len(coords)}, expected {n}"
            )
        out.append(coords)
    return out


def verify_window_packing(
    translates: Iterable[IntVector | Sequence[int]],
    params: BallParams,
    window: int,
    cap: int = DEFAULT_CELL_CAP,
) -> tuple[bool, IntVector | None]:
    """Brute-force disjointness of translated balls inside [-window, window]^n.

    Cells outside the window are ignored.  Returns ``(True, None)`` when no
    two balls share a window cell, otherwise ``(False, cell)`` with an
    overlapping cell as witness.
    """
    _require_int("window", window, 0)
    cell = _first_overlap(_normalize_translates(translates, params.n), params, window, cap)
    return (True, None) if cell is None else (False, IntVector(cell))


def lattice_points_in_window(
    lattice: Lattice, window: int, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[int, ...]]:
    """All lattice points inside [-window, window]^n, in lexicographic order."""
    _require_int("window", window, 0)
    n = lattice.n
    cells = (2 * window + 1) ** n
    if cells > cap:
        raise CapExceededError(f"window holds {cells} cells, cap is {cap}")
    qmap = QuotientMap(lattice)
    zero = (0,) * n
    return [
        cell
        for cell in itertools.product(range(-window, window + 1), repeat=n)
        if qmap.residue(cell) == zero
    ]


def estimate_density(
    subject: Lattice | Iterable[IntVector | Sequence[int]],
    params: BallParams,
    window: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """Exact covered fraction |T in window| * |ball| / (2*window+1)^n.

    ``subject`` is a lattice or an explicit translate set.  For a tiling the
    estimate differs from 1 only through boundary effects: balls centered in
    the window cover at least the box shrunk by the ball reach ``kplus`` and
    at most the box grown by it, so the estimate is sandwiched between
    ``((2W-2k+1)/(2W+1))^n`` and ``((2W+2k+1)/(2W+1))^n``, a 1 + O(1/W)
    window.  Counts and the final ratio are exact rationals.
    """
    _require_int("window", window, 0)
    if isinstance(subject, Lattice):
        if subject.n != params.n:
            raise DimensionMismatchError(
                f"lattice dimension {subject.n} does not match ball dimension {params.n}"
            )
        count = len(lattice_points_in_window(subject, window, cap))
    else:
        points = _normalize_translates(subject, params.n)
        count = sum(1 for p in points if all(abs(c) <= window for c in p))
    total_cells = (2 * window + 1) ** params.n
    return Fraction(count * ball_volume(params), total_cells)
