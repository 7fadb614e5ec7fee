"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned in the assertions; the runtime
limits are asserted, not aspirational.
"""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb

from lmlab import (
    BUNDLED_TILINGS,
    BallParams,
    Code,
    Lattice,
    difference_set_equivalence,
    ball_volume,
    bound_large_s,
    bound_small_s,
    classify,
    continuous_oracle_search,
    density_bound_asymptotic,
    distance_decomposition,
    form_max_closed,
    form_max_oracle_binary,
    form_envelope,
    is_e_correcting,
    lattice_density,
    packing_density_bound,
    search_perfect_lattices,
    table_row,
    verify_lattice_tiling,
    verify_window_packing,
    volume_ratio_bound,
)
from lmlab.search import lattice_points_in_window


def criterion(num, name, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                if elapsed >= limit_seconds:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeds the {limit_seconds}s limit"
                    )
            except BaseException:
                print(f"acceptance {num:02d} {name}: FAIL")
                raise
            print(
                f"acceptance {num:02d} {name}: PASS"
                f" ({elapsed:.2f}s, limit {limit_seconds}s)"
            )

        return wrapper

    return decorate


@criterion(1, "table reproduction", 1.0)
def test_criterion_01_table_rows():
    expected_rows = [
        (1, Fraction(1, 10), 641, Fraction("6.84")),
        (1, Fraction(1, 15), 1591, Fraction("9.92")),
        (1, Fraction(1, 20), 3041, Fraction("13.01")),
        (2, Fraction(1, 10), 501, Fraction("6.12")),
        (2, Fraction(1, 15), 1201, Fraction("8.80")),
        (2, Fraction(1, 20), 2241, Fraction("11.46")),
    ]
    for s, eps, min_n, coeff in expected_rows:
        row = table_row(s, eps)
        assert row.min_n == min_n, (s, eps, row)
        assert row.coefficient == coeff, (s, eps, row)


@criterion(2, "distance/ball equivalence", 120.0)
def test_criterion_02_equivalence_and_method_agreement():
    # The radius of a ball never exceeds the dimension, so the grid is the
    # valid triples with n <= 3, t <= 2, s <= 2.
    for n in (1, 2, 3):
        for t in (1, 2):
            if t > n:
                continue
            for s in (1, 2):
                equal, witness = difference_set_equivalence(n, t, s)
                assert equal and witness is None, (n, t, s, witness)

    rng = random.Random(20250815)
    for _ in range(500):
        n = rng.randint(1, 3)
        s = rng.randint(1, 2)
        size = rng.randint(1, 4)
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(-3 * s, 3 * s) for _ in range(n)))
        code = Code.from_coords(sorted(words))
        e = rng.randint(0, n)
        by_distance = is_e_correcting(code, e, s, "distance")
        by_disjointness = is_e_correcting(code, e, s, "disjointness")
        assert by_distance == by_disjointness, (code, e, s)


@criterion(3, "quadratic-form maxima vs oracle", 300.0)
def test_criterion_03_qp_maxima():
    for s in (1, 2, 3):
        for big_k in range(2, 13):
            for a in range(0, big_k + 1):
                closed, argmax = form_max_closed(s, big_k, a)
                oracle = continuous_oracle_search(s, big_k, a)[0]
                assert oracle <= float(closed) + 1e-6, (s, big_k, a, oracle, closed)
                if closed > 0:
                    assert oracle >= float(closed) * (1 - 1e-3), (s, big_k, a, oracle, closed)
                else:
                    assert oracle == 0.0


@criterion(4, "0/1 envelope dominance", 60.0)
def test_criterion_04_binary_envelope():
    for s in range(1, 7):
        for big_k in range(2, 11):
            for a in range(0, min(2 * s, big_k) + 1):
                binary = form_max_oracle_binary(s, big_k, a)
                assert Fraction(binary) <= form_envelope(a, big_k, s), (s, big_k, a)
    assert form_max_oracle_binary(2, 5, 3) == 22
    assert form_envelope(3, 5, 2) == Fraction(45, 2)


@criterion(5, "tiling verification goldens", 10.0)
def test_criterion_05_tiling_goldens():
    cross = Lattice(((1, 2), (2, -1)))
    assert verify_lattice_tiling(cross, BallParams.symmetric(2, 1, 1)).verdict == "tiles"

    for n in range(1, 5):
        for s in (1, 2):
            box = Lattice.diagonal((2 * s + 1,) * n)
            result = verify_lattice_tiling(box, BallParams.symmetric(n, n, s))
            assert result.verdict == "tiles", (n, s)

    # diag(7, 1) is not a tiling and its density is exactly 5/7.  It does
    # not pack either: (0, 1) lies in the lattice, so the verifier reports
    # the exact verdict "fails" with a certified witness pair (see the
    # decisions ledger on the "packs-but-not-tiles" wording).
    sparse = Lattice.diagonal((7, 1))
    params = BallParams.symmetric(2, 1, 1)
    result = verify_lattice_tiling(sparse, params)
    assert result.verdict == "fails"
    assert result.witness is not None
    a, b = result.witness
    assert sparse.contains([x - y for x, y in zip(a, b)])
    assert lattice_density(sparse, params) == Fraction(5, 7)


@criterion(6, "exhaustive search regression", 30.0)
def test_criterion_06_search_regression():
    params = BallParams.symmetric(2, 1, 1)
    found = search_perfect_lattices(params)
    assert [lat.to_text() for lat in found] == ["1,2;0,5", "1,3;0,5"]
    for lat in found:
        translates = lattice_points_in_window(lat, 12 + 2)
        ok, witness = verify_window_packing(translates, params, 12)
        assert ok, (lat.to_text(), witness)


@criterion(7, "volume-ratio bound grid", 120.0)
def test_criterion_07_ratio_grid():
    checked = 0
    for s in range(1, 6):
        for n in range(2, 61):
            volumes = []
            acc = 0
            for e in range(n + 1):
                acc += comb(n, e) * (2 * s) ** e
                volumes.append(acc)
            for e in range(0, n - 1):
                for r in range(1, n - e):
                    bound = volume_ratio_bound(n, e, r, s)
                    # ratio >= bound, cross-multiplied in exact integers
                    assert (
                        volumes[e + r] * bound.denominator
                        >= volumes[e] * bound.numerator
                    ), (n, e, r, s)
                    checked += 1
    assert checked > 150_000


@criterion(8, "classifier spot checks and soundness", 10.0)
def test_criterion_08_classifier():
    large_hit = bound_large_s(100, 40, 4)
    assert large_hit.status == "excludes"
    assert "25e^2 = 40000" in large_hit.detail and "309n = 30900" in large_hit.detail
    assert classify(100, 40, 4).verdict == "excluded"
    assert bound_large_s(100, 35, 4).status == "silent"
    assert classify(100, 35, 4).verdict != "excluded"

    assert bound_small_s(1000, 200, 1).status == "excludes"
    assert classify(1000, 200, 1).verdict == "excluded"
    assert bound_small_s(1000, 100, 1).status == "silent"
    assert bound_small_s(1000, 495, 1).status == "silent"

    for (n, e, s) in BUNDLED_TILINGS:
        assert classify(n, e, s).verdict == "exists", (n, e, s)
    for n in range(1, 5):
        for s in (1, 2):
            assert classify(n, n, s).verdict == "exists", (n, s)
            assert classify(n, 0, s).verdict == "exists", (n, s)
    for params in [(2, 1, 1), (2, 2, 1), (1, 1, 3)]:
        for lat in search_perfect_lattices(BallParams.symmetric(*params)):
            assert verify_lattice_tiling(lat, BallParams.symmetric(*params)).verdict == "tiles"
            assert classify(*params).verdict != "excluded", params


@criterion(9, "density-bound formula", 5.0)
def test_criterion_09_density_bound():
    bound = packing_density_bound(100, 50, 4)
    assert bound.applicable and not bound.vacuous
    # Exact value of the formula n e (e+1) / (((e+1)^2 - 2n) s (n-e)):
    # numerator 100*50*51 = 255000, denominator (51^2 - 200)*4*50 = 480200.
    assert bound.value == Fraction(255000, 480200)

    assert packing_density_bound(100, 10, 2) == (False, None, False)

    vacuous = packing_density_bound(100, 50, 2)
    assert vacuous.applicable and vacuous.vacuous and vacuous.value >= 1

    limit = density_bound_asymptotic("linear", Fraction(1, 2), 2)
    gaps = [
        abs(packing_density_bound(n, n // 2, 2).value - limit)
        for n in (100, 1000, 10000)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


@criterion(10, "distance decomposition identity", 30.0)
def test_criterion_10_decomposition():
    worked = Code.from_coords([(1, 0), (0, 1), (-1, -1)])
    assert distance_decomposition(worked, 1) == (16, 16, True)

    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 4)
        s = rng.randint(1, 3)
        size = rng.randint(1, 5)
        box = (2 * s + 1) ** n
        size = min(size, box)
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(-s, s) for _ in range(n)))
        code = Code.from_coords(sorted(words))
        ordered, coordwise, equal = distance_decomposition(code, s)
        assert equal, (code, s, ordered, coordwise)
