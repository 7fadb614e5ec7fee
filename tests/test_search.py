import hashlib
import itertools
from fractions import Fraction

import pytest

import lmlab.lattice
import lmlab.search
from lmlab import (
    BallParams,
    CapExceededError,
    InvalidParameterError,
    Lattice,
    ball_volume,
    enumerate_sublattices,
    estimate_density,
    iter_ball_coords,
    lattice_density,
    lattice_points_in_window,
    search_perfect_lattices,
    verify_lattice_tiling,
    verify_window_packing,
)

P211 = BallParams.symmetric(2, 1, 1)
CROSS = Lattice(((1, 2), (2, -1)))


class TestEnumerateSublattices:
    def test_index_five_plane(self):
        got = [lat.to_text() for lat in enumerate_sublattices(2, 5)]
        assert got == ["1,0;0,5", "1,1;0,5", "1,2;0,5", "1,3;0,5", "1,4;0,5", "5,0;0,1"]

    def test_dimension_one(self):
        assert [lat.gen for lat in enumerate_sublattices(1, 12)] == [((12,),)]

    def test_identity_index(self):
        assert [lat.gen for lat in enumerate_sublattices(2, 1)] == [((1, 0), (0, 1))]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_count_in_plane(self, p):
        # Index-p sublattices of Z^n are the hyperplanes of F_p^n: (p^n - 1)/(p - 1).
        for n in range(1, 5):
            assert sum(1 for _ in enumerate_sublattices(n, p)) == (p**n - 1) // (p - 1)

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 28), (3, 455), (4, 6200)])
    def test_count_is_multiplicative_on_coprime_indexes(self, n, expected):
        def count(index):
            return sum(1 for _ in enumerate_sublattices(n, index))

        assert count(12) == count(4) * count(3) == expected

    @pytest.mark.parametrize("index,expected", [(2, 7), (3, 13), (4, 35)])
    def test_known_counts_dimension_three(self, index, expected):
        assert sum(1 for _ in enumerate_sublattices(3, index)) == expected

    def test_determinants_and_uniqueness(self):
        for n, index in [(2, 12), (3, 6), (4, 4)]:
            lattices = list(enumerate_sublattices(n, index))
            assert len({lat.gen for lat in lattices}) == len(lattices)
            assert all(lat.det_abs == index for lat in lattices)

    def test_hnf_shape(self):
        for lat in enumerate_sublattices(3, 8):
            gen = lat.gen
            for i in range(3):
                assert gen[i][i] > 0
                for j in range(3):
                    if j < i:
                        assert gen[i][j] == 0
                    elif j > i:
                        assert 0 <= gen[i][j] < gen[j][j]

    def test_caps_and_dimension_limit(self):
        with pytest.raises(CapExceededError):
            list(enumerate_sublattices(2, 10**5))
        with pytest.raises(InvalidParameterError):
            list(enumerate_sublattices(5, 2))


class TestSearchPerfectLattices:
    def test_plane_cross_regression(self):
        found = [lat.to_text() for lat in search_perfect_lattices(P211)]
        assert found == ["1,2;0,5", "1,3;0,5"]

    def test_box_ball_includes_diagonal(self):
        found = search_perfect_lattices(BallParams.symmetric(2, 2, 1))
        assert Lattice.diagonal((3, 3)) in found
        assert all(
            verify_lattice_tiling(lat, BallParams.symmetric(2, 2, 1)).verdict == "tiles"
            for lat in found
        )

    def test_interval_tiling(self):
        found = search_perfect_lattices(BallParams.symmetric(1, 1, 3))
        assert [lat.gen for lat in found] == [((7,),)]

    def test_found_lattices_pass_window_verification(self):
        for lat in search_perfect_lattices(P211):
            window = 4 * max(lat.gen[i][i] for i in range(lat.n))
            translates = lattice_points_in_window(lat, window + 2)
            ok, witness = verify_window_packing(translates, P211, window)
            assert ok, witness

    def test_found_density_converges_to_exact(self):
        for lat in search_perfect_lattices(P211):
            exact = lattice_density(lat, P211)
            assert exact == 1
            gaps = [abs(estimate_density(lat, P211, w) - exact) for w in (6, 18)]
            assert gaps[1] < gaps[0]
            for w, gap in zip((6, 18), gaps):
                hi = Fraction(2 * w + 3, 2 * w + 1) ** 2 - 1
                lo = 1 - Fraction(2 * w - 1, 2 * w + 1) ** 2
                assert gap <= max(lo, hi)

    def test_column_permutation_preserves_tiling(self):
        for params in (P211, BallParams.symmetric(2, 2, 1)):
            for lat in search_perfect_lattices(params):
                for perm in itertools.permutations(range(lat.n)):
                    permuted = Lattice(
                        tuple(tuple(row[j] for j in perm) for row in lat.gen)
                    )
                    assert verify_lattice_tiling(permuted, params).verdict == "tiles"


def tilings_by_verification(params):
    """The search the HNF kernel replaces: ``verify_lattice_tiling`` on every candidate."""
    candidates = enumerate_sublattices(params.n, ball_volume(params))
    found = [lat for lat in candidates if verify_lattice_tiling(lat, params).verdict == "tiles"]
    return sorted(found, key=lambda lat: lat.gen)


def symmetric_grid(n, max_volume):
    """Every symmetric ball of dimension n and volume at most ``max_volume``."""
    grid = [BallParams.symmetric(n, 0, 1)]
    for e in range(1, n + 1):
        s = 1
        while ball_volume(BallParams.symmetric(n, e, s)) <= max_volume:
            grid.append(BallParams.symmetric(n, e, s))
            s += 1
    return grid


def in_hnf(rows, vec):
    """Membership in an upper triangular lattice by back-substitution."""
    w = list(vec)
    for i, row in enumerate(rows):
        q, r = divmod(w[i], row[i])
        if r:
            return False
        w = [a - q * b for a, b in zip(w, row)]
    return True


class TestSearchAgainstVerification:
    # Volume limits per dimension keep the reference, one SNF per candidate,
    # near 14,000 candidates in all.
    @pytest.mark.parametrize("n,max_volume", [(1, 300), (2, 100), (3, 40), (4, 17)])
    def test_symmetric_grid(self, n, max_volume):
        for params in symmetric_grid(n, max_volume):
            assert search_perfect_lattices(params) == tilings_by_verification(params), params

    @pytest.mark.parametrize("params", [BallParams(2, 2, 3, 1), BallParams(3, 2, 1, 0)])
    def test_asymmetric_balls(self, params):
        found = search_perfect_lattices(params)
        assert found and found == tilings_by_verification(params)

    @pytest.mark.parametrize("n,e,s", [(3, 1, 1), (2, 2, 2), (3, 3, 1), (4, 1, 2)])
    def test_sign_flips_are_found(self, n, e, s):
        found = search_perfect_lattices(BallParams.symmetric(n, e, s))
        assert found
        for lat in found:
            for k in range(n):
                flipped = Lattice(
                    tuple(tuple(-x if j == k else x for j, x in enumerate(row)) for row in lat.gen)
                )
                match = [m for m in found if all(in_hnf(m.gen, row) for row in flipped.gen)]
                assert len(match) == 1, (lat, k)
                assert all(match[0].contains(row) for row in flipped.gen)
                assert all(flipped.contains(row) for row in match[0].gen)

    def test_never_computes_a_smith_normal_form(self, monkeypatch):
        def fail(*args):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(lmlab.lattice, "smith_normal_form", fail)
        with pytest.raises(AssertionError):
            # A fresh lattice: CROSS may hold its cached SNF from an earlier test.
            verify_lattice_tiling(Lattice(CROSS.gen), P211)
        assert [lat.to_text() for lat in search_perfect_lattices(P211)] == ["1,2;0,5", "1,3;0,5"]
        assert len(search_perfect_lattices(BallParams.symmetric(4, 1, 2))) == 96

    def test_parameters_are_checked_before_the_ball_is_built(self, monkeypatch):
        def fail(*args):
            raise AssertionError("ball enumerated")

        monkeypatch.setattr(lmlab.search, "iter_ball_coords", fail)
        for params in (BallParams.symmetric(5, 1, 1), BallParams.symmetric(5, 5, 30)):
            with pytest.raises(InvalidParameterError, match="1 <= n <= 4"):
                search_perfect_lattices(params)
        # 11^4 = 14,641 and 81^4 (a ball past the 10^7 enumeration cap).
        for s, index in ((5, 14641), (40, 81**4)):
            with pytest.raises(CapExceededError, match=f"index {index} exceeds the enumeration cap"):
                search_perfect_lattices(BallParams.symmetric(4, 4, s))


def separates(rows, ball):
    """The full-ball tiling test the pruned search replaced.

    Reduces each vector into [0, d_1) x ... x [0, d_n) by back-substitution
    on the upper triangular rows and reads it as a mixed-radix key.
    """
    n = len(rows)
    seen = set()
    for w in ball:
        w = list(w)
        key = 0
        for i, row in enumerate(rows):
            d = row[i]
            q, r = divmod(w[i], d)
            key = key * d + r
            if q:
                for j in range(i + 1, n):
                    w[j] -= q * row[j]
        if key in seen:
            return False
        seen.add(key)
    return True


def tilings_by_separation(params):
    """The search before pruning: ``separates`` on every HNF candidate, sorted."""
    ball = list(iter_ball_coords(params))
    candidates = enumerate_sublattices(params.n, ball_volume(params))
    return sorted((lat for lat in candidates if separates(lat.gen, ball)), key=lambda lat: lat.gen)


def digest(lattices):
    text = "\n".join(lat.to_text() for lat in lattices)
    return len(lattices), hashlib.sha256(text.encode()).hexdigest()


#: (n, e, s) -> (count, sha256 of the newline-joined sorted lattice texts),
#: recorded from the unpruned search.
SEARCH_GOLDENS = {
    (4, 1, 2): (96, "b4d54b444a980777a6b48f93ac186bdefb73e9b4811f9d8045745699cb1d4e84"),
    (4, 1, 1): (72, "957990cada222089d2db5d8308328d41ea36ce68465e119c2b12208e7a7b9b39"),
    (3, 3, 1): (109, "afe509ca2f9c4de52bf660afc464737c503404db7120a805be1c92d8f19679c4"),
    (3, 3, 2): (601, "bef6a1a7df51fa5fa1cd1883f3fbb712b9b4e6abe682b152fd0a902628d3fc4d"),
    (4, 2, 1): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


class TestPrunedSearch:
    # About 150,000 HNF candidates for the reference in all.
    @pytest.mark.parametrize("n,max_volume", [(2, 300), (3, 120), (4, 30)])
    def test_symmetric_grid_matches_full_separation(self, n, max_volume):
        for params in symmetric_grid(n, max_volume):
            assert search_perfect_lattices(params) == tilings_by_separation(params), params

    @pytest.mark.parametrize(
        "params",
        [
            BallParams(2, 1, 3, 0),
            BallParams(2, 2, 2, 0),
            BallParams(3, 1, 2, 0),
            BallParams(3, 2, 1, 0),
            BallParams(4, 1, 3, 0),
            BallParams(2, 1, 3, 1),
            BallParams(2, 2, 3, 1),
            BallParams(3, 1, 3, 1),
            BallParams(3, 2, 2, 1),
            BallParams(4, 1, 2, 1),
            BallParams(3, 0, 2, 1),
            BallParams(4, 0, 3, 0),
            BallParams(3, 3, 2, 0),
            BallParams(3, 3, 2, 1),
            BallParams(4, 4, 1, 0),
        ],
        ids=str,
    )
    def test_asymmetric_balls_match_full_separation(self, params):
        assert search_perfect_lattices(params) == tilings_by_separation(params)

    @pytest.mark.parametrize("triple", sorted(SEARCH_GOLDENS), ids=str)
    def test_goldens(self, triple):
        assert digest(search_perfect_lattices(BallParams.symmetric(*triple))) == SEARCH_GOLDENS[triple]

    def test_trailing_rows_prune_hopeless_candidates(self, monkeypatch):
        checks = []
        level_keys = lmlab.search._level_keys

        def counted(*args):
            checks.append(args[1])
            return level_keys(*args)

        monkeypatch.setattr(lmlab.search, "_level_keys", counted)
        assert search_perfect_lattices(BallParams.symmetric(4, 1, 3)) == []
        candidates = sum(1 for _ in enumerate_sublattices(4, 25))
        assert candidates == 20306
        assert checks and 10 * len(checks) < candidates
        # Only d_3 = 25 leaves room for the 7 ball vectors on the last
        # coordinate, and no partial basis survives to the top row.
        assert checks.count(3) == 1 and 0 not in checks

    def test_never_walks_the_sublattice_enumerator(self, monkeypatch):
        def fail(*args):
            raise AssertionError("enumerate_sublattices called")

        monkeypatch.setattr(lmlab.search, "enumerate_sublattices", fail)
        assert digest(search_perfect_lattices(BallParams.symmetric(4, 1, 2))) == SEARCH_GOLDENS[(4, 1, 2)]


class TestVerifyWindowPacking:
    def test_cross_lattice_translates_disjoint(self):
        translates = lattice_points_in_window(CROSS, 12)
        ok, witness = verify_window_packing(translates, P211, 10)
        assert ok and witness is None

    def test_adjacent_translates_overlap(self):
        ok, witness = verify_window_packing([(0, 0), (1, 0)], P211, 5)
        assert not ok
        # The witness cell is covered by balls of two distinct translates.
        ball = set(
            b for b in itertools.product(range(-1, 2), repeat=2) if sum(map(abs, b)) <= 1
        )
        covering = [
            t
            for t in [(0, 0), (1, 0)]
            if tuple(c - x for c, x in zip(witness.coords, t)) in ball
        ]
        assert len(covering) == 2

    def test_single_translate(self):
        ok, witness = verify_window_packing([(3, 3)], P211, 5)
        assert ok and witness is None

    def test_cells_outside_window_ignored(self):
        # These balls overlap at (10, 0), outside a window of radius 5.
        ok, _ = verify_window_packing([(9, 0), (11, 0)], P211, 5)
        assert ok

    def test_cap(self):
        with pytest.raises(CapExceededError):
            verify_window_packing([(0, 0)] , P211, 5, cap=3)


class TestEstimateDensity:
    def test_cross_window_exact_value(self):
        # 89 lattice points in the 21x21 box, frozen by independent counting.
        assert estimate_density(CROSS, P211, 10) == Fraction(445, 441)

    def test_cross_within_boundary_sandwich(self):
        for window in (10, 30):
            d = estimate_density(CROSS, P211, window)
            lo = Fraction(2 * window - 1, 2 * window + 1) ** 2
            hi = Fraction(2 * window + 3, 2 * window + 1) ** 2
            assert lo <= d <= hi
        gap10 = abs(estimate_density(CROSS, P211, 10) - 1)
        gap30 = abs(estimate_density(CROSS, P211, 30) - 1)
        assert gap30 < gap10

    def test_sparse_packing_window_values(self):
        lat = Lattice.diagonal((7, 1))
        # 205 points in the 41x41 box; exact when the box width is a multiple of 7.
        assert estimate_density(lat, P211, 20) == Fraction(1025, 1681)
        assert estimate_density(lat, P211, 24) == Fraction(5, 7)
        assert lattice_density(lat, P211) == Fraction(5, 7)

    def test_translate_set_and_empty(self):
        assert estimate_density([], P211, 5) == 0
        assert estimate_density([(0, 0)], P211, 1) == Fraction(5, 9)
        assert estimate_density([(0, 0), (99, 99)], P211, 5) == Fraction(
            ball_volume(P211), 121
        )

    @pytest.mark.parametrize("window", [True, 2.0, -1])
    def test_window_is_checked(self, window):
        with pytest.raises(InvalidParameterError, match="window"):
            lattice_points_in_window(CROSS, window)

    def test_window_count_matches_membership(self):
        points = lattice_points_in_window(CROSS, 6)
        assert all(CROSS.contains(p) for p in points)
        brute = sum(
            1
            for cell in itertools.product(range(-6, 7), repeat=2)
            if CROSS.contains(cell)
        )
        assert len(points) == brute
