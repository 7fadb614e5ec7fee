import itertools
from fractions import Fraction

import pytest

from lmlab import (
    BallParams,
    CapExceededError,
    InvalidParameterError,
    Lattice,
    ball_volume,
    enumerate_sublattices,
    estimate_density,
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
        assert sum(1 for _ in enumerate_sublattices(2, p)) == p + 1

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

    def test_window_count_matches_membership(self):
        points = lattice_points_in_window(CROSS, 6)
        assert all(CROSS.contains(p) for p in points)
        brute = sum(
            1
            for cell in itertools.product(range(-6, 7), repeat=2)
            if CROSS.contains(cell)
        )
        assert len(points) == brute
