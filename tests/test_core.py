import itertools
import types
from fractions import Fraction
from math import comb

import pytest

import lmlab.core
from lmlab import (
    BallParams,
    CapExceededError,
    HypothesesUnmetError,
    IntVector,
    InvalidParameterError,
    Lattice,
    QuotientMap,
    ball_volume,
    bound_asymptotic,
    bound_large_s,
    bound_lattice_cases,
    bound_prereq,
    bound_small_s,
    channel_distance,
    classify,
    density_bound_asymptotic,
    enumerate_sublattices,
    form_envelope,
    lattice_points_in_window,
    packing_density_bound,
    pair_weight_matrix,
    iter_ball_coords,
    table_row,
    verify_window_packing,
    volume_ratio_bound,
)


def brute_ball(n, e, kplus, kminus):
    """Independent enumeration oracle: filter the whole coordinate box."""
    out = []
    for v in itertools.product(range(-kminus, kplus + 1), repeat=n):
        if sum(1 for c in v if c) <= e:
            out.append(v)
    return out


def recursive_ball(params):
    """The recursive lex enumeration that the shared walk replaced."""
    lo, hi, n = -params.kminus, params.kplus, params.n

    def rec(prefix, budget, i):
        if i == n:
            yield prefix
            return
        if budget == 0:
            yield prefix + (0,) * (n - i)
            return
        for v in range(lo, hi + 1):
            yield from rec(prefix + (v,), budget - (v != 0), i + 1)

    return rec((), params.e, 0)


def small_balls(max_volume=20_000):
    """Every ball with n <= 6, 0 <= kminus <= kplus <= 3 and volume <= max_volume."""
    for n in range(1, 7):
        for e in range(n + 1):
            for kminus in range(4):
                for kplus in range(max(kminus, e > 0), 4):
                    params = BallParams(n, e, kplus, kminus)
                    if ball_volume(params) <= max_volume:
                        yield params


class TestBallParams:
    def test_symmetric_constructor(self):
        p = BallParams.symmetric(3, 1, 2)
        assert (p.n, p.e, p.kplus, p.kminus) == (3, 1, 2, 2)
        assert p.span == 4

    def test_asymmetric(self):
        p = BallParams(n=3, e=2, kplus=2, kminus=0)
        assert (p.kplus, p.kminus, p.span) == (2, 0, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, e=0, kplus=1, kminus=1),
            dict(n=3, e=4, kplus=1, kminus=1),
            dict(n=3, e=-1, kplus=1, kminus=1),
            dict(n=3, e=1, kplus=1, kminus=2),
            dict(n=3, e=1, kplus=0, kminus=0),
            dict(n=3, e=1, kplus=-1, kminus=-1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            BallParams(**kwargs)

    def test_zero_magnitude_allowed_when_e_is_zero(self):
        assert ball_volume(BallParams(n=2, e=0, kplus=0, kminus=0)) == 1

    def test_symmetric_needs_positive_s(self):
        with pytest.raises(InvalidParameterError):
            BallParams.symmetric(3, 1, 0)


class TestIntVector:
    def test_sequence_protocol(self):
        v = IntVector([0, -2, 0, 3])
        assert v.coords == (0, -2, 0, 3)
        assert len(v) == 4 and v[3] == 3 and tuple(v) == v.coords


class TestBallVolume:
    def test_worked_values(self):
        assert ball_volume(BallParams.symmetric(3, 1, 1)) == 7
        assert ball_volume(BallParams.symmetric(2, 2, 1)) == 9  # full box
        assert ball_volume(BallParams.symmetric(10, 2, 1)) == 201

    def test_closed_form_matches_enumeration(self):
        for n in (1, 2, 3):
            for e in range(n + 1):
                for kplus in (1, 2):
                    for kminus in range(kplus + 1):
                        p = BallParams(n=n, e=e, kplus=kplus, kminus=kminus)
                        assert ball_volume(p) == len(brute_ball(n, e, kplus, kminus))

    def test_general_formula(self):
        p = BallParams(n=10, e=3, kplus=3, kminus=1)
        assert ball_volume(p) == sum(comb(10, i) * 4**i for i in range(4))


class TestDecimal:
    @pytest.mark.parametrize(
        "value",
        [0, 7, -7, 10**4299, 10**4300, 10**5000 + 1, -(10**6000) + 12345, 3**20000],
        ids=lambda v: f"{'-' * (v < 0)}{v.bit_length()}bits",
    )
    def test_matches_digit_by_digit(self, value):
        rest, digits = abs(value), []
        while True:
            rest, digit = divmod(rest, 10)
            digits.append(str(digit))
            if not rest:
                break
        assert lmlab.core._decimal(value) == "-" * (value < 0) + "".join(reversed(digits))


class TestEnumerateBall:
    def test_interval(self):
        got = list(iter_ball_coords(BallParams.symmetric(1, 1, 2)))
        assert got == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_cross_order(self):
        got = list(iter_ball_coords(BallParams.symmetric(2, 1, 1)))
        assert got == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_lexicographic_and_unique(self):
        for n, e, s in [(3, 1, 1), (3, 2, 2), (4, 2, 1)]:
            got = list(iter_ball_coords(BallParams.symmetric(n, e, s)))
            assert got == sorted(got)
            assert len(set(got)) == len(got)

    def test_count_matches_volume(self):
        for n in (1, 2, 3):
            for e in range(n + 1):
                for s in (1, 2):
                    p = BallParams.symmetric(n, e, s)
                    assert sum(1 for _ in iter_ball_coords(p)) == ball_volume(p)

    def test_asymmetric_range(self):
        got = set(iter_ball_coords(BallParams(n=2, e=1, kplus=2, kminus=0)))
        assert got == set(brute_ball(2, 1, 2, 0))

    def test_negation_symmetry(self):
        p = BallParams.symmetric(3, 2, 2)
        cells = set(iter_ball_coords(p))
        assert all(tuple(-c for c in v) in cells for v in cells)

    def test_cap(self):
        # Raised by the call itself, before the first vector is asked for.
        with pytest.raises(CapExceededError):
            iter_ball_coords(BallParams.symmetric(3, 1, 1), cap=5)

    def test_is_a_generator(self):
        assert isinstance(iter_ball_coords(P211), types.GeneratorType)

    def test_matches_the_recursive_walk(self, monkeypatch):
        blocks = (1, 2, 3, 7, lmlab.core._WALK_BLOCK)
        balls = list(small_balls())
        assert len(balls) == 244
        for params in balls:
            expected = list(recursive_ball(params))
            for block in blocks:
                monkeypatch.setattr(lmlab.core, "_WALK_BLOCK", block)
                assert list(iter_ball_coords(params)) == expected, (params, block)

    def test_streams_restart_independently(self):
        p = BallParams.symmetric(2, 1, 1)
        first = list(iter_ball_coords(p))
        second = list(iter_ball_coords(p))
        assert first == second


class TestPairWeightMatrix:
    def test_s1_rows(self):
        m = pair_weight_matrix(1)
        assert m.entries == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_s2_entry(self):
        assert pair_weight_matrix(2).entries[-2 + 2][1 + 2] == 2

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_structure(self, s):
        m = pair_weight_matrix(s)
        for x in range(-s, s + 1):
            for y in range(-s, s + 1):
                expected = 0 if x == y else (1 if abs(x - y) <= s else 2)
                assert m.entries[x + s][y + s] == expected
                assert m.entries[x + s][y + s] == m.entries[y + s][x + s]

    def test_rejects_bad_s(self):
        with pytest.raises(InvalidParameterError):
            pair_weight_matrix(0)


class TestVolumeRatioBound:
    def test_worked_values(self):
        assert volume_ratio_bound(10, 2, 1, 1) == Fraction(16, 3)
        assert volume_ratio_bound(10, 2, 2, 1) == Fraction(49, 4)
        assert volume_ratio_bound(5, 3, 1, 2) == 2

    def test_domain_error(self):
        with pytest.raises(HypothesesUnmetError):
            volume_ratio_bound(5, 3, 2, 2)
        with pytest.raises(InvalidParameterError):
            volume_ratio_bound(5, 2, 0, 1)

    def test_true_ratio_dominates_bound_small_grid(self):
        # The full acceptance grid lives in test_acceptance; spot the corner here.
        for s in (1, 3):
            for n in range(2, 13):
                vols = [ball_volume(BallParams.symmetric(n, e, s)) for e in range(n + 1)]
                for e in range(n):
                    for r in range(1, n - e):
                        bound = volume_ratio_bound(n, e, r, s)
                        assert Fraction(vols[e + r], vols[e]) >= bound

    def test_single_step_chain_dominates_multi_step(self):
        # r applications of the one-step bound are at least the r-step bound.
        n, s = 20, 2
        for e in range(0, 10):
            for r in range(2, 6):
                chain = Fraction(1)
                for j in range(r):
                    chain *= volume_ratio_bound(n, e + j, 1, s)
                assert chain >= volume_ratio_bound(n, e, r, s)


P211 = BallParams.symmetric(2, 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: BallParams.symmetric(2, 1, True), id="BallParams.symmetric"),
        pytest.param(lambda: BallParams(n=True, e=0, kplus=1, kminus=1), id="BallParams"),
        pytest.param(lambda: pair_weight_matrix(True), id="pair_weight_matrix"),
        pytest.param(lambda: volume_ratio_bound(10, 2, True, 1), id="volume_ratio_bound"),
        pytest.param(lambda: channel_distance((0, 1), (1, 0), True), id="channel_distance"),
        pytest.param(lambda: list(enumerate_sublattices(True, 3)), id="enumerate_sublattices-n"),
        pytest.param(lambda: list(enumerate_sublattices(2, True)), id="enumerate_sublattices-index"),
        pytest.param(lambda: verify_window_packing([(0, 0)], P211, True), id="verify_window_packing"),
        pytest.param(lambda: form_envelope(1, 3, True), id="form_envelope"),
        pytest.param(lambda: density_bound_asymptotic("linear", "1/2", True), id="density_bound_asymptotic"),
        pytest.param(lambda: classify(3, 1, True), id="classify"),
        pytest.param(lambda: packing_density_bound(100, True, 4), id="packing_density_bound"),
        pytest.param(lambda: bound_prereq(10.5, 3, 2), id="bound_prereq"),
        pytest.param(lambda: bound_small_s(10, 3, True), id="bound_small_s"),
        pytest.param(lambda: bound_asymptotic(100, 10, True, "1/10"), id="bound_asymptotic"),
        pytest.param(lambda: bound_large_s(100, 40, 4.0), id="bound_large_s"),
        pytest.param(lambda: bound_lattice_cases(10, 6, True, True), id="bound_lattice_cases"),
        pytest.param(lambda: table_row(True, "1/10"), id="table_row"),
        pytest.param(lambda: Lattice(((2.5, 0), (0, 1))), id="Lattice-float"),
        pytest.param(lambda: Lattice(((True, 0), (0, 1))), id="Lattice-bool"),
        pytest.param(lambda: IntVector((1.5, 0)), id="IntVector-float"),
        pytest.param(lambda: IntVector((True, 0)), id="IntVector-bool"),
        pytest.param(lambda: channel_distance((1.5,), (0,), 1), id="channel_distance-float"),
        pytest.param(lambda: channel_distance((True,), (0,), 1), id="channel_distance-bool"),
        pytest.param(lambda: verify_window_packing([(0.5, 0)], P211, 2), id="verify_window_packing-float"),
        pytest.param(lambda: Lattice.diagonal((1, 1)).contains((0.5, 0)), id="Lattice.contains-float"),
        pytest.param(lambda: Lattice.diagonal((1, 1)).contains((True, 0)), id="Lattice.contains-bool"),
        pytest.param(lambda: QuotientMap(Lattice.diagonal((2, 2))).residue((1.0, 0)), id="residue-float"),
        pytest.param(lambda: QuotientMap(Lattice.diagonal((2, 2))).residue((True, 0)), id="residue-bool"),
        pytest.param(lambda: lattice_points_in_window(Lattice.diagonal((2, 2)), True), id="lattice_points_in_window"),
    ],
)
def test_bool_is_not_an_integer_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()
