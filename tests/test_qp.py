import itertools
import random
from fractions import Fraction

import pytest

from lmlab import qp
from lmlab import (
    CapExceededError,
    Code,
    HypothesesUnmetError,
    InvalidParameterError,
    PreconditionViolatedError,
    SymbolDistribution,
    TooFewCodewordsError,
    avg_distance_bound,
    continuous_oracle_search,
    distance_decomposition,
    channel_distance,
    form_max_closed,
    form_max_exhaustive_integer,
    form_max_oracle_binary,
    form_value,
    form_envelope,
    symbol_distributions,
)


class TestSymbolDistribution:
    def test_masses(self):
        d = SymbolDistribution(2, [2, 1, 6, 1, 2])
        assert d.counts == (2, 1, 6, 1, 2)
        assert sum(d.counts) == 12 and d.counts[d.s] == 6

    def test_mirror(self):
        d = SymbolDistribution(1, (3, 1, 0))
        assert form_value(SymbolDistribution(1, tuple(reversed(d.counts)))) == form_value(d)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SymbolDistribution(1, (1, 2))
        with pytest.raises(InvalidParameterError):
            SymbolDistribution(1, (1, -1, 0))


class TestFValue:
    def test_worked_values(self):
        assert form_value(SymbolDistribution(1, (1, 1, 1))) == 8
        assert form_value(SymbolDistribution(1, (0, 7, 0))) == 0
        assert form_value(SymbolDistribution(2, (2, 1, 6, 1, 2))) == 114

    def test_exact_with_fractions(self):
        d = SymbolDistribution(1, (Fraction(3, 2), Fraction(1), Fraction(3, 2)))
        assert form_value(d) == 2 * Fraction(3, 2) * 1 * 2 + 4 * Fraction(9, 4)


class TestClosedForm:
    def test_worked_values(self):
        value, argmax = form_max_closed(1, 10, 4)
        assert value == 64 and argmax.counts == (2, 6, 2)
        value, argmax = form_max_closed(2, 12, 6)
        assert value == 114 and argmax.counts == (2, 1, 6, 1, 2)
        value, argmax = form_max_closed(3, 8, 4)
        assert value == 52 and argmax.counts == (1, 1, 0, 4, 0, 1, 1)

    def test_argmax_attains_value_exactly(self):
        for s in (1, 2, 3):
            for K in range(2, 9):
                for a in range(K + 1):
                    value, argmax = form_max_closed(s, K, a)
                    assert form_value(argmax) == value
                    assert sum(argmax.counts) == K and sum(argmax.counts) - argmax.counts[s] == a

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            form_max_closed(4, 5, 2)
        with pytest.raises(InvalidParameterError):
            form_max_closed(1, 5, 6)


class TestContinuousOracle:
    def test_worked_values(self):
        assert continuous_oracle_search(1, 10, 4)[0] == pytest.approx(64, abs=1e-6)
        assert continuous_oracle_search(2, 12, 6)[0] == pytest.approx(114, abs=1e-3)

    def test_zero_mass(self):
        assert continuous_oracle_search(1, 5, 0)[0] == 0.0

    def test_dominance_spot_grid(self):
        for s in (1, 2, 3):
            for K in (2, 7, 12):
                for a in range(K + 1):
                    closed, _ = form_max_closed(s, K, a)
                    oracle = continuous_oracle_search(s, K, a)[0]
                    assert oracle <= float(closed) + 1e-6
                    if closed:
                        assert oracle >= float(closed) * (1 - 1e-3)

    def test_mirror_symmetry_of_best_distribution(self):
        # The constraint set and objective are symmetric under negation, so
        # the mirrored best distribution must achieve the same value.
        for s, K, a in [(1, 10, 4), (2, 9, 5), (3, 6, 5)]:
            value, dist = continuous_oracle_search(s, K, a)
            mirrored = SymbolDistribution(s, tuple(reversed(dist.counts)))
            assert form_value(mirrored) == pytest.approx(value, abs=1e-9)

    def test_oracle_respects_constraints(self):
        value, dist = continuous_oracle_search(2, 10, 7)
        assert sum(dist.counts) == pytest.approx(10)
        assert sum(dist.counts) - dist.counts[2] == pytest.approx(7)
        assert all(c >= 0 for c in dist.counts)
        assert form_value(dist) == pytest.approx(value)

    def test_resolution_validation(self):
        with pytest.raises(InvalidParameterError):
            continuous_oracle_search(1, 5, 2, resolution=0)

    def test_grid_cap_raises_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("grid enumerated")

        monkeypatch.setattr(qp, "_compositions", no_enumeration)
        with pytest.raises(CapExceededError):
            continuous_oracle_search(10, 5, 3)


class TestExhaustiveIntegerMode:
    def test_integral_optimum_is_found(self):
        value, dist = form_max_exhaustive_integer(2, 12, 6)
        assert value == 114 and dist.counts == (2, 1, 6, 1, 2)

    def test_integer_max_below_fractional(self):
        value, _ = form_max_exhaustive_integer(1, 5, 3)
        assert value == 20  # closed-form maximum 21 needs half-integers
        closed, _ = form_max_closed(1, 5, 3)
        assert value < closed

    def test_always_dominated_by_closed_form(self):
        for s in (1, 2, 3):
            for K in (3, 6):
                for a in range(K + 1):
                    value, _ = form_max_exhaustive_integer(s, K, a)
                    assert value <= form_max_closed(s, K, a)[0]

    def test_large_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            form_max_exhaustive_integer(1, 13, 2)


class TestBinaryOracle:
    def test_worked_values(self):
        assert form_max_oracle_binary(2, 5, 3) == 22
        assert form_max_oracle_binary(1, 3, 2) == 8  # the single assignment (1,1,1)
        assert form_max_oracle_binary(3, 9, 0) == 0

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            form_max_oracle_binary(1, 5, 3)  # a > 2s
        with pytest.raises(InvalidParameterError):
            form_max_oracle_binary(2, 2, 3)  # K < a

    def test_brute_force_cross_check(self):
        # Recompute via raw distributions for a couple of cases.
        for s, K, a in [(2, 5, 3), (2, 6, 4), (3, 7, 4)]:
            symbols = [x for x in range(-s, s + 1) if x != 0]
            best = 0
            for chosen in itertools.combinations(symbols, a):
                counts = [0] * (2 * s + 1)
                for x in chosen:
                    counts[x + s] = 1
                counts[s] = K - a
                best = max(best, form_value(SymbolDistribution(s, tuple(counts))))
            assert form_max_oracle_binary(s, K, a) == best


class TestEnvelope:
    def test_worked_value(self):
        assert form_envelope(3, 5, 2) == Fraction(45, 2)
        assert form_max_oracle_binary(2, 5, 3) <= form_envelope(3, 5, 2)

    def test_zero(self):
        assert form_envelope(0, 9, 3) == 0

    def test_branches_agree_at_breakpoint(self):
        for s in range(1, 7):
            for K in range(1, 6):
                left = -Fraction(1, 2) * s * s + (2 * K - 1) * s
                right = -Fraction(3, 2) * s * s + 2 * (K + s) * s - s * s - s
                assert left == right == form_envelope(s, K, s)

    def test_dominates_binary_small_grid(self):
        for s in (1, 2, 3):
            for K in (2, 5):
                for a in range(0, min(2 * s, K) + 1):
                    assert Fraction(form_max_oracle_binary(s, K, a)) <= form_envelope(a, K, s)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            form_envelope(1, 0, 2)


class TestAvgDistanceBound:
    def test_first_variant(self):
        assert avg_distance_bound(4, 1, 2, 1, "first") == 5

    def test_second_variant_condition_fails(self):
        with pytest.raises(HypothesesUnmetError):
            avg_distance_bound(4, 1, 2, 1, "second")

    def test_second_variant_value(self):
        assert avg_distance_bound(3, 1, 4, 1, "second") == Fraction(7, 2)

    def test_first_variant_monotone_in_k(self):
        n, e = 6, 2
        limit = 2 * (e + 1) - Fraction((e + 1) ** 2, 2 * n)
        values = [avg_distance_bound(n, e, K, 1, "first") for K in (2, 10, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)
        assert values[-1] - limit < Fraction(1, 100)

    def test_needs_two_codewords(self):
        with pytest.raises(TooFewCodewordsError):
            avg_distance_bound(4, 1, 1, 1)

    def test_unknown_variant(self):
        with pytest.raises(InvalidParameterError):
            avg_distance_bound(4, 1, 2, 1, "third")


class TestDistanceDecomposition:
    def test_worked_triple(self):
        code = Code.from_coords([(1, 0), (0, 1), (-1, -1)])
        assert distance_decomposition(code, 1) == (16, 16, True)

    def test_singleton(self):
        assert distance_decomposition(Code.from_coords([(1, 1)]), 1) == (0, 0, True)

    def test_shared_coordinate(self):
        code = Code.from_coords([(1, 1), (1, -1)])
        assert distance_decomposition(code, 1) == (4, 4, True)

    def test_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            distance_decomposition(Code.from_coords([(2, 0), (0, 0)]), 1)

    def test_symbol_distributions(self):
        code = Code.from_coords([(1, 0), (0, 1), (-1, -1)])
        dists = symbol_distributions(code, 1)
        assert [d.counts for d in dists] == [(1, 1, 1), (1, 1, 1)]

    def test_random_codes(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 4)
            s = rng.randint(1, 3)
            size = min(rng.randint(1, 5), (2 * s + 1) ** n)
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randint(-s, s) for _ in range(n)))
            code = Code.from_coords(sorted(words))
            ordered, coordwise, equal = distance_decomposition(code, s)
            assert equal
            # Ordered sum recomputed directly from the distance.
            direct = sum(
                channel_distance(a, b, s)
                for a in code.words
                for b in code.words
                if a.coords != b.coords
            )
            assert ordered == direct == coordwise
