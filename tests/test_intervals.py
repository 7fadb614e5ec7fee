import math
import random
from fractions import Fraction

import pytest

from lmlab.intervals import Interval, ceil_of, compare_ge


def contains(interval, value: Fraction) -> bool:
    return Fraction(interval.lo) <= value <= Fraction(interval.hi)


class TestConstruction:
    def test_exact_representable(self):
        iv = Interval.exact(3)
        assert iv.lo == iv.hi == 3.0

    def test_exact_widens_unrepresentable(self):
        q = Fraction(1, 3)
        iv = Interval.exact(q)
        assert Fraction(iv.lo) < q < Fraction(iv.hi)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


class TestArithmeticEnclosure:
    def test_random_rational_operations(self):
        rng = random.Random(41)
        for _ in range(300):
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            ia, ib = Interval.exact(a), Interval.exact(b)
            assert contains(ia * ib, a * b)
            assert contains(ia / ib, a / b)

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval.exact(1) / Interval(-1.0, 1.0)

    def test_log2_encloses_true_value(self):
        # Check against exact powers and a high-precision rational witness.
        for k in range(1, 30):
            iv = Interval.exact(2**k).log2()
            assert contains(iv, Fraction(k))
        iv = Interval.exact(10).log2()
        # log2(10) = 3.3219280948873623... (first digits are a safe witness)
        assert Fraction(iv.lo) < Fraction("3.321928094887362")
        assert Fraction(iv.hi) > Fraction("3.321928094887363")

    def test_log2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0).log2()


class TestDecisions:
    def test_ceil_of_decided(self):
        assert ceil_of(Interval.exact(Fraction(7, 2))) == 4
        assert ceil_of(Interval.exact(10).log2()) == 4

    def test_ceil_of_ambiguous(self):
        assert ceil_of(Interval(2.9999999, 3.0000001)) is None

    def test_compare_ge(self):
        iv = Interval.exact(10).log2()  # about 3.3219
        assert compare_ge(4, iv) is True
        assert compare_ge(3, iv) is False

    def test_compare_ge_uncertain_at_exact_boundary(self):
        # log2(8) = 3 exactly, but the interval is widened by construction,
        # so an equality query must come back undecided.
        assert compare_ge(3, Interval.exact(8).log2()) is None
