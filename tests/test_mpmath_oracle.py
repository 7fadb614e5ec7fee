"""Independent mpmath oracles for the interval layer and the size condition.

Every reference value is computed with mpmath at 60 significant digits, far
beyond the one or two ulps the intervals are widened by, so a failure here
means an interval misses its true value or the exact size condition
disagrees with the real-number definition.
"""

import random
from fractions import Fraction

import pytest

from lmlab.bounds import HYPOTHESES_UNMET, bound_asymptotic
from lmlab.intervals import Interval

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp
mp.dps = 60


def mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def inside(interval: Interval, value) -> bool:
    return mpmath.mpf(interval.lo) <= value <= mpmath.mpf(interval.hi)


def sample_values():
    rng = random.Random(60)
    values = [Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)) for _ in range(300)]
    values += [Fraction(rng.randint(1, 2**1000)) for _ in range(100)]
    values += [Fraction(2**k + d) for k in range(1, 1000, 7) for d in (-1, 0, 1)]
    values += [1 + Fraction(rng.randint(-10**6, 10**6), 10**18) for _ in range(100)]
    return values


VALUES = sample_values()


def test_exact_contains_value():
    for q in VALUES:
        assert inside(Interval.exact(q), mpf(q)), q


def test_log2_contains_value():
    for q in VALUES:
        assert inside(Interval.exact(q).log2(), mpmath.log(mpf(q), 2)), q


BAND = {1: (Fraction(9, 4), Fraction(1)), 2: (Fraction(25, 8), Fraction(3, 2))}
EPSILONS = ["1/10", "1/15", "1/20", "1/7", "1/50", "1/1000000000"]


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("eps", EPSILONS)
def test_size_condition_matches_real_logs(s, eps):
    eps_q = Fraction(eps)
    eps_slope, arg_factor = BAND[s]
    log_base = mpmath.log(mpf(1 + eps_slope * eps_q))
    for n in list(range(3, 3001)) + list(range(3001, 10**6 + 1, 9973)):
        ratio = mpmath.log(mpf(arg_factor * n)) / log_base
        r = int(mpmath.ceil(ratio))
        assert abs(ratio - mpmath.nint(ratio)) > mpmath.mpf(10) ** -40  # never an exact power
        applies = r < eps_q * n / 2
        status = bound_asymptotic(n, 0, s, eps)
        assert (status.status != HYPOTHESES_UNMET) == applies, (n, status)
