"""Exclusion criteria for perfect symmetric limited-magnitude codes.

Each criterion evaluates one necessary condition for the existence of a
tiling of Z^n by the symmetric error ball and reports one of four statuses:

``excludes``
    the parameters violate the condition, so no tiling exists (for
    ``lattice-only`` criteria: no lattice tiling exists);
``silent``
    the condition does not rule these parameters out;
``hypotheses-unmet``
    the statement's own preconditions fail, so it says nothing here;
``boundary-uncertain``
    interval arithmetic could not separate the parameters from a
    transcendental threshold (never reported as an exclusion).

Decision discipline: every polynomial comparison, and the asymptotic band's
size condition, is carried out in exact integer or rational arithmetic; the
sqrt thresholds, which involve logarithms, are evaluated with outward-rounded
interval arithmetic and a criterion reports ``excludes`` only when the whole
interval confirms it.  Where a logarithm happens to be exact (powers of
two), the comparison is exact as well.

The classifier aggregates all criteria for a parameter triple and only ever
reports existence from a constructive witness: the zero-error case, the
full-weight case (where the ball is a box and tiles by the scaled integer
lattice), or one of the bundled machine-verified tilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence, Union

from .core import _decimal, _require_int
from .errors import BoundaryUncertainError, InvalidParameterError
from .intervals import Interval, ceil_of, compare_ge
from .lattice import BUNDLED_TILINGS

RationalLike = Union[int, Fraction, str]

# Criterion statuses.
EXCLUDES = "excludes"
SILENT = "silent"
HYPOTHESES_UNMET = "hypotheses-unmet"
BOUNDARY_UNCERTAIN = "boundary-uncertain"

# Criterion scopes.
ALL_TILINGS = "all-tilings"
LATTICE_ONLY = "lattice-only"

# Classification verdicts.
EXISTS = "exists"
EXCLUDED = "excluded"
OPEN = "open"

#: Standard epsilon picks the classifier evaluates the asymptotic band at.
TABLE_EPSILONS = (Fraction(1, 10), Fraction(1, 15), Fraction(1, 20))


@dataclass(frozen=True)
class CriterionOutcome:
    name: str
    scope: str
    status: str
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    e: int
    s: int
    verdict: str
    lattice_excluded: bool
    criteria: tuple[CriterionOutcome, ...]
    witness: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": str(self.n),
            "e": str(self.e),
            "s": str(self.s),
            "verdict": self.verdict,
            "lattice_excluded": self.lattice_excluded,
            "witness": self.witness,
            "criteria": [c.to_json_dict() for c in self.criteria],
        }


class TableRow(NamedTuple):
    min_n: int
    coefficient: Fraction  # rounded up to 2 decimals, denominator divides 100


class DensityBound(NamedTuple):
    applicable: bool
    value: Fraction | None
    vacuous: bool


def _as_fraction(value: RationalLike, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"{name} must be a rational number, got {value!r}") from exc


def _require_ints(**values: int) -> None:
    for name, value in values.items():
        _require_int(name, value)


class _Band(NamedTuple):
    """Per-s constants of e^2 >= coefficient * n * log_base(arg_factor * n)."""

    coefficient: Fraction
    arg_factor: Fraction
    log_base: Fraction
    label: str
    eps_slope: Fraction | None = None  # asymptotic band: base = 1 + eps_slope * eps
    cap_slope: Fraction | None = None  # asymptotic band: e <= (cap_slope - eps) * n


_BANDS = {
    1: _Band(Fraction(2), Fraction(1), Fraction(2), "2n*log2(n)", Fraction(9, 4), Fraction(2, 3)),
    2: _Band(
        Fraction(12, 5),
        Fraction(3, 2),
        Fraction(4, 3),
        "(12/5)n*log_(4/3)(3n/2)",
        Fraction(25, 8),
        Fraction(4, 5),
    ),
    3: _Band(Fraction(8, 3), Fraction(5, 3), Fraction(6, 5), "(8/3)n*log_(6/5)(5n/3)"),
}

#: Largest dimension table_row searches for the minimal n.
TABLE_N_LIMIT = 10**7


def ceil_log_ratio(
    base_num: int, base_den: int, x_num: int, x_den: int, cap: int | None = None
) -> int:
    """Exact ceil(log_base(x)) for rational base > 1 and rational x >= 1.

    With ``cap`` the count stops early and returns min(ceil(log_base(x)), cap + 1).
    """
    if base_num <= base_den or base_den < 1:
        raise InvalidParameterError("base must be a rational greater than 1")
    if x_num < x_den or x_den < 1:
        raise InvalidParameterError("argument must be a rational >= 1")
    m = 0
    pow_num, pow_den = 1, 1
    while pow_num * x_den < pow_den * x_num and (cap is None or m <= cap):  # base^m < x
        pow_num *= base_num
        pow_den *= base_den
        m += 1
    return m


def bound_prereq(n: int, e: int, s: int) -> CriterionOutcome:
    """Linear prerequisite: for s >= 2 and n >= 3, tilings need 5e < 4n - 2."""
    _require_ints(n=n, e=e, s=s)
    name = "prerequisite-linear"
    if s < 2 or n < 3:
        return CriterionOutcome(
            name, ALL_TILINGS, HYPOTHESES_UNMET, f"needs s >= 2 and n >= 3; got s={s}, n={n}"
        )
    detail = f"5e = {5 * e} vs 4n - 2 = {4 * n - 2}"
    if 5 * e >= 4 * n - 2:
        return CriterionOutcome(name, ALL_TILINGS, EXCLUDES, detail + " (e at or above threshold)")
    return CriterionOutcome(name, ALL_TILINGS, SILENT, detail + " (e below threshold)")


def bound_small_s(n: int, e: int, s: int) -> CriterionOutcome:
    """Forbidden band for s in {1, 2, 3}: sqrt threshold <= e < linear threshold.

    The linear threshold is n/2 - ceil(log2 n) for s = 1,
    3n/4 - ceil(log_{4/3}(3n/2)) for s = 2 and
    5n/6 - ceil(log_{6/5}(5n/3)) for s = 3; the squared thresholds are
    2n log2(n), (12/5) n log_{4/3}(3n/2) and (8/3) n log_{6/5}(5n/3).
    """
    _require_ints(n=n, e=e, s=s)
    if s not in (1, 2, 3):
        raise InvalidParameterError(f"small-magnitude band is stated for s in {{1,2,3}}, got {s}")
    name = "small-magnitude-band"
    if n < 3:
        return CriterionOutcome(name, ALL_TILINGS, HYPOTHESES_UNMET, f"needs n >= 3; got n={n}")

    band = _BANDS[s]
    base, arg = band.log_base, band.arg_factor * n
    r = ceil_log_ratio(base.numerator, base.denominator, arg.numerator, arg.denominator)
    linear = n / base - r
    sq_exact: Fraction | None = None
    if s == 1 and n & (n - 1) == 0:
        sq_exact = band.coefficient * n * (n.bit_length() - 1)  # log2(n) is exact here
    sq_interval = Interval.exact(band.coefficient * n) * Interval.exact(arg).log2()
    if base != 2:
        sq_interval = sq_interval / Interval.exact(base).log2()
    label = f"e^2 = {e * e} vs {band.label}"

    if e >= linear:
        return CriterionOutcome(
            name,
            ALL_TILINGS,
            SILENT,
            f"e = {e} at or above the linear threshold {linear} (outside the band)",
        )
    if sq_exact is not None:
        above = e * e >= sq_exact
        detail = f"{label} = {sq_exact} (exact); e < linear threshold {linear}"
    else:
        decision = compare_ge(e * e, sq_interval)
        if decision is None:
            return CriterionOutcome(
                name,
                ALL_TILINGS,
                BOUNDARY_UNCERTAIN,
                f"{label} straddles [{sq_interval.lo}, {sq_interval.hi}]",
            )
        above = decision
        detail = (
            f"{label} in [{sq_interval.lo}, {sq_interval.hi}];"
            f" e < linear threshold {linear}"
        )
    if above:
        return CriterionOutcome(name, ALL_TILINGS, EXCLUDES, detail + " (inside the band)")
    return CriterionOutcome(name, ALL_TILINGS, SILENT, detail + " (below the sqrt threshold)")


def _size_condition_holds(band: _Band, eps: Fraction, n: int, base: Fraction) -> bool:
    """Whether ceil(log_base(arg)) < eps*n/2, i.e. arg <= base^m with m = ceil(eps*n/2) - 1."""
    m = -(-eps.numerator * n // (2 * eps.denominator)) - 1
    arg_num, arg_den = band.arg_factor.numerator * n, band.arg_factor.denominator
    return ceil_log_ratio(base.numerator, base.denominator, arg_num, arg_den, m) <= m


def bound_asymptotic(n: int, e: int, s: int, epsilon: RationalLike) -> CriterionOutcome:
    """Tunable band for s in {1, 2}: applies once n is large enough for eps.

    The criterion applies when ceil(log2(arg) / log2(base)) < eps*n/2 (decided
    exactly), with arg = n, base = 1 + 9*eps/4 for s = 1 and arg = 3n/2,
    base = 1 + 25*eps/8 for s = 2.  Inside its range it excludes exactly the
    band  sqrt(c * n * log2 n) <= e <= (2/3 - eps) n  (s = 1, with
    c = 2 / log2(base)), respectively (4/5 - eps) n and
    c = 12 / (5 log2(base)) for s = 2.
    """
    _require_ints(n=n, e=e, s=s)
    eps = _as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {eps}")
    if s not in (1, 2):
        raise InvalidParameterError(f"asymptotic band is stated for s in {{1,2}}, got {s}")
    name = f"asymptotic-band(eps={eps})"
    if n < 3:
        return CriterionOutcome(name, ALL_TILINGS, HYPOTHESES_UNMET, f"needs n >= 3; got n={n}")
    band = _BANDS[s]
    base = 1 + band.eps_slope * eps
    if not _size_condition_holds(band, eps, n, base):
        return CriterionOutcome(
            name,
            ALL_TILINGS,
            HYPOTHESES_UNMET,
            f"size condition fails at n={n} for eps={eps}",
        )
    linear_cap = (band.cap_slope - eps) * n
    if e > linear_cap:
        return CriterionOutcome(
            name,
            ALL_TILINGS,
            SILENT,
            f"e = {e} above the linear cap {linear_cap} (outside the band)",
        )
    coeff = Interval.exact(band.coefficient) / Interval.exact(base).log2()
    sq = coeff * Interval.exact(n) * Interval.exact(n).log2()
    decision = compare_ge(e * e, sq)
    label = f"e^2 = {e * e} vs c*n*log2(n) in [{sq.lo}, {sq.hi}]; e <= linear cap {linear_cap}"
    if decision is None:
        return CriterionOutcome(name, ALL_TILINGS, BOUNDARY_UNCERTAIN, label + " (straddle)")
    if decision:
        return CriterionOutcome(name, ALL_TILINGS, EXCLUDES, label + " (inside the band)")
    return CriterionOutcome(name, ALL_TILINGS, SILENT, label + " (below the sqrt threshold)")


def table_row(s: int, epsilon: RationalLike) -> TableRow:
    """Smallest n where the asymptotic band applies, plus its sqrt coefficient.

    The coefficient 2/log2(1 + 9*eps/4) (s = 1) or 12/(5*log2(1 + 25*eps/8))
    (s = 2) is rounded up at two decimals for display.  The minimal n >= 3 is
    exact: on each plateau of m = ceil(eps*n/2) - 1 only its first n,
    floor(2m/eps) + 1, can satisfy arg <= base^m first, so the scan takes one
    multiplication per plateau up to ``TABLE_N_LIMIT``.
    """
    _require_int("s", s)
    eps = _as_fraction(epsilon, "epsilon")
    if not 0 < eps < 1:
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {eps}")
    if s not in (1, 2):
        raise InvalidParameterError(f"table rows are defined for s in {{1,2}}, got {s}")
    band = _BANDS[s]
    base = 1 + band.eps_slope * eps
    coeff = Interval.exact(band.coefficient) / Interval.exact(base).log2()
    scaled = ceil_of(coeff * Interval.exact(100))
    if scaled is None:
        raise BoundaryUncertainError("coefficient does not round decidably at 2 decimals")
    coefficient = Fraction(scaled, 100)
    n, m = 3, -(-3 * eps.numerator // (2 * eps.denominator)) - 1  # m = ceil(3*eps/2) - 1
    pow_num, pow_den = base.numerator**m, base.denominator**m
    while n <= TABLE_N_LIMIT:
        if band.arg_factor.numerator * n * pow_den <= pow_num * band.arg_factor.denominator:
            return TableRow(min_n=n, coefficient=coefficient)
        m += 1
        pow_num *= base.numerator
        pow_den *= base.denominator
        n = 2 * m * eps.denominator // eps.numerator + 1
    raise InvalidParameterError(
        f"no n <= {TABLE_N_LIMIT} satisfies the size condition for eps={eps}"
    )


def bound_large_s(n: int, e: int, s: int, strict: bool = False) -> CriterionOutcome:
    """Sqrt bound for s >= 3, n >= 61: excludes e at or above sqrt(12.36 n).

    The comparison is exact: 25 e^2 >= 309 n.  For s = 3 a band
    2(n-1)/3 < e < (4n-2)/5 escapes the exclusion, but only while
    n <= 1347; from n = 1348 on the escape collapses (the small-magnitude
    band already covers it) and the sqrt bound stands alone.

    ``strict=True`` uses the sharper internal threshold
    e + 1 >= sqrt(3n / (3*sqrt(2) - 4)), still decided exactly by squaring:
    18 (e+1)^4 >= (3n + 4 (e+1)^2)^2.
    """
    _require_ints(n=n, e=e, s=s)
    if s < 3:
        raise InvalidParameterError(f"large-magnitude bound is stated for s >= 3, got {s}")
    name = "large-magnitude-sqrt" + ("(strict)" if strict else "")
    if n < 61:
        return CriterionOutcome(name, ALL_TILINGS, HYPOTHESES_UNMET, f"needs n >= 61; got n={n}")
    if strict:
        lhs = 18 * (e + 1) ** 4
        rhs = (3 * n + 4 * (e + 1) ** 2) ** 2
        above = lhs >= rhs
        detail = f"18(e+1)^4 = {lhs} vs (3n + 4(e+1)^2)^2 = {rhs}"
    else:
        lhs = 25 * e * e
        rhs = 309 * n
        above = lhs >= rhs
        detail = f"25e^2 = {lhs} vs 309n = {rhs}"
    if not above:
        return CriterionOutcome(name, ALL_TILINGS, SILENT, detail + " (below the sqrt bound)")
    if s == 3 and n <= 1347 and 3 * e > 2 * (n - 1) and 5 * e < 4 * n - 2:
        return CriterionOutcome(
            name,
            ALL_TILINGS,
            SILENT,
            detail + f"; escape band 2(n-1)/3 < e < (4n-2)/5 holds at n={n} <= 1347",
        )
    return CriterionOutcome(name, ALL_TILINGS, EXCLUDES, detail + " (at or above the sqrt bound)")


def bound_lattice_cases(n: int, e: int, kplus: int, kminus: int) -> CriterionOutcome:
    """Case analysis for lattice tilings with 2 <= e < n <= 2e.

    A lattice tiling in that range forces one of a short list of parameter
    cases; when none applies, lattice tilings are excluded (general tilings
    are not addressed, hence the lattice-only scope).  Clause arithmetic is
    exact, including the cumulative-volume inequality
    sum_{i=1..e} C(n,i) (2 kplus)^(i-1) >= (kplus + 1)^e.
    """
    _require_ints(n=n, e=e, kplus=kplus, kminus=kminus)
    name = "lattice-tiling-cases"
    if not kplus >= kminus >= 0:
        raise InvalidParameterError(f"need kplus >= kminus >= 0, got kplus={kplus}, kminus={kminus}")
    if kplus == 0:
        raise InvalidParameterError("kplus and kminus cannot both be 0")
    if not (2 <= e < n <= 2 * e):
        return CriterionOutcome(
            name,
            LATTICE_ONLY,
            HYPOTHESES_UNMET,
            f"needs 2 <= e < n <= 2e; got n={n}, e={e}",
        )
    if kminus == 0:
        cases = {
            "e=n-1": e == n - 1,
            "(2n-2)/3<=e<=n-3,k+=1": 3 * e >= 2 * n - 2 and e <= n - 3 and kplus == 1,
            "n/2<=e<(2n-2)/3": 2 * e >= n and 3 * e < 2 * n - 2,
        }
    elif kplus == kminus:
        lhs = sum(comb(n, i) * (2 * kplus) ** (i - 1) for i in range(1, e + 1))
        rhs = (kplus + 1) ** e
        cases = {
            "(4n-2)/5<=e<=n-1,k=1": 5 * e >= 4 * n - 2 and e <= n - 1 and kplus == 1,
            f"n/2<=e<(4n-2)/5,sum={_decimal(lhs)}>=({kplus}+1)^e={_decimal(rhs)}": (
                2 * e >= n and 5 * e < 4 * n - 2 and lhs >= rhs
            ),
        }
    else:
        cases = {"0<kminus<kplus admits no case": False}
    satisfied = [label for label, ok in cases.items() if ok]
    if satisfied:
        return CriterionOutcome(
            name, LATTICE_ONLY, SILENT, "case holds: " + "; ".join(satisfied)
        )
    return CriterionOutcome(
        name, LATTICE_ONLY, EXCLUDES, "no admissible case: " + "; ".join(cases)
    )


def _existence_witness(n: int, e: int, s: int) -> str | None:
    if e == 0:
        return "zero errors: the singleton ball tiles via Z^n itself"
    if e == n:
        return f"full weight: the ball is a box and diagonal({2 * s + 1}) tiles"
    bundled = BUNDLED_TILINGS.get((n, e, s))
    if bundled is not None:
        return f"bundled verified tiling: {bundled.to_text()}"
    return None


def classify(n: int, e: int, s: int, strict: bool = False) -> ClassificationReport:
    """Run every criterion for (n, e, s) and aggregate a verdict.

    The verdict is ``exists`` only on a constructive witness, ``excluded``
    only when some all-tilings criterion excludes, and ``open`` otherwise.
    Lattice-only exclusions never drive the verdict; they set the separate
    ``lattice_excluded`` flag.
    """
    _require_ints(n=n, e=e, s=s)
    if n < 1 or s < 1 or not 0 <= e <= n:
        raise InvalidParameterError(
            f"need n >= 1, s >= 1, 0 <= e <= n; got n={n}, e={e}, s={s}"
        )
    criteria: list[CriterionOutcome] = [bound_prereq(n, e, s)]
    if s in (1, 2, 3):
        criteria.append(bound_small_s(n, e, s))
    if s in (1, 2):
        criteria.extend(bound_asymptotic(n, e, s, eps) for eps in TABLE_EPSILONS)
    if s >= 3:
        criteria.append(bound_large_s(n, e, s, strict=strict))
    criteria.append(bound_lattice_cases(n, e, s, s))

    witness = _existence_witness(n, e, s)
    lattice_excluded = any(
        c.scope == LATTICE_ONLY and c.status == EXCLUDES for c in criteria
    )
    if witness is not None:
        verdict = EXISTS
    elif any(c.scope == ALL_TILINGS and c.status == EXCLUDES for c in criteria):
        verdict = EXCLUDED
    else:
        verdict = OPEN
    return ClassificationReport(
        n=n,
        e=e,
        s=s,
        verdict=verdict,
        lattice_excluded=lattice_excluded,
        criteria=tuple(criteria),
        witness=witness,
    )


def classify_grid(
    n_values: Iterable[int],
    e_values: Iterable[int],
    s_values: Iterable[int],
    strict: bool = False,
) -> list[ClassificationReport]:
    """Classify every valid triple of the grid, sorted by (n, e, s)."""
    triples = sorted(
        (n, e, s)
        for n in n_values
        for e in e_values
        for s in s_values
        if 0 <= e <= n
    )
    return [classify(n, e, s, strict=strict) for n, e, s in triples]


def packing_density_bound(n: int, e: int, s: int) -> DensityBound:
    """Density upper bound n*e*(e+1) / (((e+1)^2 - 2n) * s * (n-e)).

    Applicable only when (e+1)^2 > 2n; values of 1 or more carry no
    information for a packing and are flagged vacuous.
    """
    _require_ints(n=n, e=e, s=s)
    if n < 1 or s < 1 or e < 0:
        raise InvalidParameterError(f"need n >= 1, s >= 1, e >= 0; got n={n}, e={e}, s={s}")
    if e >= n:
        raise InvalidParameterError(f"density bound needs e < n, got e={e}, n={n}")
    if (e + 1) ** 2 <= 2 * n:
        return DensityBound(applicable=False, value=None, vacuous=False)
    value = Fraction(n * e * (e + 1), ((e + 1) ** 2 - 2 * n) * s * (n - e))
    return DensityBound(applicable=True, value=value, vacuous=value >= 1)


def density_bound_asymptotic(regime: str, a: RationalLike, s: int) -> Fraction:
    """Leading constant of the density bound in the two scaling regimes.

    ``regime="sqrt"`` (errors growing like a*sqrt(n), a > sqrt(2)) gives
    a^2 / (s (a^2 - 2)); ``regime="linear"`` (errors growing like a*n,
    0 < a < 1) gives 1 / (s (1 - a)).
    """
    _require_int("s", s, 1)
    aq = _as_fraction(a, "a")
    if regime == "sqrt":
        if aq * aq <= 2:
            raise InvalidParameterError(f"sqrt regime needs a > sqrt(2), got a={aq}")
        return aq * aq / (s * (aq * aq - 2))
    if regime == "linear":
        if not 0 < aq < 1:
            raise InvalidParameterError(f"linear regime needs 0 < a < 1, got a={aq}")
        return Fraction(1) / (s * (1 - aq))
    raise InvalidParameterError(f"regime must be 'sqrt' or 'linear', got {regime!r}")
