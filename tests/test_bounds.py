import math
from fractions import Fraction

import pytest

from lmlab import (
    BUNDLED_TILINGS,
    InvalidParameterError,
    bound_asymptotic,
    bound_large_s,
    bound_prereq,
    bound_lattice_cases,
    bound_small_s,
    classify,
    classify_grid,
    density_bound_asymptotic,
    packing_density_bound,
    table_row,
)
from lmlab.bounds import (
    ALL_TILINGS,
    BOUNDARY_UNCERTAIN,
    EXCLUDED,
    EXCLUDES,
    EXISTS,
    HYPOTHESES_UNMET,
    LATTICE_ONLY,
    OPEN,
    SILENT,
    ceil_log_ratio,
)


class TestExactCeilLogs:
    def test_ceil_log2_matches_definition(self):
        for n in range(1, 2050):
            m = ceil_log_ratio(2, 1, n, 1)
            assert 2**m >= n
            assert m == 0 or 2 ** (m - 1) < n

    def test_ceil_log_ratio_matches_definition(self):
        for base_num, base_den in ((4, 3), (6, 5), (3, 2)):
            base = Fraction(base_num, base_den)
            for x_num in range(1, 400, 7):
                m = ceil_log_ratio(base_num, base_den, x_num, 1)
                assert base**m >= x_num
                assert m == 0 or base ** (m - 1) < x_num

    def test_cap_stops_the_count(self):
        # ceil(log2(1000)) = 10; with a cap the count stops at cap + 1.
        assert ceil_log_ratio(2, 1, 1000, 1, cap=20) == 10
        assert ceil_log_ratio(2, 1, 1000, 1, cap=4) == 5
        assert ceil_log_ratio(2, 1, 1000, 1, cap=0) == 1

    def test_rejects_bad_base(self):
        with pytest.raises(InvalidParameterError):
            ceil_log_ratio(3, 4, 10, 1)


class TestPrereq:
    def test_excludes(self):
        assert bound_prereq(10, 8, 2).status == EXCLUDES

    def test_silent(self):
        assert bound_prereq(10, 7, 2).status == SILENT

    def test_hypotheses_unmet_small_s(self):
        assert bound_prereq(10, 8, 1).status == HYPOTHESES_UNMET

    def test_hypotheses_unmet_small_n(self):
        assert bound_prereq(2, 1, 2).status == HYPOTHESES_UNMET

    def test_scope(self):
        assert bound_prereq(10, 8, 2).scope == ALL_TILINGS


class TestSmallMagnitudeBand:
    def test_s1_worked_triple(self):
        assert bound_small_s(1000, 200, 1).status == EXCLUDES
        assert bound_small_s(1000, 100, 1).status == SILENT  # below sqrt
        assert bound_small_s(1000, 495, 1).status == SILENT  # above linear

    def test_s1_exact_power_of_two_boundary(self):
        # 2 * 256 * log2(256) = 4096 = 64^2 exactly; equality excludes.
        outcome = bound_small_s(256, 64, 1)
        assert outcome.status == EXCLUDES
        assert "exact" in outcome.detail

    def test_s2_band(self):
        # Thresholds at n=1000: sqrt bound about 247.004, linear 724.
        assert bound_small_s(1000, 300, 2).status == EXCLUDES
        assert bound_small_s(1000, 246, 2).status == SILENT
        assert bound_small_s(1000, 248, 2).status == EXCLUDES
        assert bound_small_s(1000, 740, 2).status == SILENT

    def test_s3_band(self):
        # Thresholds at n=1000: sqrt bound about 329.4, linear 2377/3.
        assert bound_small_s(1000, 340, 3).status == EXCLUDES
        assert bound_small_s(1000, 300, 3).status == SILENT
        assert bound_small_s(1000, 793, 3).status == SILENT

    def test_small_n(self):
        assert bound_small_s(2, 1, 1).status == HYPOTHESES_UNMET

    def test_rejects_large_s(self):
        with pytest.raises(InvalidParameterError):
            bound_small_s(100, 10, 4)

    def test_never_excludes_boundary_uncertain(self):
        # A sweep should produce only decided statuses on typical inputs.
        for n in range(3, 200):
            for e in range(0, n + 1, 7):
                status = bound_small_s(n, e, 1).status
                assert status in (EXCLUDES, SILENT, HYPOTHESES_UNMET)


class TestAsymptoticBand:
    def test_s1_worked_examples(self):
        assert bound_asymptotic(2000, 800, 1, "1/15").status == EXCLUDES
        assert bound_asymptotic(1590, 800, 1, "1/15").status == HYPOTHESES_UNMET
        assert bound_asymptotic(1591, 800, 1, "1/15").status == EXCLUDES

    def test_s2_worked_example(self):
        # Coefficient about 6.117, sqrt bound about 184.05 at n=600.
        assert bound_asymptotic(600, 300, 2, "1/10").status == EXCLUDES
        assert bound_asymptotic(600, 184, 2, "1/10").status == SILENT
        assert bound_asymptotic(600, 185, 2, "1/10").status == EXCLUDES
        assert bound_asymptotic(600, 421, 2, "1/10").status == SILENT

    def test_small_n(self):
        assert bound_asymptotic(2, 1, 1, "1/10").status == HYPOTHESES_UNMET

    def test_tiny_epsilon_is_decided(self):
        # The size condition is exact, so no epsilon leaves it undecided.
        assert bound_asymptotic(100, 10, 1, "1/1000000000").status == HYPOTHESES_UNMET

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            bound_asymptotic(100, 10, 3, "1/10")
        with pytest.raises(InvalidParameterError):
            bound_asymptotic(100, 10, 1, 0)


# (s, eps, min n, coefficient), recorded from a linear scan over every n.
TABLE_ROWS = [
    (1, "1/10", 641, "6.84"),
    (1, "1/15", 1591, "9.92"),
    (1, "1/20", 3041, "13.01"),
    (2, "1/10", 501, "6.12"),
    (2, "1/15", 1201, "8.80"),
    (2, "1/20", 2241, "11.46"),
    (1, "1/50", 22801, "31.50"),
    (2, "1/50", 16801, "27.45"),
    (1, "1/100", 104001, "62.31"),
    (2, "1/100", 75801, "54.07"),
    (1, "1/200", 466801, "123.92"),
    (2, "1/200", 339201, "107.30"),
]


class TestTableRows:
    @pytest.mark.parametrize("s,eps,min_n,coeff", TABLE_ROWS)
    def test_explicit_rows(self, s, eps, min_n, coeff):
        row = table_row(s, eps)
        assert row.min_n == min_n
        assert row.coefficient == Fraction(coeff)

    def test_min_n_is_minimal(self):
        # One below the tabulated minimum must fail the size condition.
        for s, eps, min_n, _ in TABLE_ROWS:
            assert bound_asymptotic(min_n - 1, 0, s, eps).status == HYPOTHESES_UNMET
            assert bound_asymptotic(min_n, 0, s, eps).status != HYPOTHESES_UNMET

    def test_no_row_below_the_limit(self):
        with pytest.raises(InvalidParameterError):
            table_row(1, "1/1000")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidParameterError):
            table_row(1, "0")
        with pytest.raises(InvalidParameterError):
            table_row(1, "3/2")
        with pytest.raises(InvalidParameterError):
            table_row(3, "1/10")


class TestLargeMagnitudeBound:
    def test_worked_values(self):
        assert bound_large_s(100, 40, 4).status == EXCLUDES  # 40000 >= 30900
        assert bound_large_s(100, 35, 4).status == SILENT  # 30625 < 30900
        assert bound_large_s(100, 68, 3).status == SILENT  # escape band

    def test_hypotheses(self):
        assert bound_large_s(60, 40, 4).status == HYPOTHESES_UNMET
        with pytest.raises(InvalidParameterError):
            bound_large_s(100, 40, 2)

    def test_escape_band_collapses_at_1348(self):
        assert bound_large_s(1347, 900, 3).status == SILENT
        assert bound_large_s(1348, 900, 3).status == EXCLUDES

    def test_escape_band_only_for_s3(self):
        assert bound_large_s(100, 68, 4).status == EXCLUDES

    def test_strict_mode_is_sharper(self):
        # Standard threshold sits just above e = 35 at n = 100; the strict
        # threshold sqrt(3n / (3*sqrt(2) - 4)) - 1 sits just below it.
        assert bound_large_s(100, 35, 4).status == SILENT
        assert bound_large_s(100, 35, 4, strict=True).status == EXCLUDES
        assert bound_large_s(100, 34, 4, strict=True).status == SILENT

    def test_strict_matches_float_prediction(self):
        threshold = 3.0 / (3.0 * math.sqrt(2.0) - 4.0)
        for n in range(61, 400, 13):
            boundary = math.sqrt(threshold * n) - 1.0
            for e in range(0, 40):
                if abs(e - boundary) < 1e-6:
                    continue
                expected = EXCLUDES if e > boundary else SILENT
                assert bound_large_s(n, e, 5, strict=True).status == expected


class TestPriorLatticeCases:
    def test_symmetric_magnitude_one_case_holds(self):
        assert bound_lattice_cases(10, 9, 1, 1).status == SILENT

    def test_symmetric_volume_clause_holds(self):
        outcome = bound_lattice_cases(10, 6, 2, 2)
        assert outcome.status == SILENT
        assert "295102" in outcome.detail

    def test_symmetric_volume_clause_fails(self):
        # sum_{i<=2} C(4,i) 30^(i-1) = 184 < 16^2 and no other case applies.
        assert bound_lattice_cases(4, 2, 15, 15).status == EXCLUDES

    def test_semicross_cases(self):
        assert bound_lattice_cases(10, 9, 1, 0).status == SILENT  # e = n-1
        assert bound_lattice_cases(10, 6, 1, 0).status == SILENT  # middle band, k+ = 1
        assert bound_lattice_cases(10, 6, 3, 0).status == EXCLUDES

    def test_strictly_asymmetric_excluded(self):
        assert bound_lattice_cases(10, 6, 2, 1).status == EXCLUDES

    def test_range_hypotheses(self):
        assert bound_lattice_cases(10, 1, 1, 1).status == HYPOTHESES_UNMET
        assert bound_lattice_cases(10, 4, 1, 1).status == HYPOTHESES_UNMET  # n > 2e

    def test_scope_is_lattice_only(self):
        assert bound_lattice_cases(10, 6, 3, 0).scope == LATTICE_ONLY

    def test_rejects_bad_magnitudes(self):
        with pytest.raises(InvalidParameterError):
            bound_lattice_cases(10, 6, 1, 2)
        with pytest.raises(InvalidParameterError):
            bound_lattice_cases(10, 6, 0, 0)


class TestClassify:
    def test_box_ball_exists(self):
        report = classify(4, 4, 1)
        assert report.verdict == EXISTS
        assert "diagonal(3)" in report.witness

    def test_zero_errors_exist(self):
        assert classify(9, 0, 3).verdict == EXISTS

    def test_bundled_cross_exists_with_unmet_criteria(self):
        report = classify(2, 1, 1)
        assert report.verdict == EXISTS
        assert "1,2;2,-1" in report.witness
        assert all(c.status == HYPOTHESES_UNMET for c in report.criteria)

    def test_excluded_by_large_magnitude(self):
        report = classify(100, 40, 4)
        assert report.verdict == EXCLUDED
        assert any(
            c.name.startswith("large-magnitude") and c.status == EXCLUDES
            for c in report.criteria
        )

    def test_open_with_lattice_only_exclusion(self):
        report = classify(4, 2, 15)
        assert report.verdict == OPEN
        assert report.lattice_excluded

    def test_excluded_needs_all_tilings_scope(self):
        report = classify(4, 2, 15)
        assert all(
            c.status != EXCLUDES for c in report.criteria if c.scope == ALL_TILINGS
        )

    def test_soundness_on_bundled_tilings(self):
        for (n, e, s) in BUNDLED_TILINGS:
            assert classify(n, e, s).verdict != EXCLUDED
        for n in range(1, 5):
            for s in (1, 2):
                assert classify(n, n, s).verdict == EXISTS

    def test_validates_triple(self):
        with pytest.raises(InvalidParameterError):
            classify(3, 4, 1)


class TestClassifyGrid:
    def test_grid_is_sorted_and_complete(self):
        reports = classify_grid(range(3, 6), range(0, 3), range(1, 3))
        assert len(reports) == 3 * 3 * 2
        keys = [(r.n, r.e, r.s) for r in reports]
        assert keys == sorted(keys)

    def test_invalid_triples_are_dropped(self):
        reports = classify_grid([2], range(0, 9), [1])
        assert [(r.n, r.e) for r in reports] == [(2, 0), (2, 1), (2, 2)]


class TestPackingDensityBound:
    def test_worked_value(self):
        bound = packing_density_bound(100, 50, 4)
        assert bound.applicable and not bound.vacuous
        assert bound.value == Fraction(255000, 480200) == Fraction(1275, 2401)

    def test_not_applicable(self):
        bound = packing_density_bound(100, 10, 2)
        assert bound == (False, None, False)

    def test_vacuous(self):
        bound = packing_density_bound(100, 50, 2)
        assert bound.applicable and bound.vacuous
        assert bound.value == Fraction(2550, 2401)

    def test_rejects_e_at_least_n(self):
        with pytest.raises(InvalidParameterError):
            packing_density_bound(100, 100, 2)

    def test_asymptotic_consistency_linear_regime(self):
        for s in (1, 2, 4):
            limit = density_bound_asymptotic("linear", Fraction(1, 2), s)
            gaps = []
            for n in (100, 1000, 10000):
                value = packing_density_bound(n, n // 2, s).value
                gaps.append(abs(value - limit))
            assert gaps[0] > gaps[1] > gaps[2]
            assert all(gap <= Fraction(14, s * n) for gap, n in zip(gaps, (100, 1000, 10000)))


class TestDensityBoundAsymptotic:
    def test_sqrt_regime(self):
        assert density_bound_asymptotic("sqrt", 2, 1) == 2

    def test_linear_regime(self):
        assert density_bound_asymptotic("linear", Fraction(1, 2), 2) == 1
        assert density_bound_asymptotic("linear", Fraction(1, 2), 4) == Fraction(1, 2)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            density_bound_asymptotic("sqrt", 1, 1)
        with pytest.raises(InvalidParameterError):
            density_bound_asymptotic("linear", 1, 1)
        with pytest.raises(InvalidParameterError):
            density_bound_asymptotic("cubic", Fraction(1, 2), 1)
