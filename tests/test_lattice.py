import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import lmlab.core
import lmlab.lattice
from lmlab import (
    BUNDLED_TILINGS,
    BallParams,
    DimensionMismatchError,
    IntVector,
    InvalidParameterError,
    Lattice,
    QuotientMap,
    SingularMatrixError,
    VerificationResult,
    ball_volume,
    iter_ball_coords,
    lattice_density,
    smith_normal_form,
    verify_lattice_packing,
    verify_lattice_tiling,
    verify_window_packing,
)
from lmlab.search import lattice_points_in_window

CROSS = Lattice(((1, 2), (2, -1)))
P211 = BallParams.symmetric(2, 1, 1)


def fraction_det(rows):
    """Independent determinant oracle: Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def random_unimodular(n, rng, steps=12):
    """Product of elementary integer row operations (determinant +-1)."""
    if n == 1:
        return [[rng.choice((1, -1))]]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-a for a in u[i]]
    return u


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


class TestDeterminant:
    def test_worked_values(self):
        assert CROSS.det_abs == 5
        assert Lattice.diagonal((3, 3, 3)).det_abs == 27

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            Lattice(((1, 0), (0, 0))).det_abs  # noqa: B018

    def test_matches_fraction_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = tuple(
                tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)
            )
            expected = abs(fraction_det(rows))
            if expected == 0:
                with pytest.raises(SingularMatrixError):
                    Lattice(rows).det_abs  # noqa: B018
            else:
                assert Lattice(rows).det_abs == expected

    def test_contains_decides_singularity_without_smith_normal_form(self, monkeypatch):
        def fail(*args):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(lmlab.lattice, "smith_normal_form", fail)
        for rows in (((1, 0), (0, 0)), ((2, 4), (1, 2)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))):
            with pytest.raises(SingularMatrixError):
                Lattice(rows).contains((0,) * len(rows))
        assert Lattice(((1, 2), (2, -1))).contains((3, 1))


class TestSmithNormalForm:
    def test_properties_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
            diag, u, v = smith_normal_form(mat)
            assert abs(fraction_det(u)) == 1
            assert abs(fraction_det(v)) == 1
            product = matmul(matmul(u, mat), v)
            for i in range(n):
                for j in range(n):
                    assert product[i][j] == (diag[i] if i == j else 0)
            assert all(d >= 0 for d in diag)
            for i in range(n - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0
                else:
                    assert diag[i + 1] == 0
            if all(diag):
                det = abs(fraction_det(mat))
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == det

    def test_rejects_non_square(self):
        with pytest.raises(InvalidParameterError):
            smith_normal_form(((1, 2, 3), (4, 5, 6)))

    def test_diag_matches_sympy_invariants(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(19)
        checked = 0
        while checked < 120:
            n = rng.randint(1, 6)
            if checked % 2:
                mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            else:
                # A divisibility chain hidden behind unimodular factors on both sides.
                chain = [1]
                for _ in range(n - 1):
                    chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
                rng.shuffle(chain)
                diagonal = [[chain[i] * (i == j) for j in range(n)] for i in range(n)]
                mat = matmul(matmul(random_unimodular(n, rng), diagonal), random_unimodular(n, rng))
            if fraction_det(mat) == 0:
                continue
            expected = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
            assert smith_normal_form(mat)[0] == tuple(int(expected[i, i]) for i in range(n)), mat
            checked += 1


class TestQuotientMap:
    def test_kernel_is_membership(self):
        qmap = QuotientMap(CROSS)
        zero = (0, 0)
        for w in itertools.product(range(-5, 6), repeat=2):
            assert (qmap.residue(w) == zero) == CROSS.contains(w)

    def test_residue_is_homomorphism(self):
        lattice = Lattice(((3, 1), (-1, 4)))
        qmap = QuotientMap(lattice)
        orders = smith_normal_form(lattice.gen)[0]
        rng = random.Random(3)
        for _ in range(80):
            x = tuple(rng.randint(-9, 9) for _ in range(2))
            y = tuple(rng.randint(-9, 9) for _ in range(2))
            sum_res = qmap.residue(tuple(a + b for a, b in zip(x, y)))
            combined = tuple(
                (a + b) % d for a, b, d in zip(qmap.residue(x), qmap.residue(y), orders)
            )
            assert sum_res == combined

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            QuotientMap(CROSS).residue((1, 2, 3))


class TestVerification:
    def test_cross_packs_and_tiles(self):
        assert verify_lattice_packing(CROSS, P211).verdict == "packs"
        result = verify_lattice_tiling(CROSS, P211)
        assert result.verdict == "tiles"
        assert result.volume == result.index == 5

    def test_unit_vector_in_lattice_fails(self):
        result = verify_lattice_packing(Lattice(((5, 0), (0, 1))), P211)
        assert result.verdict == "fails"
        a, b = result.witness
        ball = set(iter_ball_coords(P211))
        assert a.coords in ball and b.coords in ball
        assert Lattice(((5, 0), (0, 1))).contains([x - y for x, y in zip(a, b)])

    def test_box_ball_inside_fundamental_domain(self):
        result = verify_lattice_packing(Lattice.diagonal((3, 3)), BallParams.symmetric(2, 2, 1))
        assert result.verdict == "packs"

    def test_hypercube_tilings(self):
        for n in range(1, 5):
            for s in (1, 2):
                lat = Lattice.diagonal((2 * s + 1,) * n)
                result = verify_lattice_tiling(lat, BallParams.symmetric(n, n, s))
                assert result.verdict == "tiles"

    def test_packing_without_tiling_has_no_witness(self):
        # Index 7 exceeds the cross volume 5: disjoint but never a tiling.
        lat = Lattice(((1, 2), (0, 7)))
        result = verify_lattice_tiling(lat, P211)
        assert result.verdict == "packs"
        assert result.witness is None
        assert lattice_density(lat, P211) == Fraction(5, 7)

    def test_diag_7_1_overlaps(self):
        # (0, 1) lies in the lattice, so translates overlap and the tiling
        # check fails with a genuine witness.
        lat = Lattice.diagonal((7, 1))
        result = verify_lattice_tiling(lat, P211)
        assert result.verdict == "fails"
        a, b = result.witness
        assert lat.contains([x - y for x, y in zip(a, b)])
        assert lattice_density(lat, P211) == Fraction(5, 7)

    def test_verdict_relations(self):
        # tiles implies packs and density 1; packs with density 1 is a tiling.
        for lat in (CROSS, Lattice(((1, 3), (0, 5))), Lattice(((1, 2), (0, 7)))):
            tiling = verify_lattice_tiling(lat, P211)
            packing = verify_lattice_packing(lat, P211)
            if tiling.verdict == "tiles":
                assert packing.verdict == "packs"
                assert lattice_density(lat, P211) == 1
            if packing.verdict == "packs" and lattice_density(lat, P211) == 1:
                assert tiling.verdict == "tiles"

    def test_one_smith_normal_form_per_verification(self, monkeypatch):
        calls = []

        def counted(mat):
            calls.append(mat)
            return smith_normal_form(mat)

        monkeypatch.setattr(lmlab.lattice, "smith_normal_form", counted)
        lattice = Lattice(((3, 1, 2), (0, 4, 1), (1, 0, 5)))
        result = verify_lattice_tiling(lattice, BallParams.symmetric(3, 1, 2))
        assert result.index == 53  # det_abs, from the same cached form
        assert len(calls) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_lattice_packing(CROSS, BallParams.symmetric(3, 1, 1))


def reference_tiling(lattice, params):
    """Tiling verification by residues, the algorithm the coset keys replace.

    One ``QuotientMap.residue`` per ball vector in lexicographic order; the
    first residue seen twice gives the witness pair.
    """
    qmap = QuotientMap(lattice)
    volume, index = ball_volume(params), lattice.det_abs
    seen = {}
    for w in iter_ball_coords(params):
        r = qmap.residue(w)
        if r in seen:
            return VerificationResult("fails", volume, index, (IntVector(seen[r]), IntVector(w)))
        seen[r] = w
    return VerificationResult("tiles" if volume == index else "packs", volume, index)


def random_case(rng):
    """A seeded ball with n <= 7 and an HNF lattice of index near its volume."""
    while True:
        n = rng.randint(1, 7)
        e = rng.randint(0, n)
        kminus = rng.randint(0, 2)
        params = BallParams(n, e, rng.randint(max(kminus, e > 0), 3), kminus)
        if ball_volume(params) <= 400:
            break
    rest = rng.randint(max(1, ball_volume(params) // 2), 2 * ball_volume(params))
    diag = []
    for _ in range(n - 1):
        diag.append(rng.choice([d for d in range(1, rest + 1) if rest % d == 0]))
        rest //= diag[-1]
    diag.append(rest)
    rng.shuffle(diag)
    rows = [
        [diag[i] if i == j else (rng.randrange(diag[j]) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    return params, rows


class TestCosetKeys:
    """Packed coset keys against the residue walk they replace."""

    def check(self, lattice, params, monkeypatch):
        expected = reference_tiling(lattice, params)
        if expected.witness is not None:
            a, b = expected.witness
            assert lattice.contains([x - y for x, y in zip(a, b)])
        # A tiny walk block walks ball prefixes instead of materializing the suffix lists.
        for block in (lmlab.core._WALK_BLOCK, 3):
            monkeypatch.setattr(lmlab.core, "_WALK_BLOCK", block)
            assert verify_lattice_tiling(lattice, params) == expected, (lattice, params)
        return expected.verdict

    def test_random_lattices_in_both_bases(self, monkeypatch):
        rng = random.Random(2024)
        verdicts = Counter()
        for _ in range(1000):
            params, rows = random_case(rng)
            scrambled = matmul(random_unimodular(params.n, rng), rows)
            for gen in (rows, scrambled):
                verdicts[self.check(Lattice(gen), params, monkeypatch)] += 1
        assert sum(verdicts.values()) == 2000
        assert all(verdicts[v] >= 100 for v in ("tiles", "packs", "fails")), verdicts

    @pytest.mark.parametrize(
        "gen,params",
        [
            # Z^n itself: no nontrivial lane, every key is 0.
            (((1,),), BallParams(1, 0, 0, 0)),
            (((1, 0), (0, 1)), P211),
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), BallParams(3, 2, 2, 1)),
            # Power-of-two exponents: D is the smallest number of its bit length.
            (((2, 0, 0), (0, 2, 0), (0, 0, 2)), BallParams(3, 1, 1, 0)),
            (((2, 0, 0), (0, 2, 0), (0, 0, 2)), BallParams(3, 3, 1, 0)),
            (((2, 0, 0), (0, 2, 0), (0, 0, 2)), BallParams.symmetric(3, 1, 1)),
            (((4, 0), (0, 8)), P211),
            (((4, 0), (0, 8)), BallParams(2, 2, 2, 1)),
            (((4, 0), (0, 8)), BallParams(2, 2, 3, 0)),
        ]
        + [(lat.gen, BallParams.symmetric(*nes)) for nes, lat in BUNDLED_TILINGS.items()],
    )
    def test_pinned_cases(self, gen, params, monkeypatch):
        self.check(Lattice(gen), params, monkeypatch)

    def test_bundled_tilings_are_one_cyclic_lane(self):
        for (n, e, s), lat in BUNDLED_TILINGS.items():
            diag = smith_normal_form(lat.gen)[0]
            assert diag[:-1] == (1,) * (n - 1) and diag[-1] == lat.det_abs


class TestUnimodularInvariance:
    def test_same_lattice_same_answers(self):
        rng = random.Random(99)
        for lat, params in [
            (CROSS, P211),
            (Lattice.diagonal((7, 1)), P211),
            (Lattice(((1, 2), (0, 7))), P211),
        ]:
            base = verify_lattice_tiling(lat, params)
            for _ in range(5):
                u = random_unimodular(lat.n, rng)
                changed = Lattice(tuple(tuple(row) for row in matmul(u, [list(r) for r in lat.gen])))
                assert changed.det_abs == lat.det_abs
                assert verify_lattice_tiling(changed, params).verdict == base.verdict
                assert lattice_density(changed, params) == lattice_density(lat, params)


class TestBundledTilings:
    def test_all_entries_verify(self):
        for (n, e, s), lat in BUNDLED_TILINGS.items():
            result = verify_lattice_tiling(lat, BallParams.symmetric(n, e, s))
            assert result.verdict == "tiles", (n, e, s)

    def test_agreement_with_window_brute_force(self):
        for (n, e, s), lat in BUNDLED_TILINGS.items():
            params = BallParams.symmetric(n, e, s)
            window = 6
            translates = lattice_points_in_window(lat, window + 2 * s)
            ok, witness = verify_window_packing(translates, params, window)
            assert ok and witness is None

    def test_window_detects_failing_lattice(self):
        lat = Lattice(((5, 0), (0, 1)))
        translates = lattice_points_in_window(lat, 8)
        ok, witness = verify_window_packing(translates, P211, 6)
        assert not ok and witness is not None

    def test_quotient_verdicts_match_window_brute_force(self):
        # Random small lattices: the quotient-map verdict must agree with a
        # direct cell-collision check on a window comfortably larger than
        # any fundamental domain at these determinants.
        rng = random.Random(12345)
        checked = 0
        while checked < 60:
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
            try:
                lat = Lattice(rows)
                det = lat.det_abs
            except SingularMatrixError:
                continue
            if det > 40:
                continue
            verdict = verify_lattice_packing(lat, P211).verdict
            translates = lattice_points_in_window(lat, 11)
            ok, _ = verify_window_packing(translates, P211, 9)
            assert (verdict == "packs") == ok, rows
            checked += 1


class TestSerialization:
    def test_text_round_trip(self):
        assert Lattice.from_text("1,2;2,-1") == CROSS
        assert CROSS.to_text() == "1,2;2,-1"
        assert Lattice.from_text(CROSS.to_text()) == CROSS

    def test_bad_text(self):
        with pytest.raises(InvalidParameterError):
            Lattice.from_text("1,2;3")
        with pytest.raises(InvalidParameterError):
            Lattice.from_text("a,b;c,d")
