"""The four benchmark workloads: seeded inputs, the timed operations, checks.

Each workload builds one *pass* from the seed: a fixed list of operations
whose total work does not depend on the seed (the seed picks bases,
triples, argument values and order, never the problem sizes), so a pass
time from one seed compares with a pass time from another.  A pass is the
unit of a complete, checked answer; the harness repeats passes for the
run's duration.

Outputs are checked by oracles that share no code with the path under
test: exact determinants by rational elimination, ``Lattice.contains``
(independent of the quotient map), witness pairs and HNF counts derived
from the construction, and recorded digests of exact outputs.

lmlab is imported from the checkout's ``src/``; the caller puts it on the
path.  Only public lmlab names are used, always looked up on the package at
call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import lmlab

SRC = Path(__file__).resolve().parent.parent / "src"

#: Environment knobs the benchmark never lets reach the program.
STRIPPED_ENV = ("LMLAB_THREADS",)


@dataclass
class Op:
    """One timed operation: ``kind`` names it, ``items`` is its work size."""

    kind: str
    args: tuple
    items: int
    expect: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    ok: bool
    known_defect: bool = False
    message: str = ""


OK = Verdict(True)
KNOWN_DEFECT = Verdict(True, known_defect=True)


def fail(message: str) -> Verdict:
    return Verdict(False, message=message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks


def ball_size(n: int, e: int, s: int) -> int:
    """Vectors of Z^n with at most e nonzero entries, each in [-s, s]."""
    return sum(math.comb(n, i) * (2 * s) ** i for i in range(e + 1))


def abs_det(rows) -> int:
    """|det| by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        m[col], m[pivot] = m[pivot], m[col]
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return abs(int(det))


def hnf_count(n: int, index: int) -> int:
    """Sublattices of Z^n of the given index: upper-triangular HNFs with
    diagonal d_1..d_n (product = index) and d_j choices for each of the
    j - 1 entries above d_j."""
    if n == 1:
        return 1
    return sum(d ** (n - 1) * hnf_count(n - 1, index // d) for d in range(1, index + 1) if index % d == 0)


def scramble(rows, rng: random.Random):
    """The same lattice in a seeded basis: random unimodular row operations."""
    m = [list(row) for row in rows]
    n = len(m)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        row = [a + k * b for a, b in zip(m[i], m[j])]
        if max(map(abs, row)) <= 60:
            m[i] = row
    rng.shuffle(m)
    return tuple(tuple(row) for row in m)


def is_ball_vector(v, n: int, e: int, s: int) -> bool:
    return len(v) == n and sum(1 for c in v if c) <= e and all(-s <= c <= s for c in v)


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: What ``items`` counts, for the printed report.
    item_unit = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def make_ops(self) -> list[Op]:
        """One pass, generated from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Touch every code path once so the first timed pass is not a cold one."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> Verdict:
        raise NotImplementedError

    def check_pass(self, ops: list[Op], results: list) -> list[str]:
        """Checks on a whole pass; returns failure messages."""
        return []

    def in_process_mix(self, ops: list[Op]) -> None:
        """Run the pass inside this process (only where the ops are not)."""


class VerifyLarge(Workload):
    """Lattice verification against balls of about 10^5 vectors."""

    name = "verify-large"
    item_unit = "ball vectors"

    def make_ops(self):
        rng, tiny = random.Random(self.seed), self.tiny
        n, e, s = (4, 2, 1) if tiny else (11, 4, 2)
        box_n, box_s = (3, 1) if tiny else (7, 2)
        volume = ball_size(n, e, s)
        ops = []

        # Diagonal moduli > 2s separate every pair of ball vectors: packs,
        # and the whole ball is visited.
        moduli = [rng.randint(2 * s + 1, 2 * s + 3) for _ in range(n)]
        ops.append(Op(
            "packing", ("verify_lattice_tiling", scramble(diag(moduli), rng), (n, e, s)), volume,
            {"verdict": "packs", "volume": volume, "index": math.prod(moduli)},
        ))

        # Full weight: the ball is the box [-s, s]^n, tiled by any upper
        # triangular lattice with diagonal 2s + 1.
        q = 2 * box_s + 1
        tri = [[q if i == j else (rng.randrange(q) if j > i else 0) for j in range(box_n)] for i in range(box_n)]
        ops.append(Op(
            "tiling", ("verify_lattice_tiling", scramble(tri, rng), (box_n, box_n, box_s)), q ** box_n,
            {"verdict": "tiles", "volume": q ** box_n, "index": q ** box_n},
        ))

        # Modulus 2s on the first coordinate only: the first congruent pair is
        # (-s, r), (s, r) with r the lex-first tail of weight e - 1, so the
        # witness is the first vector of the last block in lex order.
        moduli = [2 * s] + [rng.randint(2 * s + 1, 2 * s + 3) for _ in range(n - 1)]
        tail = (-s,) * (e - 1) + (0,) * (n - e)
        visited = volume - ball_size(n - 1, e - 1, s) + 1
        ops.append(Op(
            "non-packing", ("verify_lattice_packing", scramble(diag(moduli), rng), (n, e, s)), visited,
            {"verdict": "fails", "volume": volume, "index": math.prod(moduli),
             "witness": ((-s,) + tail, (s,) + tail)},
        ))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        params = lmlab.BallParams.symmetric(2, 1, 1)
        lmlab.verify_lattice_tiling(lmlab.Lattice(((1, 2), (2, -1))), params)

    def run(self, op):
        fn, gen, (n, e, s) = op.args
        return getattr(lmlab, fn)(lmlab.Lattice(gen), lmlab.BallParams.symmetric(n, e, s))

    def check(self, op, result):
        want = op.expect
        got = (result.verdict, result.volume, result.index)
        if got != (want["verdict"], want["volume"], want["index"]):
            return fail(f"{op.kind}: got {got}, expected {want}")
        if "witness" not in want:
            return OK if result.witness is None else fail(f"{op.kind}: unexpected witness")
        a, b = (tuple(v.coords) for v in result.witness)
        n, e, s = op.args[2]
        if not (is_ball_vector(a, n, e, s) and is_ball_vector(b, n, e, s)) or a == b:
            return fail(f"{op.kind}: witness {a}, {b} is not a pair of ball vectors")
        if not lmlab.Lattice(op.args[1]).contains([x - y for x, y in zip(a, b)]):
            return fail(f"{op.kind}: witness difference is not in the lattice")
        if (a, b) != want["witness"]:
            return fail(f"{op.kind}: witness {a}, {b}, expected {want['witness']}")
        return OK


def diag(entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


#: Sorted perfect-lattice lists, recorded from the exhaustive search:
#: (n, e, s) -> (count, sha256 of the newline-joined lattice texts).
SEARCH_DIGESTS = {
    (2, 1, 1): (2, "44c814a26c2deb4bd1e9056dfcb62866a59b7cc59533b233b25fd9e5d771f5da"),
    (3, 1, 1): (8, "c67c30c949fa8bf95cab4e53435926ac4c7eee20b81162fe2a29838a6e7ffc50"),
    (4, 1, 2): (96, "b4d54b444a980777a6b48f93ac186bdefb73e9b4811f9d8045745699cb1d4e84"),
    (3, 2, 2): (0, sha256("")),
    (4, 1, 3): (0, sha256("")),
}


class SearchSmall(Workload):
    """Exhaustive perfect-lattice searches over thousands of HNF candidates."""

    name = "search-small"
    item_unit = "HNF candidates"
    POOL = ((4, 1, 2), (3, 2, 2), (4, 1, 3))
    TINY_POOL = ((2, 1, 1), (3, 1, 1))

    def make_ops(self):
        rng = random.Random(self.seed)
        pool = list(self.TINY_POOL if self.tiny else self.POOL)
        rng.shuffle(pool)
        return [
            Op(f"search{n}{e}{s}", (n, e, s), hnf_count(n, ball_size(n, e, s)),
               {"volume": ball_size(n, e, s), "digest": SEARCH_DIGESTS[(n, e, s)]})
            for n, e, s in pool
        ]

    def warm_up(self):
        lmlab.search_perfect_lattices(lmlab.BallParams.symmetric(2, 1, 1))

    def run(self, op):
        return lmlab.search_perfect_lattices(lmlab.BallParams.symmetric(*op.args))

    def check(self, op, found):
        for lat in found:
            if abs_det(lat.gen) != op.expect["volume"]:
                return fail(f"{op.kind}: {lat.to_text()} has det != {op.expect['volume']}")
        if [lat.gen for lat in found] != sorted(lat.gen for lat in found):
            return fail(f"{op.kind}: result is not sorted")
        got = (len(found), sha256("\n".join(lat.to_text() for lat in found)))
        if got != op.expect["digest"]:
            return fail(f"{op.kind}: got {got[0]} lattices, digest {got[1]}, expected {op.expect['digest']}")
        return OK


#: The exclusion-band table rows (min_n, coefficient) the sweep recomputes.
TABLE_ROWS = {
    (1, Fraction(1, 10)): (641, Fraction(684, 100)),
    (1, Fraction(1, 20)): (3041, Fraction(1301, 100)),
    (1, Fraction(1, 50)): (22801, Fraction(3150, 100)),
    (2, Fraction(1, 10)): (501, Fraction(612, 100)),
    (2, Fraction(1, 20)): (2241, Fraction(1146, 100)),
    (2, Fraction(1, 50)): (16801, Fraction(2745, 100)),
}
TINY_TABLE_ROWS = ((1, Fraction(1, 10)), (2, Fraction(1, 10)))

#: sha256 of the canonical JSON of a full bounds-sweep pass at seed 0.
BOUNDS_DIGEST_SEED0 = "43ca9ff03b1f0ae62b6e00559ae8ed733f2177c6112bb3356ee6f1fc5432229f"
BUNDLED = {(2, 1, 1), (3, 1, 1), (4, 1, 1)}


class BoundsSweep(Workload):
    """The classifier on seeded triples plus explicit table rows."""

    name = "bounds-sweep"
    item_unit = "classified triples"
    BODY = 2000
    TAIL = 16

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.digests: set[str] = set()

    def make_ops(self):
        rng, tiny = random.Random(self.seed), self.tiny
        body, tail = (40, 2) if tiny else (self.BODY, self.TAIL)
        ops = []
        for _ in range(body):
            n = rng.randint(3, 200)
            ops.append(Op("classify", (n, rng.randint(0, n), rng.randint(1, 4)), 1))
        # Large n inside 2 <= e < n <= 2e, where the lattice-case sum costs
        # O(e) big-integer terms.  Strata of n crossed with a fixed
        # permutation of strata of e/n keep the pass cost seed-independent.
        for k in range(tail):
            n = 400 + 75 * k + rng.randrange(75)
            frac = ((7 * k) % tail + rng.random()) / tail
            e = n // 2 + int(frac * (n - 1 - n // 2))
            ops.append(Op("classify", (n, e, rng.randint(1, 4)), 1))
        for s, eps in (TINY_TABLE_ROWS if tiny else TABLE_ROWS):
            ops.append(Op("table_row", (s, eps), 0, {"row": TABLE_ROWS[(s, eps)]}))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        lmlab.classify(10, 3, 1)
        lmlab.classify(10, 6, 3)
        lmlab.table_row(1, Fraction(1, 10))

    def run(self, op):
        if op.kind == "classify":
            return lmlab.classify(*op.args)
        return lmlab.table_row(*op.args)

    def check(self, op, result):
        if op.kind == "table_row":
            got = (result.min_n, result.coefficient)
            want = op.expect["row"]
            if got != want:
                return fail(f"table_row{op.args}: got {got}, expected {want}")
            return OK
        n, e, s = op.args
        if (result.n, result.e, result.s) != (n, e, s):
            return fail(f"classify{op.args}: report is for {(result.n, result.e, result.s)}")
        all_excl = any(c.scope == "all-tilings" and c.status == "excludes" for c in result.criteria)
        witnessed = e == 0 or e == n or (n, e, s) in BUNDLED
        want = "exists" if witnessed else ("excluded" if all_excl else "open")
        if result.verdict != want:
            return fail(f"classify{op.args}: verdict {result.verdict}, expected {want}")
        if s >= 2 and n >= 3:
            prereq = [c.status for c in result.criteria if c.name == "prerequisite-linear"]
            if prereq != ["excludes" if 5 * e >= 4 * n - 2 else "silent"]:
                return fail(f"classify{op.args}: prerequisite-linear reports {prereq}")
        if result.verdict == "exists" and all_excl:
            # Known defect kept in the sweep: at full weight the ball is a
            # box, which tiles, yet prerequisite-linear (and for n >= 61
            # large-magnitude-sqrt) excludes, evaluated outside e < n.
            if e == n and s >= 2 and n >= 3:
                return KNOWN_DEFECT
            return fail(f"classify{op.args}: exists together with an all-tilings exclusion")
        return OK

    def check_pass(self, ops, results):
        digest = sha256(canonical_sweep(ops, results))
        self.digests.add(digest)
        if len(self.digests) > 1:
            return ["bounds-sweep: two passes over the same inputs disagree"]
        if self.seed == 0 and not self.tiny and digest != BOUNDS_DIGEST_SEED0:
            return [f"bounds-sweep: seed-0 digest {digest}, expected {BOUNDS_DIGEST_SEED0}"]
        return []


def canonical_sweep(ops, results) -> str:
    rows = []
    for op, result in zip(ops, results):
        if op.kind == "classify":
            rows.append(result.to_json_dict())
        else:
            rows.append([str(op.args[0]), str(op.args[1]), str(result.min_n), str(result.coefficient)])
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


#: Inputs that crash the CLI at the seed with a traceback and exit 1.  They
#: stay in the mix; while they reproduce exactly, they count as known
#: defects rather than failures, and once fixed they must pass like any op.
DEFECT_DIGIT_LIMIT = ("classify", "--n", "4600", "--e", "4599", "--s", "4")
DEFECT_HUGE_N = ("classify", "--n", str(10**400), "--e", "5", "--s", "1")
KNOWN_DEFECTS = {DEFECT_DIGIT_LIMIT: "ValueError", DEFECT_HUGE_N: "OverflowError"}


class CliOneshot(Workload):
    """Sequential ``python -m lmlab`` invocations of tiny commands."""

    name = "cli-oneshot"
    item_unit = "CLI invocations"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.env = child_env()
        self.reference: dict[tuple, tuple] = {}

    def make_ops(self):
        rng, tiny = random.Random(self.seed), self.tiny
        n = rng.randint(2, 12)
        ball = ("ball", "--n", str(n), "--e", str(rng.randint(0, n)), "--s", str(rng.randint(1, 4)), "--format", "json")
        s = rng.randint(1, 3)
        length = rng.randint(3, 6)
        vec = lambda: ",".join(str(rng.randint(-2 * s, 2 * s)) for _ in range(length))  # noqa: E731
        dist = ("dist", "--s", str(s), f"--x={vec()}", f"--y={vec()}")
        n = rng.randint(3, 200)
        classify = ("classify", "--n", str(n), "--e", str(rng.randint(0, n)), "--s", str(rng.randint(1, 4)))
        if tiny:
            mix = [ball, dist, DEFECT_HUGE_N]
        else:
            mix = [
                ball, dist, classify,
                ("search", "--n", "2", "--e", "1", "--s", "1", "--format", "json"),
                ("verify-lattice", "--n", "4", "--e", "1", "--s", "1",
                 "--gen", "9,0,0,0;-2,1,0,0;-3,0,1,0;-4,0,0,1", "--expect", "tiles"),
                ("verify-window", "--n", "2", "--e", "1", "--s", "1",
                 "--translates", "0,0;1,2;2,-1", "--window", "5"),
                ("density", "--n", "2", "--e", "1", "--s", "1", "--gen", "1,2;2,-1", "--window", "6"),
                ("table", "--s", "1", "--epsilon", "1/15", "--format", "csv"),
                ("qp-check", "--s", "2", "--K", "5", "--a", "3", "--expect", "ok"),
                ("equivalence-check", "--n", "2", "--t", "1", "--s", "1", "--expect", "equal"),
                DEFECT_DIGIT_LIMIT,
                DEFECT_HUGE_N,
            ]
        rng.shuffle(mix)
        return [Op(argv[0], argv, 1) for argv in mix]

    def run(self, op):
        return run_child([sys.executable, "-m", "lmlab", *op.args], self.env)

    def check(self, op, result):
        rc, out, err = result
        if op.args not in self.reference:
            self.reference[op.args] = in_process(op.args)
        ref_rc, ref_out, ref_exc = self.reference[op.args]
        defect = KNOWN_DEFECTS.get(op.args)
        if defect is not None and ref_exc == defect:
            last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            if rc == 1 and b"Traceback" in err and last[0].startswith(defect + ":") and out == ref_out.encode():
                return KNOWN_DEFECT
            return fail(f"{' '.join(op.args)[:60]}: known defect {defect} changed form (exit {rc})")
        if ref_exc is not None:
            return fail(f"{op.kind}: in-process main raised {ref_exc}")
        if rc != 0 or ref_rc != 0:
            return fail(f"{op.kind}: exit {rc}, in-process exit {ref_rc}")
        if b"Traceback" in err:
            return fail(f"{op.kind}: traceback on stderr")
        if out != ref_out.encode():
            return fail(f"{op.kind}: stdout differs from in-process main")
        return OK

    def in_process_mix(self, ops):
        for op in ops:
            in_process(op.args)


def in_process(argv) -> tuple[int | None, str, str | None]:
    """``lmlab.cli.main`` on argv: (exit code, stdout, name of exception raised)."""
    from lmlab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return cli.main(list(argv)), out.getvalue(), None
        except SystemExit as exc:
            return exc.code, out.getvalue(), None
        except Exception as exc:  # the reference records the crash; the check judges it
            return None, out.getvalue(), type(exc).__name__


WORKLOADS = {w.name: w for w in (VerifyLarge, SearchSmall, BoundsSweep, CliOneshot)}
