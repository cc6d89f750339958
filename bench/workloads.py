"""The benchmark's four workloads: seeded inputs and checked operations.

Each workload has a `make_*` function that builds its inputs from the seed and
a `run_*` function that performs the operations and checks every output
through a `Tally`. Expected answers never come from the code under test on the
same run: they are known by construction (conjugates of a are nontrivial, a
factor cut from the block word is admissible, gray_rank inverts ray_at) or
pinned from fixed inputs (ball sizes, complexity tables, recurrence radii,
element orders), so they do not depend on the seed.

Operations call the package through module attributes (`subshift.language`,
not a name imported once), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter

from grigorchuk import cli, group, schreier, subshift
from grigorchuk import fullgroup as fg
from grigorchuk import omega as om

SUITE = ("012", "01", "02", "2:01", "10:012")


class Tally:
    """Operations attempted and failed. An operation fails if it raises or if
    its output does not match the expected answer. A wrong output, or an
    exception other than one pinned in EXPECTED_ERRORS for that operation,
    makes the run incorrect; a pinned exception is only counted as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter[str] = Counter()

    def op(self, label: str, call, check):
        self.attempted += 1
        try:
            result = call()
        except Exception as exc:  # a raising operation is a counted failure
            self.failed += 1
            self.errors[f"{label}: {type(exc).__name__}"] += 1
            if EXPECTED_ERRORS.get(label) is not type(exc):
                self.wrong.append(f"{label} raised {type(exc).__name__}")
            return None
        if not check(result):
            self.failed += 1
            self.wrong.append(label)
        return result


# --- independent oracles -------------------------------------------------


def _omega_at(spec: str, i: int) -> int:
    head, sep, tail = spec.partition(":")
    pre, per = (head, tail) if sep else ("", head)
    if i <= len(pre):
        return int(pre[i - 1])
    return int(per[(i - len(pre) - 1) % len(per)])


def block_word(spec: str, length: int) -> str:
    """Prefix of the half-line block word, computed here and not by the
    package: T at odd positions, omega(v2(i) + 1) at position 2i."""
    return "".join(
        "T" if p % 2 else str(_omega_at(spec, ((p // 2) & -(p // 2)).bit_length()))
        for p in range(1, length + 1)
    )


def normal_word(rng: random.Random, length: int) -> str:
    """A word in alternating normal form that ends with b, c or d."""
    out = ["a"] * length
    out[length - 1 :: -2] = rng.choices("bcd", k=(length + 1) // 2)
    return "".join(out)


def conjugate(u: str, x: str) -> str:
    """u x u^-1; every generator is an involution, so u^-1 is u reversed."""
    return u + x + u[::-1]


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


# --- verify ----------------------------------------------------------------

VERIFY_CHECKS = 12


def make_verify(seed: int):
    return ["verify", "--seed", str(seed)]


def run_verify(argv, tally: Tally) -> None:
    out = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue().splitlines()

    def check(result):
        code, lines = result
        passed = sum(line.startswith("PASS ") for line in lines)
        return code == 0 and passed == VERIFY_CHECKS and "RESULT: PASS" in lines

    tally.op("verify", call, check)


# --- subshift ----------------------------------------------------------------

RHO_MAX = 1024
# rho(n) for n = 1..1024 over 012: digest of the table and its sum.
RHO_012_DIGEST = "936505bad02f211e"
RHO_012_SUM = 1355693
RECURRENCE = {
    "012": {8: 67, 16: 135, 32: 271, 64: 543},
    "2:01": {8: 35, 16: 71, 32: 143, 64: 287},
}
DOUBLE_MAX = 128
# len(double_language(omega, n)) for n = 1..128: digest and sum.
DOUBLE_PINNED = {"012": ("39d219b4c7b1524b", 21333), "2:01": ("5b6c6b9ee358a3bf", 13109)}
QUERIES = 1500  # per omega and kind (admissible, inadmissible)
QUERY_MAX_LEN = {"012": 1023, "2:01": 255}
_PREFIX_LEN = 1 << 14


def make_subshift(seed: int):
    """Membership queries. Admissible ones are factors cut from the block
    word, with the letters just outside the cut. Inadmissible ones get one
    letter changed so that TT or two adjacent digits appear, which the block
    word (T and digits alternate) never contains."""
    queries = []
    for spec, max_len in QUERY_MAX_LEN.items():
        rng = random.Random(f"{seed}/subshift/{spec}")
        prefix = block_word(spec, _PREFIX_LEN)
        for _ in range(QUERIES):
            n = rng.randint(1, max_len)
            pos = rng.randint(1, _PREFIX_LEN - n - 1)
            word = prefix[pos : pos + n]
            queries.append((spec, word, prefix[pos - 1], prefix[pos + n], True))
            n = rng.randint(2, max_len)
            pos = rng.randint(0, _PREFIX_LEN - n)
            word = list(prefix[pos : pos + n])
            i = rng.randrange(n)
            word[i] = rng.choice("012") if word[i] == "T" else "T"
            queries.append((spec, "".join(word), None, None, False))
    return queries


def run_subshift(queries, tally: Tally) -> None:
    o012 = om.parse_omega("012")
    table = []
    for n in range(1, RHO_MAX + 1):
        rho = tally.op(
            f"complexity(012, {n})",
            lambda: subshift.complexity(o012, n),
            lambda r: n + 1 <= r <= 6 * n,
        )
        table.append(rho)
    tally.op(
        "rho table 012",
        lambda: (_digest(table), sum(v or 0 for v in table)),
        lambda r: r == (RHO_012_DIGEST, RHO_012_SUM),
    )
    for spec, radii in RECURRENCE.items():
        omega = om.parse_omega(spec)
        for n, expected in radii.items():
            tally.op(
                f"R({spec}, {n})",
                lambda: subshift.uniform_recurrence_radius(omega, n),
                lambda r: r == expected,
            )
    for spec, pinned in DOUBLE_PINNED.items():
        omega = om.parse_omega(spec)
        sizes = []
        for n in range(1, DOUBLE_MAX + 1):
            size_bound = tally.op(
                f"double({spec}, {n})",
                lambda: (
                    len(subshift.double_language(omega, n)),
                    2 * subshift.complexity(omega, (n + 1) // 2),
                ),
                lambda r: r[0] <= r[1],
            )
            sizes.append(size_bound and size_bound[0])
        tally.op(
            f"double table {spec}",
            lambda: (_digest(sizes), sum(v or 0 for v in sizes)),
            lambda r: r == pinned,
        )
    for spec, word, left, right, admissible in queries:
        omega = om.parse_omega(spec)
        tally.op(
            f"is_admissible({spec}, len {len(word)})",
            lambda: subshift.is_admissible(word, omega),
            lambda r: r is admissible,
        )
        if admissible:
            for side, letter in (("left", left), ("right", right)):
                tally.op(
                    f"extensions({spec}, len {len(word)}, {side})",
                    lambda: subshift.extensions(word, omega, side),
                    lambda r: letter in r and r <= set("012" if letter != "T" else "T"),
                )


# --- words -------------------------------------------------------------------

BALL_012_12 = [1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487]
# Relators x^k with k the order of x in G_omega, pinned per omega.
RELATORS = {
    "012": (("ad", 4), ("ac", 8), ("ab", 16)),
    "01": (("ad", 4), ("ac", 8), ("adab", 8)),
    "02": (("ad", 4), ("ab", 8), ("adab", 8)),
    "2:01": (("ad", 8), ("ac", 16), ("ab", 4)),
    "10:012": (("ad", 8), ("ac", 4), ("acab", 16)),
}
WORD_LENGTHS = (64, 128, 256, 512, 1024, 2048, 4096)
WORDS_PER_LENGTH = 8  # of each kind, per omega
ORDERS_012 = (("a", 2), ("ad", 4), ("ac", 8), ("ab", 16))
ORDER_CONJUGATORS = 8
TORSION_BOUND = 1024
# ab has infinite order over 0:1, so element_order scans linearly to the
# bound. The bound stays small: over 2:01, element_order with bound 4096 on
# 16-64 letter words ran for more than 10 minutes at about 1 GB.
NONTORSION_BOUND = 96
NONTORSION_WORDS = 4


def make_words(seed: int):
    rng = random.Random(f"{seed}/words")
    decided = []
    for spec in SUITE:
        for length in WORD_LENGTHS:
            for _ in range(WORDS_PER_LENGTH):
                x, k = rng.choice(RELATORS[spec])
                r = x * k
                decided.append((spec, conjugate(normal_word(rng, (length - len(r)) // 2), r), True))
                decided.append((spec, conjugate(normal_word(rng, (length - 1) // 2), "a"), False))
    orders = [
        (conjugate(normal_word(rng, rng.randint(8, 64)), x), k)
        for x, k in ORDERS_012
        for _ in range(ORDER_CONJUGATORS)
    ]
    nontorsion = [conjugate(normal_word(rng, rng.randint(8, 32)), "ab") for _ in range(NONTORSION_WORDS)]
    return decided, orders, nontorsion


def run_words(inputs, tally: Tally) -> None:
    decided, orders, nontorsion = inputs
    o012 = om.parse_omega("012")
    tally.op("ball_sizes(012, 12)", lambda: group.ball_sizes(o012, 12), lambda r: r == BALL_012_12)
    for spec, word, trivial in decided:
        omega = om.parse_omega(spec)
        tally.op(
            f"is_trivial({spec}, len {len(word)})",
            lambda: group.is_trivial(word, omega),
            lambda r: r is trivial,
        )
        if not trivial:

            def moved():
                v = group.find_moved_vertex(word, omega)
                return v, group.apply_word(word, v, omega)

            tally.op(f"moved vertex({spec}, len {len(word)})", moved, lambda r: r[0] != r[1])
    for word, k in orders:
        tally.op(
            f"element_order(012, len {len(word)})",
            lambda: group.element_order(word, o012, TORSION_BOUND),
            lambda r: r == k,
        )
    o01 = om.parse_omega("0:1")
    for word in nontorsion:
        tally.op(
            f"element_order(0:1, len {len(word)})",
            lambda: group.element_order(word, o01, NONTORSION_BOUND),
            lambda r: r is None,
        )


# --- orbit -------------------------------------------------------------------

GRAY_ROUND_TRIPS = 2000
GRAY_SPREAD = 1 << 12
GAMMA_LEVEL = 16
WITNESS_OMEGA = "2" * 18 + ":01"
CONSISTENCY_ANCHORS = (100_000, 250_000, 500_000, 1_000_000 - 4096)
CONSISTENCY_MAX_LEN = 8
TRIVIAL_EMBED_LENGTHS = (120, 240, 360, 480)
# Nontrivial embeddings of 500+ letters; today they raise RecursionError and
# count as failed operations.
LONG_EMBED_LENGTHS = (501, 751, 1001)
# The only operations that may raise without making a run incorrect, with the
# exception each may raise. Every other exception is a wrong result.
EXPECTED_ERRORS = {f"is_identity(nontrivial, len {n})": RecursionError for n in LONG_EMBED_LENGTHS}


def make_orbit(seed: int):
    rng = random.Random(f"{seed}/orbit")
    rays = [(1 << 20) + rng.randint(-GRAY_SPREAD, GRAY_SPREAD) for _ in range(GRAY_ROUND_TRIPS)]
    consistency = [
        (
            "".join(rng.choice("abcd") for _ in range(rng.randint(1, CONSISTENCY_MAX_LEN))),
            anchor + rng.randrange(4096),
        )
        for anchor in CONSISTENCY_ANCHORS
    ]
    trivial = []
    for length in TRIVIAL_EMBED_LENGTHS:
        w = "".join(rng.choice("abcd") for _ in range(length // 2))
        trivial.append(w + w[::-1])
    long_words = [conjugate(normal_word(rng, (n - 1) // 2), "a") for n in LONG_EMBED_LENGTHS]
    return rays, consistency, trivial, long_words


def _gamma_label_counts(spec: str, level: int) -> Counter:
    """Edge labels of the level-n graph by construction: 2^n simple a-edges,
    and for each of the 2^n - 1 double-edge blocks Lambda_s two loops labelled
    by the generator of s plus one edge for each of the other two."""
    counts = Counter({"a": 1 << level})
    gen = {2: "b", 1: "c", 0: "d"}
    for k in range(1, level + 1):
        s = _omega_at(spec, k)
        blocks = 1 << (level - k)
        counts[gen[s]] += 2 * blocks
        for other in set("bcd") - {gen[s]}:
            counts[other] += blocks
    return counts


def run_orbit(inputs, tally: Tally) -> None:
    rays, consistency, trivial, long_words = inputs
    o012 = om.parse_omega("012")
    for j in rays:
        tally.op(
            f"gray round trip {j}",
            lambda: schreier.gray_rank(schreier.ray_at(j).prefix),
            lambda r: r == j,
        )
    expected = _gamma_label_counts("012", GAMMA_LEVEL)
    tally.op(
        f"build_gamma_recursive(012, {GAMMA_LEVEL})",
        lambda: schreier.build_gamma_recursive(o012, GAMMA_LEVEL),
        lambda g: g.n == 1 << (GAMMA_LEVEL + 1) and Counter(e[2] for e in g.edges) == expected,
    )
    witness_omega = om.parse_omega(WITNESS_OMEGA)
    # b moves the marked vertex exactly when the adjacent double-edge block is
    # Lambda_0 or Lambda_1.
    tally.op(
        "injectivity_witness(b)",
        lambda: fg.injectivity_witness("b", witness_omega),
        lambda w: w is not None and w.radius == 1 and sorted(w.letters) in (["0", "T"], ["1", "T"]),
    )
    for word, j in consistency:
        tally.op(
            f"schreier_consistency({word}, {j})",
            lambda: fg.schreier_consistency(word, o012, j),
            lambda r: r is True,
        )
    for word in trivial:
        tally.op(
            f"is_identity(trivial, len {len(word)})",
            lambda: fg.is_identity(fg.embed_word(word, o012)),
            lambda r: r is True,
        )
    for word in long_words:
        tally.op(
            f"is_identity(nontrivial, len {len(word)})",
            lambda: fg.is_identity(fg.embed_word(word, o012)),
            lambda r: r is False,
        )


WORKLOADS = {
    "verify": (make_verify, run_verify),
    "subshift": (make_subshift, run_subshift),
    "words": (make_words, run_words),
    "orbit": (make_orbit, run_orbit),
}
