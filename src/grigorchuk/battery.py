"""Acceptance battery: the reproducibility checks behind `verify` and the
acceptance test suite. Every check is deterministic given (config, seed)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import fullgroup as fg
from . import group, schreier, subshift
from .omega import EventuallyConstantOmegaError, parse_omega

DEFAULT_SEED = 1729
DEFAULT_SUITE = ("012", "01", "02", "2:01", "10:012")

# The length-4 Gray order in the 1/0-exchanged reflected convention.
GRAY4_EXPECTED = (
    "1111", "0111", "0011", "1011", "1001", "0001", "0101", "1101",
    "1100", "0100", "0000", "1000", "1010", "0010", "0110", "1110",
)


@dataclass(frozen=True)
class Caps:
    graph_level: int = 10
    bfs_vertices: int = 1024
    complexity_max: int = 256
    doubling_max: int = 128
    embed_words: int = 500
    embed_len: int = 12
    schreier_pairs: int = 200
    schreier_len: int = 8
    schreier_vertex_max: int = 200
    torsion_words: int = 100
    torsion_len: int = 10
    torsion_bound: int = 1024
    nontorsion_bound: int = 64
    commutator_involutions: int = 3
    commutator_pairs: int = 50
    recurrence_max: int = 16
    return_order_bound: int = 64


QUICK_CAPS = Caps(
    graph_level=6,
    bfs_vertices=256,
    complexity_max=64,
    doubling_max=32,
    embed_words=60,
    embed_len=8,
    schreier_pairs=40,
    schreier_len=6,
    schreier_vertex_max=100,
    torsion_words=25,
    torsion_len=8,
    torsion_bound=256,
    commutator_pairs=10,
    recurrence_max=8,
    return_order_bound=16,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, name: str, extra: str = "") -> random.Random:
    return random.Random(f"{seed}/{name}/{extra}")


def _random_word(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    return "".join(rng.choice("abcd") for _ in range(rng.randint(min_len, max_len)))


def check_gray_code(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    match = _gray4_listing() == GRAY4_EXPECTED
    best = min(_timed_gray4_listing() for _ in range(5))
    fast = best < 1e-3
    return match and fast, (
        f"16/16 strings {'match' if match else 'MISMATCH'}; construction "
        f"{'<' if fast else '>='} 1 ms"
    )


def _gray4_listing() -> tuple[str, ...]:
    """The length-4 Gray order, unranked one index at a time; a ray drops its
    trailing 1s, so each prefix is padded back to four digits."""
    return tuple(schreier.ray_at(i).prefix.ljust(4, "1") for i in range(16))


def _timed_gray4_listing() -> float:
    start = time.perf_counter()
    _gray4_listing()
    return time.perf_counter() - start


def check_graph_oracle(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for omega in omegas:
        for n in range(1, caps.graph_level + 1):
            orbit = schreier.build_gamma_orbit(omega, 2 << n, with_xi=False)
            if schreier.build_gamma_recursive(omega, n) != orbit:
                bad.append(f"{omega.spec()}@n={n}")
    return not bad, (
        f"recursive == orbit for n<={caps.graph_level} on {len(omegas)} omegas"
        + (f"; mismatches: {bad}" if bad else "")
    )


def check_bfs_order(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    count = caps.bfs_vertices
    bad: list[str] = []
    for omega in omegas:
        g = schreier.build_gamma_orbit(omega, count, with_xi=False)
        # Vertex i is at distance i from 0 for every i exactly when the graph is
        # the path 0 - 1 - ..., as an edge (i, j > i + 1) puts j at distance <= i + 1.
        if {(u, v) for u, v, _ in g.edges if u != v} != {(i, i + 1) for i in range(count - 1)}:
            bad.append(omega.spec())
    return not bad, (
        f"first {count} vertices in distance order"
        + (f"; failures: {bad}" if bad else "")
    )


def check_complexity_bounds(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for omega in omegas:
        for n in range(1, caps.complexity_max + 1):
            rho = subshift.complexity(omega, n)
            if not n + 1 <= rho <= 6 * n:
                bad.append(f"{omega.spec()}@n={n}:rho={rho}")
    return not bad, (
        f"n+1 <= rho(n) <= 6n for n<={caps.complexity_max}"
        + (f"; violations: {bad[:4]}" if bad else "")
    )


def check_doubling_bound(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for omega in omegas:
        for n in range(1, caps.doubling_max + 1):
            lhs = len(subshift.double_language(omega, n))
            rhs = 2 * subshift.complexity(omega, (n + 1) // 2)
            if lhs > rhs:
                bad.append(f"{omega.spec()}@n={n}:{lhs}>{rhs}")
    return not bad, (
        f"rho_Y(n) <= 2 rho_X(ceil(n/2)) for n<={caps.doubling_max}"
        + (f"; violations: {bad[:4]}" if bad else "")
    )


def check_embedding(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    mismatches = 0
    missing_witness = 0
    total = 0
    for omega in omegas:
        rng = _rng(seed, "embed", omega.spec())
        for _ in range(caps.embed_words):
            word = _random_word(rng, caps.embed_len)
            total += 1
            trivial = group.is_trivial(word, omega)
            e = fg.embed_word(word, omega)
            if trivial != fg.is_identity(e):
                mismatches += 1
                continue
            if not trivial and fg.witness_window(e, group.find_moved_vertex(word, omega)) is None:
                missing_witness += 1
    return mismatches == 0 and missing_witness == 0, (
        f"{total} words: identity iff trivial ({mismatches} mismatches), "
        f"witness for every nontrivial word ({missing_witness} missing)"
    )


def check_schreier_consistency(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    failures = 0
    total = 0
    for omega in omegas:
        rng = _rng(seed, "schreier", omega.spec())
        for _ in range(caps.schreier_pairs):
            word = _random_word(rng, caps.schreier_len)
            j = rng.randint(len(word) + 1, caps.schreier_vertex_max)
            total += 1
            if not fg.schreier_consistency(word, omega, j):
                failures += 1
    return failures == 0, (
        f"cocycle == displacement on {total} (word, vertex) pairs"
        + (f"; {failures} failures" if failures else "")
    )


RELATION_WORDS = ("aa", "bb", "cc", "dd", "bcd", "bdc", "cbd", "cdb", "dbc", "dcb")


def check_relations(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for omega in omegas:
        for word in RELATION_WORDS:
            if not group.is_trivial(word, omega):
                bad.append(f"G:{omega.spec()}:{word}")
            if not fg.is_identity(fg.embed_word(word, omega)):
                bad.append(f"FG:{omega.spec()}:{word}")
    return not bad, (
        f"{len(RELATION_WORDS)} relation words trivial in the group and its image"
        + (f"; failures: {bad}" if bad else "")
    )


def check_torsion(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    omega = parse_omega("012")
    rng = _rng(seed, "torsion")
    bad_orders: list[str] = []
    for _ in range(caps.torsion_words):
        word = _random_word(rng, caps.torsion_len, min_len=1)
        order = group.element_order(word, omega, caps.torsion_bound)
        if order is None or order & (order - 1):
            bad_orders.append(f"{word}:{order}")
    constant = parse_omega("0:1")
    embed_rejected = False
    try:
        fg.embed_word("a", constant)
    except EventuallyConstantOmegaError:
        embed_rejected = True
    unbounded = group.element_order("ab", constant, caps.nontorsion_bound) is None
    passed = not bad_orders and embed_rejected and unbounded
    return passed, (
        f"{caps.torsion_words} word orders are powers of 2 over 012"
        + (f" (bad: {bad_orders[:4]})" if bad_orders else "")
        + f"; eventually constant 0:1 rejects the embedding ({embed_rejected})"
        f" and ab has order > {caps.nontorsion_bound} ({unbounded})"
    )


def check_commutator(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    omega = omegas[0]
    rng = _rng(seed, "commutator", omega.spec())
    words = ["a", "b", "c", "d"]
    while len(words) < 4 + caps.commutator_involutions:
        conjugator = _random_word(rng, 4)
        candidate = conjugator + rng.choice("abcd") + conjugator[::-1]
        if not group.is_trivial(candidate, omega):
            words.append(candidate)
    failed = [w for w in words if not fg.commutator_identity_check(w, omega)]
    commute_failures = 0
    for _ in range(caps.commutator_pairs):
        w1 = _random_word(rng, 5)
        w2 = _random_word(rng, 5)
        e1 = fg.double_element(fg.embed_word(w1, omega), 1)
        e2 = fg.double_element(fg.embed_word(w2, omega), 2)
        if not fg.elements_equal(fg.compose(e1, e2), fg.compose(e2, e1)):
            commute_failures += 1
    return not failed and commute_failures == 0, (
        f"diagonal = g1·tau·g1·tau for {len(words)} involutions over {omega.spec()}"
        + (f" (failed: {failed})" if failed else "")
        + f"; copies 1,2 commute on {caps.commutator_pairs} pairs"
        + (f" ({commute_failures} failures)" if commute_failures else "")
    )


def check_degenerate_witnesses(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    omega = parse_omega("012")
    u = fg.find_disjoint_cylinder(omega, 3)
    s01 = fg.swap_involution(u, 0, 1, omega)
    s12 = fg.swap_involution(u, 1, 2, omega)
    s02 = fg.swap_involution(u, 0, 2, omega)
    prod = fg.compose(s01, s12)
    relations = {
        "sigma01^2": fg.is_identity(fg.compose(s01, s01)),
        "sigma12^2": fg.is_identity(fg.compose(s12, s12)),
        "sigma02^2": fg.is_identity(fg.compose(s02, s02)),
        "braid": fg.elements_equal(fg.compose(s01, fg.compose(s12, s01)), s02),
        "(s01 s12)^3": fg.is_identity(fg.compose(prod, fg.compose(prod, prod))),
    }
    r = [
        fg.compose(fg.shift_power(i, omega), fg.compose(
            fg.first_return_element(u, omega), fg.shift_power(-i, omega)))
        for i in range(3)
    ]
    commute = all(
        fg.elements_equal(fg.compose(r[i], r[j]), fg.compose(r[j], r[i]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    unbounded = fg.element_order_fg(r[0], caps.return_order_bound) is None
    bad = [name for name, ok in relations.items() if not ok]
    return not bad and commute and unbounded, (
        f"S3 relations on sigma involutions over cylinder {u!r}"
        + (f" (failed: {bad})" if bad else "")
        + f"; r0,r1,r2 commute ({commute}); r0 order > {caps.return_order_bound} ({unbounded})"
    )


def check_recurrence(omegas, caps: Caps, seed: int) -> tuple[bool, str]:
    radii: list[str] = []
    for omega in omegas:
        last = 0
        for n in range(1, caps.recurrence_max + 1):
            radius = subshift.uniform_recurrence_radius(omega, n)
            if radius < last:
                return False, f"radius not monotone at {omega.spec()} n={n}"
            last = radius
        radii.append(f"{omega.spec()}:R({caps.recurrence_max})={last}")
    return True, "; ".join(radii)


def run_battery(
    omega_specs=DEFAULT_SUITE, seed: int = DEFAULT_SEED, quick: bool = False
) -> list[CheckResult]:
    """Run every acceptance check on the given omega suite. An exception that
    escapes one check is reported as that check's failure; the others still
    run. The table below is the only place that names a check; each check
    takes (omegas, caps, seed) and returns (passed, detail)."""
    caps = QUICK_CAPS if quick else Caps()
    omegas = [parse_omega(s) for s in omega_specs]
    for omega in omegas:  # every check reads the subshift of each omega
        subshift._require_not_constant(omega)
    checks = (  # built per call, so the module's current check functions run
        ("gray_code_matches_published_listing", check_gray_code),
        ("graph_oracle_equivalence", check_graph_oracle),
        ("gray_order_equals_bfs_distance", check_bfs_order),
        ("complexity_bounds", check_complexity_bounds),
        ("doubling_complexity_bound", check_doubling_bound),
        ("embedding_homomorphism_injectivity", check_embedding),
        ("schreier_cocycle_consistency", check_schreier_consistency),
        ("relations_map_to_identity", check_relations),
        ("torsion_evidence", check_torsion),
        ("commutator_embedding", check_commutator),
        ("degenerate_case_witnesses", check_degenerate_witnesses),
        ("uniform_recurrence_terminates", check_recurrence),
    )
    results = []
    for name, check in checks:
        try:
            passed, detail = check(omegas, caps, seed)
        except Exception as exc:  # one faulty check must not hide the others
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
