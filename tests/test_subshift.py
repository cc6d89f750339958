"""Language tests. The independent oracle is a brute factor scan of a long
graph-word prefix; the library computes languages by the level decomposition
instead, and the two must agree wherever the scan premise holds. `complexity`
reads no factor at all, and is checked against the window count of one length
and against a suffix automaton of the junction words."""

import random
import tracemalloc
from itertools import accumulate, product

import pytest
from hypothesis import given, strategies as st

from grigorchuk import (
    battery,
    complexity,
    double_language,
    extensions,
    gamma_word,
    is_admissible,
    language,
    parse_omega,
    render_word,
    ruler_a,
    subshift,
    uniform_recurrence_radius,
)
from grigorchuk.omega import EventuallyConstantOmegaError, OmegaSequence
from grigorchuk.subshift import ALPHABET, _junctions, _level_for, _windows

from conftest import block_letters


def scan_factors(omega, n: int) -> frozenset:
    """Brute factor scan of a graph-word prefix. The horizon is stretched so
    that, at the junction level for n, every symbol still occurring in omega
    has shown up as a junction block: the first junction carrying symbol s
    sits at block index 2^(v-1) where v is the first tail position reading s,
    so factors of the prefix past (2^(v-1)+1)*2^m are exhaustive."""
    m = max(1, (n - 1).bit_length())
    worst = 1
    for s in omega.symbols_from(m):
        v = 1
        while omega.at(m - 1 + v) != s:
            v += 1
        worst = max(worst, (1 << (v - 1)) + 1)
    w = gamma_word(omega, (worst + 1) << m)
    return frozenset(w[i : i + n] for i in range(len(w) - n + 1))


def complexity_by_windows(omega, n: int) -> int:
    """Oracle for `complexity`: the distinct length-n windows of the junction
    words, counted for one length at a time."""
    return len(set(_windows(_junctions(omega, _level_for(n)), n)))


def rho_by_automaton(omega, max_n: int) -> list[int]:
    """Oracle for `complexity`: rho(n) for every n <= max_n (rho(0) = 1) from
    one generalized suffix automaton of the junction words of the level for
    max_n (Blumer et al. 1985), `last` restarting at the root for each word.
    A state v stands for the factors whose lengths lie in (len(link v), len v],
    so one difference array over the states counts the distinct factors of
    every length at once."""
    length, link, nxt = [0], [-1], [{}]

    def split(p: int, q: int, c: str) -> int:
        """Clone q at length len(p) + 1 and move p's suffix path onto it."""
        clone = len(length)
        length.append(length[p] + 1)
        link.append(link[q])
        nxt.append(dict(nxt[q]))
        link[q] = clone
        while p >= 0 and nxt[p].get(c) == q:
            nxt[p][c] = clone
            p = link[p]
        return clone

    for word in _junctions(omega, _level_for(max_n)):
        last = 0
        for c in word:
            q = nxt[last].get(c)
            if q is not None:  # the factor already occurs in an earlier word
                last = q if length[q] == length[last] + 1 else split(last, q, c)
                continue
            cur = len(length)
            length.append(length[last] + 1)
            link.append(0)
            nxt.append({})
            p = last
            while p >= 0 and c not in nxt[p]:
                nxt[p][c] = cur
                p = link[p]
            if p >= 0:
                q = nxt[p][c]
                link[cur] = q if length[q] == length[p] + 1 else split(p, q, c)
            last = cur
    diff = [0] * (max_n + 2)
    diff[0], diff[1] = 1, -1  # the root: the empty word
    for v in range(1, len(length)):
        lo = length[link[v]] + 1
        if lo <= max_n:
            diff[lo] += 1
            diff[min(length[v], max_n) + 1] -= 1
    return list(accumulate(diff[: max_n + 1]))


def extensions_by_membership(word: str, omega, side: str) -> frozenset:
    """Oracle for `extensions`: one membership search for the word, then one
    for the word with each letter of the alphabet added on the given side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not is_admissible(word, omega):
        raise ValueError(f"word {render_word(word)} is not admissible")
    if side == "left":
        return frozenset(c for c in ALPHABET if is_admissible(c + word, omega))
    return frozenset(c for c in ALPHABET if is_admissible(word + c, omega))


def covers_by_gaps(omega, radius: int, n: int) -> bool:
    """Slow oracle for uniform_recurrence_radius: every admissible word of
    length `radius` contains every admissible word of length n. In each
    junction word of the radius's level, successive starts of each length-n
    word, the ends counting as starts -1 and len - n + 1, lie at most
    radius - n + 1 apart; a wider gap is a window that misses the word."""
    gap = radius - n + 1
    for j in _junctions(omega, _level_for(radius)):
        end, last = len(j) - n + 1, dict.fromkeys(language(omega, n), -1)
        for i in range(end):
            u = j[i : i + n]
            if i - last[u] > gap:
                return False
            last[u] = i
        if any(end - i > gap for i in last.values()):
            return False
    return True


def interleave(word: str, n: int, z_first: bool) -> str:
    """Length-n doubled word whose marker letters sit at even (z_first) or odd
    positions, with `word` supplying the plain letters in order."""
    out = []
    k = 0
    for i in range(n):
        if (i % 2 == 0) == z_first:
            out.append("z")
        else:
            out.append(word[k])
            k += 1
    return "".join(out)


class TestGammaWord:
    def test_prefix(self, omega012):
        assert gamma_word(omega012, 4) == "T0T1"

    def test_odd_positions_theta(self, suite):
        for w in suite:
            word = gamma_word(w, 101)
            assert all(word[p] == "T" for p in range(0, 101, 2))

    def test_even_positions_ruler(self, suite):
        for w in suite:
            word = gamma_word(w, 100)
            for i in range(1, 50):
                assert word[2 * i - 1] == str(w.at(ruler_a(i)))

    @pytest.mark.parametrize("k", [0, 1, 4, 100, 101])
    def test_matches_positional_letters(self, suite, k):
        for w in suite:
            assert gamma_word(w, k) == block_letters(w, 1, k)

    def test_rejects_negative_length(self, omega012):
        with pytest.raises(ValueError):
            gamma_word(omega012, -1)


class TestLanguage:
    def test_length1(self, omega012):
        assert language(omega012, 1) == frozenset("T012")

    def test_length2(self, omega012):
        assert language(omega012, 2) == frozenset({"T0", "T1", "T2", "0T", "1T", "2T"})

    def test_alternation(self, suite):
        for w in suite:
            for word in language(w, 7):
                thetas = {i for i, c in enumerate(word) if c == "T"}
                assert thetas in ({0, 2, 4, 6}, {1, 3, 5})

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 21, 32, 50])
    def test_exactness_against_scan(self, suite, n):
        for w in suite:
            factors = scan_factors(w, n)
            assert language(w, n) == factors
            assert complexity(w, n) == len(factors)

    def test_factor_closure(self, suite):
        for w in suite:
            for n in range(2, 24):
                smaller = language(w, n - 1)
                for word in language(w, n):
                    assert word[:-1] in smaller and word[1:] in smaller

    def test_eventually_constant_rejected(self):
        with pytest.raises(EventuallyConstantOmegaError):
            language(parse_omega("0:1"), 3)

    def test_occurring_symbols(self):
        assert parse_omega("2:0112").symbols_from(2) == {0, 1, 2}
        assert parse_omega("2:01").symbols_from(2) == {0, 1}


class TestComplexity:
    def test_small_values(self, omega012):
        assert complexity(omega012, 1) == 4
        assert complexity(omega012, 2) == 6
        assert [complexity(omega012, n) for n in range(1, 9)] == [4, 6, 8, 10, 13, 16, 18, 20]

    def test_bounds(self, suite):
        for w in suite:
            for n in range(1, 257):
                assert n + 1 <= complexity(w, n) <= 6 * n

    def test_power_of_two_boundary(self, suite):
        for w in suite:
            for m in range(1, 8):
                assert complexity(w, 1 << m) <= 3 << m

    def test_matches_windows(self, suite):
        for w in suite:
            for n in range(1, 301):
                assert complexity(w, n) == complexity_by_windows(w, n)

    @pytest.mark.parametrize("spec", ["012", "2:01"])
    def test_matches_windows_long(self, spec):
        w = parse_omega(spec)
        for n in (511, 512, 513, 1000, 1024):
            assert complexity(w, n) == complexity_by_windows(w, n)

    @pytest.mark.parametrize(
        "spec,rho", [("012", 10240), ("10:012", 10240), ("01", 6144), ("02", 6144), ("2:01", 6144)]
    )
    def test_pinned_4096(self, spec, rho):
        assert complexity(parse_omega(spec), 4096) == rho

    def test_verify_builds_each_table_once(self, suite):
        # `complexity` reads no junction word. The recurrence check scans
        # levels 2..8 on 012 and 10:012 and levels 2..7 on 01, 02 and 2:01
        # (2*7 + 3*6 = 32 (omega, level) keys), and the doubling check's levels
        # 1..6 add level 1 on each omega: 37 keys, held without evicting. The
        # caches built on the junction words are cleared too, so the count
        # does not depend on the tests that ran before.
        for cache in (_junctions, language, double_language):
            cache.cache_clear()
        for check in (
            battery.check_complexity_bounds,
            battery.check_doubling_bound,
            battery.check_recurrence,
        ):
            assert check(suite, battery.Caps(), battery.DEFAULT_SEED)[0]
        info = _junctions.cache_info()
        assert info.misses == info.currsize == 37

    def test_matches_automaton_short_omegas(self, short_omegas):
        assert len(short_omegas) == 390
        for w in short_omegas:
            rho = rho_by_automaton(w, 256)
            assert [complexity(w, n) for n in range(1, 257)] == rho[1:], w.spec()

    def test_matches_automaton_suite(self, suite):
        for w in suite:
            rho = rho_by_automaton(w, 4096)
            assert [complexity(w, n) for n in range(1, 4097)] == rho[1:], w.spec()

    @pytest.mark.parametrize("spec,coefficient", [("012", 5), ("2:01", 3)])
    def test_powers_of_two(self, spec, coefficient):
        # r_j = 1 at every level j >= 1 of both, so rho doubles with n from
        # n = 8 on; k = 40 is far beyond any table the automaton could build
        w = parse_omega(spec)
        assert all(complexity(w, 1 << k) == coefficient << (k - 1) for k in range(3, 80))

    @pytest.mark.parametrize("spec", ["0:1", "2", "01:2"])
    def test_rejects_eventually_constant(self, spec):
        with pytest.raises(EventuallyConstantOmegaError):
            complexity(parse_omega(spec), 5)

    def test_rejects_short_length(self, omega012):
        for n in (0, -1):
            with pytest.raises(ValueError, match="length must be >= 1"):
                complexity(omega012, n)


class TestRightSpecial:
    """rho(n+1) - rho(n) counts the right-special factors of length n with
    their multiplicity (Cassaigne 1997), the quantity the paper's linear
    complexity estimate bounds."""

    def test_differences_count_right_extensions(self, suite):
        """Both sides: the left-special factors count the same differences."""
        for w in (*suite, parse_omega("0:0112"), parse_omega("21:0012")):
            rho = [1] + [complexity(w, n) for n in range(1, 50)]
            for n in range(49):
                for side in ("left", "right"):
                    special = sum(len(extensions(u, w, side)) - 1 for u in language(w, n))
                    assert rho[n + 1] - rho[n] == special, (w.spec(), n, side)

    @pytest.mark.parametrize(
        "spec,steps",
        [("012", {2, 3}), ("10:012", {2, 3}), ("01", {1, 2}), ("02", {1, 2}), ("2:01", {1, 2})],
    )
    def test_difference_range(self, spec, steps):
        w = parse_omega(spec)
        rho = [complexity(w, n) for n in range(1, 4097)]
        assert {b - a for a, b in zip(rho, rho[1:])} == steps


class TestAdmissibility:
    def test_rejections(self, omega012):
        assert not is_admissible("TT", omega012)
        assert not is_admissible("00", omega012)

    def test_factors_of_prefix_admissible(self, omega012):
        word = gamma_word(omega012, 500)
        for i in range(0, 480, 7):
            assert is_admissible(word[i : i + 11], omega012)
        for n, step in ((300, 37), (1023, 101)):
            word = gamma_word(omega012, 4 * n)
            for i in range(0, 3 * n, step):
                assert is_admissible(word[i : i + n], omega012)

    def test_membership_matches_scan(self, suite):
        for w in suite:
            for n in range(1, 7):
                factors = scan_factors(w, n)
                for letters in product(ALPHABET, repeat=n):
                    u = "".join(letters)
                    assert is_admissible(u, w) == (u in factors)

    def test_extensions(self, omega012):
        right_of_theta = extensions("T", omega012, "right")
        assert right_of_theta and right_of_theta <= frozenset("012")
        assert extensions("0", omega012, "right") == frozenset("T")
        assert extensions("0", omega012, "left") == frozenset("T")

    def test_extensions_nonempty(self, suite):
        for w in suite:
            for word in language(w, 10):
                assert extensions(word, w, "left")
                assert extensions(word, w, "right")

    def test_extensions_reject_inadmissible(self, omega012):
        with pytest.raises(ValueError):
            extensions("TT", omega012, "right")


class TestExtensions:
    """`extensions` reads the letters beside the occurrences of the word in
    the junction words; the oracle asks five membership questions."""

    @staticmethod
    def outcome(find, word, omega, side):
        try:
            return find(word, omega, side)
        except ValueError as err:
            return str(err)

    def test_matches_membership(self, suite):
        rng = random.Random(1729)
        lengths = [*range(65), *(2**m + d for m in range(1, 8) for d in (-1, 0, 1))]
        for w in (*suite, parse_omega("0:0112"), parse_omega("21:0012")):
            words = set().union(*(language(w, n) for n in lengths))
            for _ in range(400):
                n = rng.randint(1, 24)
                words.add("".join(rng.choice(ALPHABET) for _ in range(n)))
            for u in words:
                for side in ("left", "right"):
                    expected = self.outcome(extensions_by_membership, u, w, side)
                    assert self.outcome(extensions, u, w, side) == expected, (w.spec(), u, side)

    @pytest.mark.parametrize("spec", ["012", "2:01"])
    def test_empty_word_every_letter(self, spec):
        w = parse_omega(spec)
        assert extensions("", w, "left") == extensions("", w, "right") == frozenset("T012")

    def test_side_checked_before_letters(self, omega012):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            extensions("0x", omega012, "up")

    def test_rejects_foreign_letter(self, omega012):
        with pytest.raises(ValueError, match="letters must be in 'T012'"):
            extensions("0x", omega012, "left")

    def test_inadmissible_message_renders_word(self, omega012):
        with pytest.raises(ValueError, match="word L0L0 is not admissible"):
            extensions("00", omega012, "right")


class TestRecurrence:
    def test_frozen_radius(self, omega012):
        assert uniform_recurrence_radius(omega012, 1) == 16
        assert uniform_recurrence_radius(omega012, 64) == 543
        assert uniform_recurrence_radius(parse_omega("2:01"), 64) == 287

    def test_definition_at_frozen_radius(self, omega012):
        # independent re-check of minimality: 16 covers, 15 does not
        letters = language(omega012, 1)
        for w in language(omega012, 16):
            assert letters <= set(w)
        assert any(not letters <= set(w) for w in language(omega012, 15))

    def test_monotone(self, omega012):
        radii = [uniform_recurrence_radius(omega012, n) for n in range(1, 9)]
        assert radii == sorted(radii)

    def test_terminates_suite(self, suite):
        for w in suite:
            for n in range(1, 17):
                radius = uniform_recurrence_radius(w, n)
                assert radius >= n

    def test_least_covering_radius_short_omegas(self, short_omegas):
        for w in short_omegas:
            for n in range(1, 9):
                radius = uniform_recurrence_radius(w, n)
                assert covers_by_gaps(w, radius, n), (w.spec(), n)
                assert not covers_by_gaps(w, radius - 1, n), (w.spec(), n)

    def test_least_covering_radius_long_words(self, suite):
        for w in (*suite, parse_omega("0012"), parse_omega("0:0112")):
            for n in (*range(1, 17), 31, 32, 33, 63, 64, 65):
                radius = uniform_recurrence_radius(w, n)
                assert covers_by_gaps(w, radius, n), (w.spec(), n)
                assert not covers_by_gaps(w, radius - 1, n), (w.spec(), n)

    def test_radius_cap(self, monkeypatch):
        # the cap bounds the levels scanned; R(1) = 2^13 here
        omega = parse_omega("2" * 10 + ":01")
        assert uniform_recurrence_radius(omega, 1) == 8192
        monkeypatch.setattr(subshift, "_RADIUS_CAP", 4096)
        with pytest.raises(RuntimeError, match="recurrence radius for n=1 exceeds cap 4096"):
            uniform_recurrence_radius(omega, 1)

    def test_every_long_window_contains_short_words(self, suite):
        for w in suite:
            for n in (2, 5, 9):
                radius = uniform_recurrence_radius(w, n)
                targets = language(w, n)
                for word in language(w, radius):
                    found = {word[i : i + n] for i in range(radius - n + 1)}
                    assert targets <= found
                # minimality: one word shorter by a letter misses a target
                assert any(
                    not targets <= {word[i : i + n] for i in range(radius - n)}
                    for word in language(w, radius - 1)
                )


class TestDoubleLanguage:
    def test_length1(self, omega012):
        assert double_language(omega012, 1) == frozenset("T012z")

    def test_length2(self, omega012):
        expected = {c + "z" for c in "T012"} | {"z" + c for c in "T012"}
        assert double_language(omega012, 2) == frozenset(expected)

    def test_marker_alternates(self, suite):
        for w in suite:
            for word in double_language(w, 9):
                z_positions = {i for i, c in enumerate(word) if c == "z"}
                assert z_positions in ({0, 2, 4, 6, 8}, {1, 3, 5, 7})

    def test_doubling_bound(self, suite):
        for w in suite:
            for n in range(1, 129):
                assert len(double_language(w, n)) <= 2 * complexity(w, (n + 1) // 2)

    def test_size_from_complexity(self, suite):
        # the identity the `double` table is read through: a window starting on
        # a marker reads floor(n/2) letters, one starting on a letter ceil(n/2),
        # and rho(0) = 1 counts the empty word
        rho = lambda w, k: complexity(w, k) if k else 1
        for w in (*suite, parse_omega("0012")):
            for n in range(1, 257):
                size = len(double_language(w, n))
                assert size == rho(w, (n + 1) // 2) + rho(w, n // 2), (w.spec(), n)

    def test_doubling_check_keeps_no_set(self, suite):
        # the check lists 640 doubled languages (about 14 MB in all) and
        # counts each once, so none but the last may outlive it
        double_language.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert battery.check_doubling_bound(suite, battery.Caps(), battery.DEFAULT_SEED)[0]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert double_language.cache_info().currsize <= 1
        assert kept < 2 * 2**20, kept

    def test_matches_interleaved_language(self, suite):
        # oracle: both phase classes interleave markers into admissible words
        for w in suite:
            for n in range(1, 65):
                expected = {interleave(u, n, False) for u in language(w, (n + 1) // 2)}
                expected |= {interleave(u, n, True) for u in language(w, n // 2)}
                assert double_language(w, n) == expected

    def test_plain_subword_admissible(self, suite):
        for w in suite:
            for word in double_language(w, 11):
                plain = word.replace("z", "")
                assert is_admissible(plain, w)


def test_render_word():
    assert render_word("T012z") == "TL0L1L2z"
