"""Word machinery tests. The oracles here are deliberately independent of the
implementation: the literal generator recursion for actions, and exhaustive
action checks for triviality."""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, strategies as st

from grigorchuk import (
    apply_generator,
    apply_word,
    ball_sizes,
    element_order,
    gray_rank,
    is_trivial,
    normalize_word,
    parse_omega,
    ray_at,
    root_and_sections,
)
from grigorchuk.group import (
    _KLEIN,
    _element_keys,
    _partner,
    find_moved_vertex,
)
from grigorchuk.omega import OmegaSequence

from conftest import fixing_generator

words = st.text(alphabet="abcd", max_size=10)
vertices = st.text(alphabet="01", max_size=10)
omegas = st.builds(
    OmegaSequence, st.text(alphabet="012", max_size=3), st.text(alphabet="012", min_size=1, max_size=4)
)

_GEN_SYMBOL = {"b": 2, "c": 1, "d": 0}


def _flip(x: str) -> str:
    return "1" if x == "0" else "0"


def oracle_apply(letter: str, v: str, omega: OmegaSequence) -> str:
    """The literal descent a(xv) = eps(x)v, s(1v) = 1 s'(v),
    s(0xv) = 0 eps_{k,omega(1)}(x) v as a loop: each of the k leading 1s
    shifts omega by one, so the digit after the first 0 flips unless
    omega(k + 1) is the letter's symbol."""
    if letter == "a":
        return v if not v else _flip(v[0]) + v[1:]
    rest = v.lstrip("1")
    k = len(v) - len(rest)
    if len(rest) < 2:
        return v
    x = rest[1]
    if omega.at(k + 1) != _GEN_SYMBOL[letter]:
        x = _flip(x)
    return v[: k + 1] + x + rest[2:]


def oracle_apply_word(word: str, v: str, omega: OmegaSequence) -> str:
    for letter in reversed(word):
        v = oracle_apply(letter, v, omega)
    return v


def oracle_fixes_all(word: str, omega: OmegaSequence, depth: int) -> bool:
    return all(
        oracle_apply_word(word, format(i, f"0{depth}b"), omega) == format(i, f"0{depth}b")
        for i in range(1 << depth)
    )


@dataclass(frozen=True)
class Ray:
    """Oracle for the ray path: a boundary point cofinal with rho = 111...,
    validated and stored as its canonical prefix (trailing 1s stripped), so
    ray equality is prefix equality. The package keeps only the prefix."""

    prefix: str = ""

    def __post_init__(self) -> None:
        if set(self.prefix) - {"0", "1"}:
            raise ValueError(f"ray prefix must be binary, got {self.prefix!r}")
        object.__setattr__(self, "prefix", self.prefix.rstrip("1"))


RHO = Ray("")


def ray_apply(word: str, r: Ray, omega: OmegaSequence) -> Ray:
    """apply_word on a ray: each step acts on the vertex prefix + "1" and
    re-pads its image through Ray."""
    for letter in reversed(word):
        r = Ray(apply_generator(letter, r.prefix + "1", omega))
    return r


def words_equal(w1: str, w2: str, omega: OmegaSequence) -> bool:
    """Every generator is an involution, so the inverse is the reversed word."""
    return is_trivial(w1 + w2[::-1], omega)


def orbit_contains(r: Ray, omega: OmegaSequence) -> tuple[bool, str]:
    """Every Ray value lies in the orbit of rho; the witness word maps rho to r
    by alternating first-digit flips with double-edge moves along the orbit
    graph. Moves are accumulated so the rightmost letter acts first."""
    j = gray_rank(r.prefix)
    word = []
    current = RHO
    for i in range(j):
        if i % 2 == 0:
            letter = "a"
        else:
            fixed = fixing_generator(current.prefix, omega)
            letter = next(g for g in "bcd" if g != fixed)
        current = ray_apply(letter, current, omega)
        word.append(letter)
    if current != r:
        raise RuntimeError(f"move walk failed to reach {r!r}")
    return True, "".join(reversed(word))


def naive_ball_sizes(omega: OmegaSequence, radius: int) -> list[int]:
    """Slow oracle for ball_sizes: the same BFS, deduplicated by pairwise
    words_equal against every element found so far."""
    elements = [""]
    frontier = [""]
    sizes = [1]
    for _ in range(radius):
        new = []
        for x in frontier:
            for g in "abcd":
                cand = normalize_word(x + g)
                if any(words_equal(cand, e, omega) for e in elements + new):
                    continue
                new.append(cand)
        elements += new
        frontier = new
        sizes.append(len(elements))
    return sizes


def normalize_by_stack(word: str) -> str:
    """Oracle for normalize_word: one stack push or reduction per letter.
    The stack alternates, so the letter below a b/c/d top is a or nothing
    and a fusion never cascades."""
    stack: list[str] = []
    for ch in word:
        top = stack[-1] if stack else ""
        if top == ch:
            stack.pop()
        elif top + ch in _KLEIN:
            stack[-1] = _KLEIN[top + ch]
        else:
            stack.append(ch)
    return "".join(stack)


def sections_by_scan(word: str, omega: OmegaSequence) -> tuple[bool, str, str]:
    """Oracle for root_and_sections: one scan, swapping the two sections at
    every a-letter."""
    swap = False
    s0: list[str] = []
    s1: list[str] = []
    first = omega.at(1)
    for ch in word:
        if ch == "a":
            swap = not swap
            s0, s1 = s1, s0
        else:
            if _GEN_SYMBOL[ch] != first:
                s0.append("a")
            s1.append(ch)
    return swap, "".join(s0), "".join(s1)


def normal_word(rng: random.Random, length: int) -> str:
    """A word in alternating normal form that ends with b, c or d."""
    out = ["a"] * length
    out[length - 1 :: -2] = rng.choices("bcd", k=(length + 1) // 2)
    return "".join(out)


def conjugate(u: str, x: str) -> str:
    """u x u^-1; every generator is an involution, so u^-1 is u reversed."""
    return u + x + u[::-1]


def seeded_conjugates(seed: int) -> list[str]:
    """u x^k u^R, which cancels all the way down to x^k, and u a u^R, for
    lengths 64 to 4096."""
    rng = random.Random(seed)
    out = []
    for length in (64, 256, 1024, 4096):
        x = rng.choice(("ad", "ac", "ab", "adab", "acab"))
        r = x * rng.choice((2, 4, 8, 16))
        out.append(conjugate(normal_word(rng, (length - len(r)) // 2), r))
        out.append(conjugate(normal_word(rng, (length - 1) // 2), "a"))
    return out


# Words made of a-runs and b/c/d-runs of up to five letters each.
run_words = st.lists(
    st.one_of(st.text(alphabet="a", min_size=1, max_size=5), st.text(alphabet="bcd", min_size=1, max_size=5)),
    max_size=12,
).map("".join)
EDGE_WORDS = ("", "a", "aa", "bcd", "abba")


@lru_cache(maxsize=None)
def short_relators(spec: str) -> tuple[str, ...]:
    """The nonempty normalized words of at most 8 letters that are trivial
    over the given omega."""
    normal, frontier = [], [""]
    for _ in range(8):
        frontier = [x + g for x in frontier for g in "abcd" if not x or (x[-1] == "a") != (g == "a")]
        normal += frontier
    return tuple(x for x in normal if is_trivial(x, parse_omega(spec)))


def order_by_scan(word: str, omega: OmegaSequence, max_order: int) -> int | None:
    """Slow oracle for element_order: try every k up to the bound."""
    for k in range(1, max_order + 1):
        if is_trivial(word * k, omega):
            return k
    return None


def order_by_squaring(word: str, omega: OmegaSequence, max_order: int) -> int | None:
    """Oracle for element_order: orders are powers of two, so square the word
    until it is trivial or the power passes the bound."""
    p, k = normalize_word(word), 1
    while k <= max_order:
        if is_trivial(p, omega):
            return k
        p, k = normalize_word(p + p), 2 * k
    return None


class TestActions:
    def test_a_on_rho(self, omega012):
        assert ray_apply("a", RHO, omega012) == Ray("0")

    def test_b_on_ray_10(self, omega012):
        assert ray_apply("b", Ray("10"), omega012) == Ray("100")

    def test_c_fixes_ray_10(self, omega012):
        assert ray_apply("c", Ray("10"), omega012) == Ray("10")

    def test_bcd_fix_rho(self, omega012):
        for g in "bcd":
            assert ray_apply(g, RHO, omega012) == RHO

    @given(st.sampled_from("abcd"), vertices, omegas)
    def test_vertex_action_matches_literal_recursion(self, g, v, w):
        assert apply_generator(g, v, w) == oracle_apply(g, v, w)

    @given(st.sampled_from("abcd"), st.text(alphabet="01", max_size=7), omegas)
    def test_ray_action_matches_truncation(self, g, prefix, w):
        # a ray is its prefix followed by 1s; the action only ever looks one
        # digit past the first zero, so a long finite truncation is faithful
        ray = Ray(prefix)
        pad = len(prefix) + 4
        truncated = ray.prefix + "1" * (pad - len(ray.prefix))
        image = ray_apply(g, ray, w)
        oracle = oracle_apply(g, truncated, w)
        assert image == Ray(oracle)

    def test_ray_action_matches_truncation_exhaustively(self, suite):
        # the only exhaustive check of the ray path: a ray acts as the vertex
        # prefix + "1", so every short prefix is checked on every omega
        prefixes = [
            "".join(bits) for n in range(11) for bits in product("01", repeat=n)
        ]
        for w in (*suite, parse_omega("0:1")):
            for prefix in prefixes:
                truncated = prefix + "1111"
                for g in "abcd":
                    assert ray_apply(g, Ray(prefix), w) == Ray(oracle_apply(g, truncated, w))

    def test_partner_matches_literal_recursion(self, suite):
        # b, c and d on every vertex of up to 10 digits: the letters that fix
        # it, and the one image the other two share
        vertices = ["".join(bits) for n in range(11) for bits in product("01", repeat=n)]
        for w in suite:
            for v in vertices:
                fixers, image = _partner(v, w)
                for g in "bcd":
                    oracle = oracle_apply(g, v, w)
                    assert (g in fixers) == (oracle == v)
                    assert oracle == (v if g in fixers else image)

    @given(words, vertices, omegas)
    def test_word_action_matches_oracle(self, word, v, w):
        assert apply_word(word, v, w) == oracle_apply_word(word, v, w)

    def test_long_word_action_matches_oracle(self, suite):
        # the wreath recursion against the per-letter fold, on words of up to
        # 4096 letters and vertices of up to 1200 digits; every word also acts
        # on the two vertices that open with a run of 1199 or 1200 1s
        rng = random.Random(41)
        ones = ["1" * 1200, "1" * 1199 + "0"]
        for w in suite:
            vertices = [
                *ones,
                "".join(rng.choices("01", k=1023)) + "0",
                "0" + "".join(rng.choices("01", k=1023)),
                "".join(rng.choices("01", k=rng.randint(1, 64))),
            ]
            words = [normal_word(rng, n) for n in (1, 2, 5, 64, 512)] + seeded_conjugates(4)
            words.append("".join(rng.choices("abcd", k=700)))
            for word in words:
                for v in (rng.choice(vertices), *ones):
                    assert apply_word(word, v, w) == oracle_apply_word(word, v, w)

    def test_empty_word_is_identity(self, omega012):
        assert apply_word("", "0110", omega012) == "0110"
        assert apply_word("", "", omega012) == ""

    @pytest.mark.parametrize("v", ["2", "0 1", "01x", "1" * 50 + "2"])
    def test_rejects_non_binary_vertex(self, v, omega012):
        # the digit check comes first: neither "a" nor "aa" reads past v[0]
        for word in ("a", "b", "aa", "abac"):
            with pytest.raises(ValueError, match="0/1"):
                apply_word(word, v, omega012)
        for g in "abcd":
            with pytest.raises(ValueError, match="0/1"):
                apply_generator(g, v, omega012)

    @pytest.mark.parametrize("letter", ["", "ab", "bc", "cd", "e"])
    def test_rejects_non_generator(self, letter, omega012):
        # exactly one of a/b/c/d: a substring test would pass "", "ab", "bc", "cd"
        with pytest.raises(ValueError):
            apply_generator(letter, "0110", omega012)

    @given(vertices, omegas)
    def test_aa_fixes_everything(self, v, w):
        assert apply_word("aa", v, w) == v

    def test_bcd_fixes_sampled_vertices(self, omega012):
        rng = random.Random(3)
        for _ in range(20):
            v = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            assert apply_word("bcd", v, omega012) == v

    @given(words, vertices, omegas)
    def test_reversed_word_is_inverse(self, word, v, w):
        assert apply_word(word + word[::-1], v, w) == v


class TestRays:
    def test_canonical_form_strips_trailing_ones(self):
        # trailing 1s change neither the ray nor its rank; ray_at gives the canonical prefix
        assert ray_at(gray_rank("0111")).prefix == "0"
        assert ray_at(gray_rank("11")).prefix == ""

    def test_first_zero(self, omega012):
        # b/c/d fix a ray by the omega symbol at its first 0; later 0s do not count
        assert fixing_generator("0110", omega012) == "d"
        assert fixing_generator("1101", omega012) == "b"
        assert fixing_generator("1" * 9 + "00", omega012) == "d"
        assert fixing_generator("1" * 10 + "0", omega012) == "c"

    def test_fixing_generator(self, omega012):
        assert fixing_generator("0", omega012) == "d"
        assert fixing_generator("10", omega012) == "c"
        assert fixing_generator("110", omega012) == "b"

    @given(st.text(alphabet="01", min_size=1, max_size=8), omegas)
    def test_fixing_generator_fixes(self, prefix, w):
        ray = Ray(prefix)
        if ray == RHO:
            return
        g = fixing_generator(ray.prefix, w)
        assert ray_apply(g, ray, w) == ray
        movers = [s for s in "bcd" if s != g]
        images = {ray_apply(s, ray, w) for s in movers}
        assert len(images) == 1 and images != {ray}


class TestNormalize:
    def test_examples(self):
        assert normalize_word("bc") == "d"
        assert normalize_word("aabb") == ""
        assert normalize_word("abba") == ""

    @given(words)
    def test_no_longer_than_input(self, word):
        assert len(normalize_word(word)) <= len(word)

    @given(words)
    def test_alternating_form(self, word):
        out = normalize_word(word)
        for x, y in zip(out, out[1:]):
            assert x != y and ("a" in (x, y))

    @given(words, vertices, omegas)
    def test_represents_same_element(self, word, v, w):
        assert apply_word(normalize_word(word), v, w) == apply_word(word, v, w)

    @given(words)
    def test_idempotent(self, word):
        assert normalize_word(normalize_word(word)) == normalize_word(word)

    @given(run_words)
    def test_matches_stack_on_runs(self, word):
        assert normalize_word(word) == normalize_by_stack(word)

    def test_matches_stack_on_conjugates(self):
        for word in seeded_conjugates(1):
            assert normalize_word(word) == normalize_by_stack(word)

    def test_matches_stack_on_random_words(self):
        rng = random.Random(2)
        for word in EDGE_WORDS + tuple(
            "".join(rng.choices("abcd", k=rng.randint(0, 40))) for _ in range(2000)
        ):
            assert normalize_word(word) == normalize_by_stack(word)


class TestSections:
    def test_examples(self, omega012):
        assert root_and_sections("a", omega012) == (True, "", "")
        assert root_and_sections("d", omega012) == (False, "", "d")
        assert root_and_sections("b", omega012) == (False, "a", "b")
        assert root_and_sections("bb", omega012) == (False, "aa", "bb")

    @given(words, omegas)
    def test_contraction_bound(self, word, w):
        word = normalize_word(word)
        swap, s0, s1 = root_and_sections(word, w)
        bound = (len(word) + 2) // 2
        assert len(s0) <= bound and len(s1) <= bound

    @given(words, st.text(alphabet="01", min_size=1, max_size=9), omegas)
    def test_sections_reproduce_action(self, word, v, w):
        """For raw words too: the wreath decomposition is a homomorphism."""
        x, rest = v[0], v[1:]
        for u in (word, normalize_word(word)):
            swap, s0, s1 = root_and_sections(u, w)
            section = s0 if x == "0" else s1
            expected = (_flip(x) if swap else x) + apply_word(section, rest, w.shift(1))
            assert apply_word(u, v, w) == expected

    @given(run_words, omegas)
    def test_matches_scan_on_runs(self, word, w):
        assert root_and_sections(word, w) == sections_by_scan(word, w)

    def test_matches_scan_on_conjugates(self, suite):
        for w in suite:
            for word in seeded_conjugates(3):
                for u in (word, normalize_word(word)):
                    assert root_and_sections(u, w) == sections_by_scan(u, w)

    def test_matches_scan_on_edge_words(self, suite):
        for w in (*suite, parse_omega("0:1")):
            for word in EDGE_WORDS:
                assert root_and_sections(word, w) == sections_by_scan(word, w)


class TestWordProblem:
    def test_relations_trivial(self, suite):
        for w in suite:
            for word in ("aa", "bb", "cc", "dd", "bcd", "bdc", "cbd", "cdb", "dbc", "dcb"):
                assert is_trivial(word, w)

    def test_examples(self, omega012):
        assert is_trivial("", omega012)
        assert not is_trivial("ab", omega012)
        assert not is_trivial("ab", parse_omega("01"))

    def test_single_letter_triviality_eventually_constant(self):
        # over the constant sequence k, the generator whose first-level
        # permutations all degenerate is the identity
        assert is_trivial("b", parse_omega("2"))
        assert is_trivial("c", parse_omega("1"))
        assert is_trivial("d", parse_omega("0"))
        assert not is_trivial("b", parse_omega("0"))
        assert not is_trivial("a", parse_omega("0"))
        assert is_trivial("bc", parse_omega("0"))  # bc = d = e over constant 0

    def test_soundness_against_action_depth14(self, suite):
        rng = random.Random(14)
        for w in suite[:2]:
            for _ in range(5):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 14)))
                assert is_trivial(word, w) == oracle_fixes_all(word, w, 14)

    def test_soundness_against_action_depth10(self, suite):
        rng = random.Random(10)
        for w in suite:
            for _ in range(25):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
                assert is_trivial(word, w) == oracle_fixes_all(word, w, 10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: normalize_word("abxa"),
            lambda w: root_and_sections("abxa", w),
            lambda w: apply_word("abxa", "0", w),
            lambda w: is_trivial("abxa", w),
        ],
    )
    def test_bad_letters_message(self, call, omega012):
        # cli word prints this message as it is, with exit 2
        with pytest.raises(ValueError) as err:
            call(omega012)
        assert str(err.value) == "word letters must be in a/b/c/d, got ['x']"
        with pytest.raises(ValueError, match=r"got \['X', 'e', 'z'\]$"):
            normalize_word("zaXbez")

    def test_moved_vertices_pinned(self):
        # u r u^R with an even number of a-letters in r walks down the
        # sections; these vertices are the section recursion's answers
        pinned = {
            "012": ("0100", "00", "000", "00", "000"),
            "01": ("00", "0000", "000", "0000", "00"),
            "02": ("00", "00", "00", "00100", "0000"),
            "2:01": ("00", "000", "00", "100", "000"),
            "10:012": ("00", "00100", "0000", "00", "00"),
        }
        rng = random.Random(14)
        for spec, expected in pinned.items():
            w = parse_omega(spec)
            for n, vertex in zip((0, 7, 32, 255, 1024), expected):
                while True:
                    r = normal_word(rng, rng.randint(2, 8))
                    r = r if r.count("a") % 2 == 0 else r + "a"
                    word = conjugate(normal_word(rng, n), r)
                    if not is_trivial(word, w):
                        break
                assert find_moved_vertex(word, w) == vertex
                assert apply_word(word, vertex, w) != vertex

    def test_words_equal(self, omega012):
        assert words_equal("bc", "d", omega012)
        assert not words_equal("ab", "ba", omega012)

    @given(words, omegas)
    def test_words_equal_reflexive(self, word, w):
        assert words_equal(word, word, w)


class TestOrders:
    def test_examples(self, omega012):
        assert element_order("a", omega012, 16) == 2
        assert element_order("ad", omega012, 64) == 4
        assert element_order("ac", omega012, 64) == 8
        assert element_order("ab", omega012, 64) == 16
        assert element_order("", omega012, 4) == 1
        assert element_order("bcd", omega012, 4) == 1

    def test_order_matches_action_oracle(self, omega012):
        # smallest k with (ad)^k acting trivially, straight from the action
        word, k = "ad", 1
        while not oracle_fixes_all(word * k, omega012, 8):
            k += 1
        assert k == 4 == element_order(word, omega012, 16)

    def test_torsion_powers_of_two(self, omega012):
        rng = random.Random(99)
        for _ in range(100):
            word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 10)))
            order = element_order(word, omega012, 1 << 10)
            assert order is not None and order & (order - 1) == 0

    def test_squaring_matches_scan(self, suite):
        # Orders in G_omega are powers of two, so squaring misses no k.
        short = ["".join(p) for n in range(5) for p in product("abcd", repeat=n)]
        for w in suite + tuple(parse_omega(s) for s in ("0:1", "0")):
            for word in short:
                assert element_order(word, w, 32) == order_by_scan(word, w, 32)

    def test_sweep_matches_squaring(self, short_omegas):
        short = ["".join(p) for n in range(5) for p in product("abcd", repeat=n)]
        extra = tuple(parse_omega(s) for s in ("0", "1", "2", "0:1", "2:01"))
        for w in (*short_omegas, *extra):
            # the squaring stops at the first trivial power, so one run at the
            # top bound gives its answer at every lower bound
            orders = {p: order_by_squaring(p, w, 1024) for p in set(map(normalize_word, short))}
            for word in short:
                order = orders[normalize_word(word)]
                for bound in (1, 2, 3, 64, 1024):
                    expected = order if order is not None and order <= bound else None
                    assert element_order(word, w, bound) == expected

    @pytest.mark.parametrize("t", range(11))
    def test_late_symbol_orders_match_squaring(self, t):
        # t leading 2s before the period 01: ac has order 2^(t+3), ad 2^(t+2)
        w = parse_omega("2" * t + ":01")
        for word, order in (("ac", 1 << (t + 3)), ("ad", 1 << (t + 2))):
            assert element_order(word, w, order) == order == order_by_squaring(word, w, order)
            assert element_order(word, w, order - 1) is None

    def test_late_symbol_order_past_any_squaring(self):
        w = parse_omega("2" * 500 + ":01")
        assert element_order("ac", w, 2**600) == 2**503
        assert element_order("ad", w, 2**600) == 2**502
        assert element_order("ac", w, 2**503 - 1) is None

    def test_non_torsion_evidence(self):
        assert element_order("ab", parse_omega("0"), 64) is None
        assert element_order("ab", parse_omega("0:1"), 64) is None
        assert element_order("ab", parse_omega("0:1"), 10**18) is None

    def test_long_word_at_huge_bound(self):
        # 2 never occurs in 01, so G_01 is not torsion; the sweep stops once a
        # count passes 332 swaps
        rng = random.Random(7)
        word = "".join(rng.choice("abcd") for _ in range(10**5))
        assert element_order(word, parse_omega("01"), 10**100) is None


class TestBalls:
    def test_frozen_sizes(self, omega012):
        assert ball_sizes(omega012, 4) == [1, 5, 11, 23, 40]

    def test_larger_prefix(self, omega012):
        assert ball_sizes(omega012, 8) == [1, 5, 11, 23, 40, 68, 108, 176, 271]

    def test_matches_naive_dedup(self, suite):
        # same BFS but deduplicated by pairwise words_equal alone
        for w in suite[:3]:
            assert ball_sizes(w, 3) == naive_ball_sizes(w, 3)

    def test_eventually_constant_matches_naive_dedup(self):
        # over 0 and 2 one of b, c, d is the identity; over 0:1, c = (a, 1)
        for spec in ("0", "2", "0:1"):
            w = parse_omega(spec)
            assert ball_sizes(w, 5) == naive_ball_sizes(w, 5)

    def test_radius_14(self, omega012):
        assert ball_sizes(omega012, 14) == [
            1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487, 2259, 3313
        ]

    @given(st.data())
    def test_keys_match_words_equal(self, data):
        # equal keys exactly for equal elements, within one key table
        spec = data.draw(st.sampled_from(("012", "01", "02", "2:01", "10:012", "0", "2", "0:1")))
        raw = data.draw(st.lists(st.text(alphabet="abcd", max_size=8), min_size=2, max_size=6))
        w = parse_omega(spec)
        key = _element_keys(w)
        ws = [normalize_word(x) for x in raw]
        # a second spelling of the first element, so that equal keys are tested too
        ws.append(normalize_word(ws[0] + data.draw(st.sampled_from(short_relators(spec)))))
        for u in ws:
            for v in ws:
                assert (key(u, 0) == key(v, 0)) == words_equal(u, v, w)


class TestOrbitWitness:
    def test_examples(self, omega012):
        assert orbit_contains(RHO, omega012) == (True, "")
        assert orbit_contains(Ray("0"), omega012) == (True, "a")
        ok, word = orbit_contains(Ray("00"), omega012)
        assert ok and len(word) == 2

    @given(st.text(alphabet="01", max_size=7), omegas)
    def test_witness_word_maps_rho_to_ray(self, prefix, w):
        ray = Ray(prefix)
        ok, word = orbit_contains(ray, w)
        assert ok
        assert ray_apply(word, RHO, w) == ray
