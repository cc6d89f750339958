"""Full-group element tests: cocycle laws, the embedding, degenerate-case
witnesses, and the doubled system."""

import hashlib
import random
import tracemalloc
from math import lcm

import pytest
from hypothesis import given, strategies as st

from grigorchuk import (
    Window,
    apply_generator,
    apply_word,
    battery,
    commutator_identity_check,
    compose,
    double_element,
    double_language,
    dump_element,
    element_order,
    element_order_fg,
    elements_equal,
    embed_word,
    find_disjoint_cylinder,
    first_return_element,
    gray_rank,
    identity_element,
    injectivity_witness,
    inverse,
    is_identity,
    is_trivial,
    language,
    parse_omega,
    ray_at,
    schreier_consistency,
    schreier_window,
    shift_power,
    swap_involution,
    tau,
    witness_window,
)
from grigorchuk import fullgroup
from grigorchuk.fullgroup import InsufficientWindowError, _gen
from grigorchuk.group import find_moved_vertex
from grigorchuk.omega import EventuallyConstantOmegaError
from grigorchuk.subshift import _junctions, _level_for, _windows

from conftest import block_letters

words = st.text(alphabet="abcd", max_size=8)
DEEP_PREPERIOD = "2" * 60 + ":01"


def sorted_windows(omega, length, tag="A"):
    """The admissible words of one length, sorted: doubled ones for tag B."""
    return sorted((double_language if tag == "B" else language)(omega, length))


def full_radius_is_identity(e):
    """Slow oracle for is_identity: the cocycle at every admissible window of
    the element's full radius, with no narrow-first reading."""
    r = e.radius
    return all(e._eval(w, r) == 0 for w in sorted_windows(e.omega, 2 * r, e.tag))


def order_by_windows(e, max_order):
    """Slow oracle for element_order_fg: each walk runs inside one admissible
    window of length 2r, read from the sorted language, narrow first; a walk
    that leaves its window doubles r."""
    widest, r = e.radius + (max_order - 1) * e.dbound, 1
    while True:
        r = min(r, widest)
        order = 1
        try:
            for w in sorted_windows(e.omega, 2 * r, e.tag):
                n, t = e._eval(w, r), 1
                while n and t < max_order:
                    n += e._eval(w, r + n)
                    t += 1
                if n:
                    return None
                order = lcm(order, t)
                if order > max_order:
                    return None
            return order
        except InsufficientWindowError:
            if r == widest:
                raise
            r *= 2


def ray_image_by_letters(word, prefix, omega):
    """Slow oracle for the ray image in schreier_consistency: one generator at
    a time, the ray acting as the vertex prefix + "1" for one step, its image
    stripped of trailing 1s and padded again."""
    for g in reversed(word):
        prefix = apply_generator(g, prefix + "1", omega).rstrip("1")
    return prefix


def order_by_powers(e, max_order):
    """Slow oracle for element_order_fg: the least k whose k-fold product is
    the identity."""
    acc = e
    for k in range(1, max_order + 1):
        if is_identity(acc):
            return k
        acc = compose(acc, e)
    return None


class TestGeneratorCocycles:
    def test_a_moves_toward_theta(self, omega012):
        a = embed_word("a", omega012)
        assert a.cocycle(Window(1, "0T")) == 1
        assert a.cocycle(Window(1, "T0")) == -1

    def test_loop_label_freezes(self, omega012):
        assert embed_word("d", omega012).cocycle(Window(1, "T0")) == 0
        assert embed_word("c", omega012).cocycle(Window(1, "T1")) == 0
        assert embed_word("b", omega012).cocycle(Window(1, "T2")) == 0

    def test_double_edge_moves(self, omega012):
        assert embed_word("b", omega012).cocycle(Window(1, "T0")) == 1
        assert embed_word("b", omega012).cocycle(Window(1, "0T")) == -1
        assert embed_word("c", omega012).cocycle(Window(1, "T0")) == 1

    def test_eventually_constant_rejected(self):
        with pytest.raises(EventuallyConstantOmegaError):
            embed_word("a", parse_omega("0:1"))
        with pytest.raises(EventuallyConstantOmegaError):
            embed_word("ab", parse_omega("0:1"))

    def test_total_on_radius1_windows(self, suite):
        for w in suite:
            for letters in language(w, 2):
                for g in "abcd":
                    n = embed_word(g, w).cocycle(Window(1, letters))
                    assert n in (-1, 0, 1)


class TestComposeInverse:
    def test_compose_with_identity(self, omega012):
        e = embed_word("abac", omega012)
        assert elements_equal(compose(e, identity_element(omega012)), e)
        assert elements_equal(compose(identity_element(omega012), e), e)

    def test_generator_squares(self, omega012):
        for g in "abcd":
            el = embed_word(g, omega012)
            assert is_identity(compose(el, el))

    @given(words, words)
    def test_cocycle_additivity(self, w1, w2):
        omega012 = parse_omega("012")
        g, h = embed_word(w1, omega012), embed_word(w2, omega012)
        gh = compose(g, h)
        for letters in sorted(language(omega012, 2 * gh.radius))[:40]:
            nh = h._eval(letters, gh.radius)
            ng = g._eval(letters, gh.radius + nh)
            assert gh._eval(letters, gh.radius) == nh + ng

    def test_inverse_examples(self, omega012):
        b = embed_word("b", omega012)
        assert elements_equal(inverse(b), b)
        assert elements_equal(inverse(shift_power(3, omega012)), shift_power(-3, omega012))

    @given(words)
    def test_inverse_round_trip(self, word):
        omega012 = parse_omega("012")
        e = embed_word(word, omega012)
        assert is_identity(compose(e, inverse(e)))
        assert is_identity(compose(inverse(e), e))

    @given(words)
    def test_inverse_cocycle_law(self, word):
        omega012 = parse_omega("012")
        e = embed_word(word, omega012)
        inv = inverse(e)
        radius = max(e.radius + e.dbound, inv.radius)
        for letters in sorted(language(omega012, 2 * radius))[:25]:
            n = e._eval(letters, radius)
            assert inv._eval(letters, radius + n) == -n

    def test_alphabet_mismatch_rejected(self, omega012):
        with pytest.raises(ValueError):
            compose(embed_word("a", omega012), tau(omega012))

    def test_insufficient_window_rejected(self, omega012):
        e = embed_word("abab", omega012)
        with pytest.raises(InsufficientWindowError):
            e.cocycle(Window(1, "T0"))


class TestIdentity:
    def test_identity_element(self, omega012):
        assert is_identity(identity_element(omega012))

    def test_generator_never_identity(self, omega012):
        assert not is_identity(embed_word("a", omega012))

    def test_relations(self, suite):
        for w in suite:
            assert is_identity(embed_word("bcd", w))
            assert is_identity(embed_word("aa", w))


class TestEmbedding:
    def test_single_letter(self, omega012):
        # a word is the product of its letters' images, rightmost acting first
        a, b, c = (embed_word(g, omega012) for g in "abc")
        assert a.label == "a" and (a.radius, a.dbound) == (1, 1)
        assert elements_equal(embed_word("abc", omega012), compose(a, compose(b, c)))

    def test_matches_word_problem(self, suite):
        rng = random.Random(6)
        for w in suite:
            for _ in range(60):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
                e = embed_word(word, w)
                assert is_identity(e) == full_radius_is_identity(e) == is_trivial(word, w)

    def test_order_agreement(self, suite):
        rng = random.Random(8)
        for w in suite[:3]:
            for _ in range(8):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
                assert element_order_fg(embed_word(word, w), 32) == element_order(word, w, 32)

    def test_order_examples(self, omega012):
        assert element_order_fg(embed_word("a", omega012), 8) == 2
        assert element_order_fg(embed_word("ad", omega012), 8) == 4
        assert element_order_fg(embed_word("ab", omega012), 16) == 16
        assert element_order_fg(identity_element(omega012), 8) == 1

    def test_order_matches_powers_oracle(self, omega012):
        for word, order in (("a", 2), ("ad", 4), ("ac", 8), ("ab", 16)):
            e = embed_word(word, omega012)
            assert element_order_fg(e, 64) == order_by_powers(e, 64) == order
            assert element_order_fg(e, order - 1) is None
        u = find_disjoint_cylinder(omega012, 3)
        s01, s12 = swap_involution(u, 0, 1, omega012), swap_involution(u, 1, 2, omega012)
        assert element_order_fg(compose(s01, s12), 6) == order_by_powers(compose(s01, s12), 6) == 3
        r0 = first_return_element(u, omega012)
        assert element_order_fg(r0, 64) is None and order_by_powers(r0, 64) is None

    def test_order_is_lcm_of_return_times(self, omega012):
        # a 3-cycle and a disjoint transposition: points return after 1, 2 or 3 steps
        u = find_disjoint_cylinder(omega012, 5)
        s = {(i, j): swap_involution(u, i, j, omega012) for i, j in ((0, 1), (1, 2), (3, 4))}
        e = compose(compose(s[0, 1], s[1, 2]), s[3, 4])
        assert element_order_fg(e, 12) == order_by_powers(e, 12) == 6
        assert element_order_fg(e, 5) is None


def old_label(word):
    """The left-nested label of a generator word, letter by letter, cut at 120
    characters as FullGroupElement cuts it."""
    label = "(" * (len(word) - 1) + word[0] + "".join(f" {ch})" for ch in word[1:])
    return label if len(label) <= 120 else label[:117] + "..."


def fold_by_unpack(factors):
    """Radius and displacement bound of a program, folded as (kind, r, d, *data)."""
    radius, dbound = 1, 0
    for _, r, d, *_ in factors:
        radius = max(radius, dbound + r)
        dbound += d
    return radius, dbound


class TestElementConstructor:
    def test_factors_from_the_generator_table(self, omega012):
        rng = random.Random(12)
        for word in ["a", "b", "c", "d", *("".join(rng.choices("abcd", k=n)) for n in range(2, 40))]:
            assert embed_word(word, omega012).factors == tuple(_gen(ch) for ch in reversed(word))

    def test_labels_across_the_cut(self, omega012):
        # a label of n letters has 4n - 3 characters: 30 letters fit in 120
        rng = random.Random(13)
        for n in (1, 2, 3, 30, 31, 40, 41, 1200):
            word = "".join(rng.choices("abcd", k=n))
            assert embed_word(word, omega012).label == old_label(word)

    def test_radius_and_bound_of_mixed_programs(self, omega012):
        rng = random.Random(14)
        u = find_disjoint_cylinder(omega012, 3)
        pool = [
            embed_word("abcada", omega012),
            shift_power(3, omega012),
            shift_power(-5, omega012),
            swap_involution(u, 0, 2, omega012),
            first_return_element(u, omega012),
        ]
        for _ in range(40):
            g, h = rng.choice(pool), rng.choice(pool)
            pool.append(compose(g, h) if rng.random() < 0.7 else inverse(g))
        doubled = [double_element(e, rng.choice((1, 2))) for e in rng.sample(pool, 8)]
        for _ in range(20):
            g, h = rng.choice(doubled), rng.choice((*doubled, tau(omega012)))
            doubled.append(compose(g, h) if rng.random() < 0.7 else inverse(g))
        for e in pool + doubled:
            assert (e.radius, e.dbound) == fold_by_unpack(e.factors)


class TestJunctionWalk:
    """element_order_fg walks the junction words; the sorted-window loop it
    replaced is the oracle order_by_windows."""

    BOUNDS = (1, 8, 32)

    def _assert_matches(self, elements):
        for e in elements:
            for bound in self.BOUNDS:
                expected = order_by_windows(e, bound)
                assert element_order_fg(e, bound) == expected, (e.omega.spec(), e.label, bound)

    def test_short_words(self, suite):
        rng = random.Random(41)
        for w in suite:
            words = ["", *"abcd"]
            words += ["".join(rng.choice("abcd") for _ in range(rng.randint(2, 6))) for _ in range(80)]
            self._assert_matches(embed_word(word, w) for word in words)

    def test_sigma_and_return_elements(self, suite):
        for w in suite:
            u = find_disjoint_cylinder(w, 3)
            s01, s12 = swap_involution(u, 0, 1, w), swap_involution(u, 1, 2, w)
            r0 = first_return_element(u, w)
            r1 = compose(shift_power(1, w), compose(r0, shift_power(-1, w)))
            self._assert_matches((
                s01, s12, swap_involution(u, 0, 2, w), compose(s01, s12),
                r0, r1, compose(r0, r1), compose(s01, compose(r0, s01)),
                first_return_element("", w),
            ))

    def test_doubled_elements(self, suite):
        rng = random.Random(42)
        for w in suite:
            t = tau(w)
            elements = [t, compose(t, t)]
            for _ in range(6):
                g = embed_word("".join(rng.choice("abcd") for _ in range(rng.randint(0, 4))), w)
                g1, g2 = double_element(g, 1), double_element(g, 2)
                elements += [g1, g2, compose(g1, g2), compose(g1, compose(t, compose(g1, t)))]
            self._assert_matches(elements)

    def test_degenerate_check_keeps_no_language(self, suite):
        # the check's r0 order bound of 64 once read language(012, 1024) and
        # language(012, 512), about 4 MB that the language cache kept until exit
        language.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert battery.check_degenerate_witnesses(suite, battery.Caps(), battery.DEFAULT_SEED)[0]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**19, kept


class TestLongWords:
    """Words of 2000+ letters: flat programs evaluate them with a loop."""

    @pytest.fixture(scope="class")
    def omegas(self, suite):
        return (*suite, parse_omega(DEEP_PREPERIOD))

    @staticmethod
    def _word(rng, length):
        return "".join(rng.choice("abcd") for _ in range(length))

    def test_word_times_inverse_is_identity(self, omegas):
        rng = random.Random(31)
        for w in omegas:
            u = self._word(rng, 1024)
            assert is_identity(embed_word(u + u[::-1], w))

    def test_conjugates_match_word_problem_and_have_witnesses(self, omegas):
        rng = random.Random(32)
        for w in omegas:
            u = self._word(rng, 1200)
            word = u + "a" + u[::-1]
            e = embed_word(word, w)
            trivial = is_trivial(word, w)
            assert is_identity(e) == trivial
            if not trivial:
                window = injectivity_witness(word, w)
                assert window is not None and e.cocycle(window) != 0

    def test_radius_and_label_of_long_product(self, omega012):
        assert embed_word("abac", omega012).label == "(((a b) a) c)"
        e = embed_word("ab" * 1200, omega012)
        assert (e.radius, e.dbound) == (2400, 2400)
        assert e.label == "(" * 117 + "..."


def witness_by_scan(word, omega):
    """Oracle for injectivity_witness: decide and embed the word, then push
    the moved vertex out one prefix at a time from t = 0, ranking every push."""
    if is_trivial(word, omega):
        return None
    e = embed_word(word, omega)
    r = e.radius
    v = find_moved_vertex(word, omega)
    for t in range(64):
        prefix = v if t == 0 else v + "1" * (t - 1) + "0"
        j = gray_rank(prefix)
        if j > max(len(word), r):
            window = schreier_window(omega, j, r)
            if e.cocycle(window) != 0:
                return window
    raise RuntimeError(f"no witness found for nontrivial word {word!r}")


class TestWitnesses:
    def test_matches_scan_oracle(self, suite):
        rng = random.Random(25)
        omegas = [*suite, parse_omega("2" * 18 + ":01"), parse_omega("1:02")]
        for w in omegas:
            for _ in range(200):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 40)))
                assert injectivity_witness(word, w) == witness_by_scan(word, w)

    def test_window_of_the_built_element(self, omega012):
        # the battery's and embed's path: the caller's element and moved vertex
        for word in ("a", "ab", "abac", "ab" * 40):
            e = embed_word(word, omega012)
            window = witness_window(e, find_moved_vertex(word, omega012))
            assert window == witness_by_scan(word, omega012) and e.cocycle(window) != 0

    def test_no_window_raises_for_the_word(self, omega012, monkeypatch):
        monkeypatch.setattr(fullgroup, "witness_window", lambda e, vertex: None)
        with pytest.raises(RuntimeError, match="no witness found for nontrivial word 'ab'"):
            injectivity_witness("ab", omega012)

    def test_battery_counts_missing_windows(self, omega012, monkeypatch):
        monkeypatch.setattr(fullgroup, "witness_window", lambda e, vertex: None)
        passed, detail = battery.check_embedding([omega012], battery.QUICK_CAPS, 1)
        assert not passed and "(0 mismatches)" in detail and "(0 missing)" not in detail

    def test_trivial_words_have_none(self, omega012):
        assert injectivity_witness("bcd", omega012) is None
        assert injectivity_witness("", omega012) is None

    def test_single_a(self, omega012):
        window = injectivity_witness("a", omega012)
        assert window is not None and window.radius == 1

    def test_random_nontrivial_words(self, suite):
        rng = random.Random(4)
        for w in suite:
            found = 0
            while found < 20:
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 10)))
                if is_trivial(word, w):
                    continue
                found += 1
                window = injectivity_witness(word, w)
                assert window is not None
                assert embed_word(word, w).cocycle(window) != 0

    def test_deep_preperiod(self):
        # b moves the marked vertex exactly when the adjacent double-edge
        # block is Lambda_0 or Lambda_1; the witness sits near vertex 2^61
        window = injectivity_witness("b", parse_omega("2" * 60 + ":01"))
        assert window.radius == 1
        assert sorted(window.letters) in (["0", "T"], ["1", "T"])

    def test_witness_magnitude_is_displacement(self, omega012):
        # spot check: the witness cocycle equals a schreier displacement size
        word = "ab"
        window = injectivity_witness(word, omega012)
        assert abs(embed_word(word, omega012).cocycle(window)) <= len(word)


class TestSchreierConsistency:
    def test_single_a(self, omega012):
        assert schreier_consistency("a", omega012, 5)

    def test_empty_word(self, omega012):
        assert schreier_consistency("", omega012, 3)

    def test_random_pairs(self, suite):
        rng = random.Random(12)
        for w in suite:
            for _ in range(40):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8)))
                j = rng.randint(len(word) + 1, 200)
                assert schreier_consistency(word, w, j)

    def test_precondition(self, omega012):
        with pytest.raises(ValueError):
            schreier_consistency("abab", omega012, 3)

    def test_one_apply_word_call_matches_letters(self, suite):
        # schreier_consistency pads the ray with |word| + 1 ones and applies the
        # whole word at once; rays near rho are the ones that need the padding
        for w in (*suite, parse_omega("0:1"), parse_omega("2")):
            rng = random.Random(w.spec())
            for _ in range(400):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
                p = ray_at(rng.randint(0, rng.choice((63, 2**40)))).prefix
                image = apply_word(word, p + "1" * (len(word) + 1), w).rstrip("1")
                assert image == ray_image_by_letters(word, p, w), (w.spec(), word, p)


class TestCylinders:
    def test_disjoint_cylinder_small(self, omega012):
        for n in (2, 3, 4):
            u = find_disjoint_cylinder(omega012, n)
            from grigorchuk.fullgroup import _joint_occurrence

            for k in range(1, n):
                assert not _joint_occurrence(u, k, omega012)

    def test_suite_n4(self, suite):
        for w in suite:
            assert find_disjoint_cylinder(w, 4)

    # (radius, displacement bound, sha256 of the cocycle table over the sorted
    # language of length 2 * radius), pinned when cylinders still carried an offset
    PINNED = {
        ("012", "s01"): (1, 1, "a3d7850af91f41aa92a796c528d8e83dac163efdeb354ac3a6929da80c39adae"),
        ("012", "s12"): (2, 1, "571de26755a21ffb96eddef651bf84b7505e032bbdc051a37fe68507295a9798"),
        ("012", "s02"): (2, 2, "532ee4263c2348f050b713637046aeb601d9bb6bc71feaf3789364255bc191c1"),
        ("012", "r0"): (17, 16, "c55078cfed0c65faac31aa105bd1c6a0127bfcccdba144da25898aa52fc4b578"),
        ("01", "s01"): (1, 1, "239aeeb81f847384511612105128b8028525ef9725c8470f3833ebe8c246714c"),
        ("01", "s12"): (2, 1, "7e96b437c86b2a5e49125666ae13cb715a13dbb2577b6dfcb294c65560d14fb4"),
        ("01", "s02"): (2, 2, "cbb8bc0d72ee31b4cab2dbfb54adcf89a02ae077e4182ffa41d4563077d4314b"),
        ("01", "r0"): (9, 8, "055632e943426d0ea737a47b467d955094a61f333de7df940be6af70f54c9f42"),
        ("02", "s01"): (1, 1, "e8fb42e575a2a0045e45382ae5d79b20e990cc338a8efa7de96e28163f2b0c4e"),
        ("02", "s12"): (2, 1, "03311de952a8d177740d05be02be3e0fa8925ef0cb097df211c509e4531b142b"),
        ("02", "s02"): (2, 2, "6803f4404a9a198eea03393d7e764d388ca058ac1fb59e57b1c87ff3355ab6bc"),
        ("02", "r0"): (9, 8, "3094b29d45928157c2dc0991b6036efd8a7b492d2f434681247fad09c7572557"),
        ("2:01", "s01"): (1, 1, "5222871d902145d0ea39232b11390b8a85014558721bc0d00b022e46ae663174"),
        ("2:01", "s12"): (2, 1, "85fc37bc0aa43eb562934ebb567f974ef52d3985bc412b2c895e09ec302f4250"),
        ("2:01", "s02"): (2, 2, "fa5a3fe316368d749765cbeabfbedf1f9ba848764438f5cb06ee3290212686b1"),
        ("2:01", "r0"): (17, 16, "fc141e799a029863bab12f72e744051cf9ca944ab62603178db7bf74c9c68390"),
        ("10:012", "s01"): (1, 1, "5222871d902145d0ea39232b11390b8a85014558721bc0d00b022e46ae663174"),
        ("10:012", "s12"): (2, 1, "0928a89f93f237b8e47c085f8ddec4f8b7bce27fe579ce66d0a8cd224fe6ec60"),
        ("10:012", "s02"): (2, 2, "9d3a3a8db742017f3b81f1aebfc7c5dc98cef1513176b2815385102468637125"),
        ("10:012", "r0"): (65, 64, "61bb136af0b50faf5dc1b6ff384b0c53087cb8e388d49a07548d28aa8902f162"),
    }

    def test_elements_over_the_word_pinned(self, suite):
        for w in suite:
            u = find_disjoint_cylinder(w, 3)
            elements = {
                "s01": swap_involution(u, 0, 1, w),
                "s12": swap_involution(u, 1, 2, w),
                "s02": swap_involution(u, 0, 2, w),
                "r0": first_return_element(u, w),
            }
            for name, e in elements.items():
                table = "".join(
                    f"{x} {e.cocycle(Window(e.radius, x)):+d}\n"
                    for x in sorted(language(w, 2 * e.radius))
                )
                digest = hashlib.sha256(table.encode()).hexdigest()
                assert (e.radius, e.dbound, digest) == self.PINNED[w.spec(), name], name


class TestSwapInvolutions:
    @pytest.fixture()
    def setup(self, omega012):
        u = find_disjoint_cylinder(omega012, 3)
        return u, {
            (i, j): swap_involution(u, i, j, omega012)
            for i, j in ((0, 1), (1, 2), (0, 2))
        }

    def test_involutions(self, setup):
        _, sigmas = setup
        for sigma in sigmas.values():
            assert is_identity(compose(sigma, sigma))
            assert not is_identity(sigma)

    def test_braid_relation(self, setup):
        _, s = setup
        assert elements_equal(compose(s[0, 1], compose(s[1, 2], s[0, 1])), s[0, 2])
        assert elements_equal(compose(s[1, 2], compose(s[0, 1], s[1, 2])), s[0, 2])

    def test_product_order_three(self, setup):
        _, s = setup
        assert element_order_fg(compose(s[0, 1], s[1, 2]), 6) == 3

    def test_support_is_cylinder_pair(self, setup, omega012):
        u, s = setup
        sigma = s[0, 1]
        for letters in language(omega012, 2 * sigma.radius):
            n = sigma._eval(letters, sigma.radius)
            in_u = letters[sigma.radius : sigma.radius + len(u)] == u
            in_phi_u = letters[sigma.radius - 1 : sigma.radius - 1 + len(u)] == u
            if in_u:
                assert n == 1
            elif in_phi_u:
                assert n == -1
            else:
                assert n == 0

    def test_disjointness_violation_rejected(self, omega012):
        with pytest.raises(ValueError):  # T at 0 and T at 2 co-occur
            swap_involution("T", 0, 2, omega012)


class TestFirstReturn:
    def test_full_space_is_shift(self, omega012):
        r = first_return_element("", omega012)
        assert elements_equal(r, shift_power(1, omega012))

    def test_not_identity_and_unbounded_order(self, omega012):
        r0 = first_return_element(find_disjoint_cylinder(omega012, 2), omega012)
        assert not is_identity(r0)
        assert element_order_fg(r0, 64) is None

    def test_inverse_round_trip(self, omega012):
        r0 = first_return_element(find_disjoint_cylinder(omega012, 3), omega012)
        assert is_identity(compose(r0, inverse(r0)))
        assert is_identity(compose(inverse(r0), r0))

    def test_conjugate_supports(self, omega012):
        u = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(u, omega012)
        r1 = compose(shift_power(1, omega012), compose(r0, shift_power(-1, omega012)))
        # support of r1 is the shifted cylinder: u one position to the left
        for letters in language(omega012, 2 * r1.radius):
            n = r1._eval(letters, r1.radius)
            if letters[r1.radius - 1 : r1.radius - 1 + len(u)] != u:
                assert n == 0

    def test_returns_commute(self, omega012):
        u = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(u, omega012)
        rs = [
            compose(shift_power(i, omega012), compose(r0, shift_power(-i, omega012)))
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert elements_equal(compose(rs[i], rs[j]), compose(rs[j], rs[i]))

    def test_sigma_conjugation_permutes_returns(self, omega012):
        u = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(u, omega012)
        r1 = compose(shift_power(1, omega012), compose(r0, shift_power(-1, omega012)))
        s01 = swap_involution(u, 0, 1, omega012)
        assert elements_equal(compose(s01, compose(r0, s01)), r1)


class TestDoubledSystem:
    def test_tau_involution(self, omega012):
        t = tau(omega012)
        assert is_identity(compose(t, t))
        assert not is_identity(t)

    def test_tau_cocycle(self, omega012):
        t = tau(omega012)
        assert t.cocycle(Window(1, "Tz")) == 1
        assert t.cocycle(Window(1, "zT")) == -1

    def test_double_identity(self, omega012):
        assert is_identity(double_element(identity_element(omega012), 1))
        assert is_identity(double_element(identity_element(omega012), 2))

    def test_copies_commute(self, omega012):
        rng = random.Random(21)
        for _ in range(20):
            w1 = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 5)))
            w2 = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 5)))
            e1 = double_element(embed_word(w1, omega012), 1)
            e2 = double_element(embed_word(w2, omega012), 2)
            assert elements_equal(compose(e1, e2), compose(e2, e1))

    def test_diagonal_multiplicative(self, omega012):
        def diagonal(e):
            return compose(double_element(e, 1), double_element(e, 2))

        rng = random.Random(22)
        for _ in range(10):
            w1 = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 4)))
            w2 = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 4)))
            lhs = diagonal(embed_word(w1 + w2, omega012))
            rhs = compose(diagonal(embed_word(w1, omega012)), diagonal(embed_word(w2, omega012)))
            assert elements_equal(lhs, rhs)

    def test_double_rejects_doubled_input(self, omega012):
        with pytest.raises(ValueError):
            double_element(tau(omega012), 1)

    def test_commutator_identity_generators(self, suite):
        for w in suite:
            for letter in "abcd":
                assert commutator_identity_check(letter, w)

    def test_commutator_identity_conjugated_involutions(self, omega012):
        for word in ("ada", "bab", "dacad"):
            assert commutator_identity_check(word, omega012)

    def test_commutator_check_rejects_non_involution(self, omega012):
        with pytest.raises(ValueError):
            commutator_identity_check("bcd", omega012)  # trivial
        with pytest.raises(ValueError):
            commutator_identity_check("ab", omega012)  # order 16


class TestDump:
    def test_dump_contains_table(self, omega012):
        text = "".join(dump_element(embed_word("a", omega012)))
        assert "word: a" in text
        assert "radius: 1" in text
        assert "0T -> +1" in text and "T0 -> -1" in text

    def test_dump_deterministic(self, omega012):
        e = embed_word("ab", omega012)
        f = embed_word("ab", omega012)
        assert "".join(dump_element(e)) == "".join(dump_element(f))

    def test_dump_past_2048_lists_each_window_once(self, omega012):
        # Windows of length 2202 are streamed junction by junction, repeats
        # included; the table keeps each once, in the order first seen.
        e = compose(shift_power(1100, omega012), shift_power(-1100, omega012))
        rows = "".join(dump_element(e)).split("table:\n")[1].splitlines()
        windows = [row.split()[0] for row in rows]
        n = 2 * e.radius
        streamed = list(_windows(_junctions(omega012, _level_for(n)), n))
        assert len(streamed) > len(windows) == len(set(windows))
        assert set(windows) == language(omega012, n)
        assert windows == list(dict.fromkeys(streamed))


class TestSchreierWindow:
    def test_matches_gamma_letters(self, suite):
        # the window reads its own letters; the block word prefix is the oracle
        from grigorchuk import gamma_word

        for w in suite:
            for k in range(1, 12):
                for center in range((1 << k) - 2, (1 << k) + 3):
                    for radius in range(1, min(center, 4) + 1):
                        window = schreier_window(w, center, radius)
                        expected = gamma_word(w, center + radius)[center - radius :]
                        assert window.letters == expected

    def test_matches_positional_letters(self, suite):
        # Around each power q = 2^k the window starts at, ends at, or straddles
        # position q, or stops just short of it; eventually constant omegas
        # get their windows too.
        for w in (*suite, parse_omega("0:1"), parse_omega("2")):
            for radius in range(1, 65):
                qs = [*(1 << k for k in range(_level_for(2 * radius), 22)), 3 << 20, 1 << 40, 3 << 40]
                for q in qs:
                    for center in (q - radius - 1, q - radius, q, q + radius - 1, q + radius):
                        if center >= radius:
                            window = schreier_window(w, center, radius)
                            assert window.radius == radius
                            assert window.letters == block_letters(w, center - radius + 1, center + radius)

    def test_rejects_overhang(self, omega012):
        with pytest.raises(ValueError):
            schreier_window(omega012, 1, 2)
