"""Full-group element tests: cocycle laws, the embedding, degenerate-case
witnesses, and the doubled system."""

import random

import pytest
from hypothesis import given, strategies as st

from grigorchuk import (
    Cylinder,
    Window,
    commutator_identity_check,
    compose,
    double_element,
    dump_element,
    element_order,
    element_order_fg,
    elements_equal,
    embed_word,
    find_disjoint_cylinder,
    first_return_element,
    identity_element,
    injectivity_witness,
    inverse,
    is_identity,
    is_trivial,
    language,
    parse_omega,
    schreier_consistency,
    schreier_window,
    shift_power,
    swap_involution,
    tau,
)
from grigorchuk.fullgroup import InsufficientWindowError, iter_windows
from grigorchuk.omega import EventuallyConstantOmegaError

words = st.text(alphabet="abcd", max_size=8)
DEEP_PREPERIOD = "2" * 60 + ":01"


def full_radius_is_identity(e):
    """Slow oracle for is_identity: the cocycle at every admissible window of
    the element's full radius, with no narrow-first reading."""
    r = e.radius
    return all(e._eval(w, r) == 0 for w in iter_windows(e.omega, 2 * r, e.tag))


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
        cyl = find_disjoint_cylinder(omega012, 3)
        s01, s12 = swap_involution(cyl, 0, 1, omega012), swap_involution(cyl, 1, 2, omega012)
        assert element_order_fg(compose(s01, s12), 6) == order_by_powers(compose(s01, s12), 6) == 3
        r0 = first_return_element(cyl, omega012)
        assert element_order_fg(r0, 64) is None and order_by_powers(r0, 64) is None

    def test_order_is_lcm_of_return_times(self, omega012):
        # a 3-cycle and a disjoint transposition: points return after 1, 2 or 3 steps
        cyl = find_disjoint_cylinder(omega012, 5)
        s = {(i, j): swap_involution(cyl, i, j, omega012) for i, j in ((0, 1), (1, 2), (3, 4))}
        e = compose(compose(s[0, 1], s[1, 2]), s[3, 4])
        assert element_order_fg(e, 12) == order_by_powers(e, 12) == 6
        assert element_order_fg(e, 5) is None


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


class TestWitnesses:
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


class TestCylinders:
    def test_disjoint_cylinder_small(self, omega012):
        for n in (2, 3, 4):
            cyl = find_disjoint_cylinder(omega012, n)
            from grigorchuk.fullgroup import _joint_occurrence

            for k in range(1, n):
                assert not _joint_occurrence(cyl.word, k, omega012)

    def test_suite_n4(self, suite):
        for w in suite:
            assert find_disjoint_cylinder(w, 4).word


class TestSwapInvolutions:
    @pytest.fixture()
    def setup(self, omega012):
        cyl = find_disjoint_cylinder(omega012, 3)
        return cyl, {
            (i, j): swap_involution(cyl, i, j, omega012)
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
        cyl, s = setup
        sigma = s[0, 1]
        for letters in iter_windows(omega012, 2 * sigma.radius):
            n = sigma._eval(letters, sigma.radius)
            in_u = letters[sigma.radius + cyl.offset : sigma.radius + cyl.offset + len(cyl.word)] == cyl.word
            in_phi_u = letters[sigma.radius + cyl.offset - 1 : sigma.radius + cyl.offset - 1 + len(cyl.word)] == cyl.word
            if in_u:
                assert n == 1
            elif in_phi_u:
                assert n == -1
            else:
                assert n == 0

    def test_disjointness_violation_rejected(self, omega012):
        overlapping = Cylinder("T", 0)  # T at 0 and T at 2 co-occur
        with pytest.raises(ValueError):
            swap_involution(overlapping, 0, 2, omega012)


class TestFirstReturn:
    def test_full_space_is_shift(self, omega012):
        r = first_return_element(Cylinder("", 0), omega012)
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
        cyl = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(cyl, omega012)
        r1 = compose(shift_power(1, omega012), compose(r0, shift_power(-1, omega012)))
        # support of r1 is the shifted cylinder: pattern at offset-1
        for letters in iter_windows(omega012, 2 * r1.radius):
            n = r1._eval(letters, r1.radius)
            shifted = letters[r1.radius + cyl.offset - 1 : r1.radius + cyl.offset - 1 + len(cyl.word)]
            if shifted != cyl.word:
                assert n == 0

    def test_returns_commute(self, omega012):
        cyl = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(cyl, omega012)
        rs = [
            compose(shift_power(i, omega012), compose(r0, shift_power(-i, omega012)))
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert elements_equal(compose(rs[i], rs[j]), compose(rs[j], rs[i]))

    def test_sigma_conjugation_permutes_returns(self, omega012):
        cyl = find_disjoint_cylinder(omega012, 3)
        r0 = first_return_element(cyl, omega012)
        r1 = compose(shift_power(1, omega012), compose(r0, shift_power(-1, omega012)))
        s01 = swap_involution(cyl, 0, 1, omega012)
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
        text = dump_element(embed_word("a", omega012))
        assert "word: a" in text
        assert "radius: 1" in text
        assert "0T -> +1" in text and "T0 -> -1" in text

    def test_dump_deterministic(self, omega012):
        e = embed_word("ab", omega012)
        f = embed_word("ab", omega012)
        assert dump_element(e) == dump_element(f)


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

    def test_rejects_overhang(self, omega012):
        with pytest.raises(ValueError):
            schreier_window(omega012, 1, 2)
