"""Grigorchuk group machinery: tree/ray actions, word problem, orders, balls.

Generators are the letters a, b, c, d. Words act with the rightmost letter
applied first, so apply_word("xy", v) == apply x after y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .omega import OmegaSequence

GENERATORS = "abcd"

# b/c/d fix a ray whose first zero sits at a position where omega reads 2/1/0.
GEN_SYMBOL = {"b": 2, "c": 1, "d": 0}
SYMBOL_GEN = {2: "b", 1: "c", 0: "d"}

_KLEIN = {"bc": "d", "cb": "d", "bd": "c", "db": "c", "cd": "b", "dc": "b"}


@dataclass(frozen=True)
class Ray:
    """A boundary point cofinal with rho = 111..., stored as the finite prefix
    before the infinite tail of 1s. Canonical form strips trailing 1s, so rho
    itself has empty prefix and ray equality is string equality."""

    prefix: str = ""

    def __post_init__(self) -> None:
        if set(self.prefix) - {"0", "1"}:
            raise ValueError(f"ray prefix must be binary, got {self.prefix!r}")
        object.__setattr__(self, "prefix", self.prefix.rstrip("1"))

    def __str__(self) -> str:
        return (self.prefix or "") + "111..."


RHO = Ray("")


def _check_word(word: str) -> None:
    bad = set(word) - set(GENERATORS)
    if bad:
        raise ValueError(f"word letters must be in a/b/c/d, got {sorted(bad)}")


def fixing_generator(r: Ray, omega: OmegaSequence) -> str:
    """The unique letter among b, c, d that fixes r (undefined for rho): the
    one whose symbol omega reads at the first 0 digit of r."""
    pos = r.prefix.find("0")
    if pos < 0:
        raise ValueError("rho is fixed by all of b, c, d")
    return SYMBOL_GEN[omega.at(pos + 1)]


def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def apply_generator(letter: str, target, omega: OmegaSequence):
    """Act by one generator on a TreeVertex (str over 0/1) or a Ray.

    A ray acts as the vertex prefix + "1": a generator reads at most the digit
    after the first 0, and the first 0 of prefix + "1" is the first 0 of the
    canonical prefix, so that digit always exists. Only one step is exact this
    way, because an image may end in 0; `Ray` re-pads every image."""
    if letter not in GENERATORS:
        raise ValueError(f"unknown generator {letter!r}")
    if isinstance(target, Ray):
        return Ray(_apply_vertex(letter, target.prefix + "1", omega))
    return _apply_vertex(letter, target, omega)


def _apply_vertex(letter: str, v: str, omega: OmegaSequence) -> str:
    if letter == "a":
        return v if not v else _flip(v[0]) + v[1:]
    j = v.find("0") + 1  # 1-based position of the first 0
    if j == 0 or j == len(v):
        return v
    if omega.at(j) == GEN_SYMBOL[letter]:
        return v
    return v[:j] + _flip(v[j]) + v[j + 1:]


def apply_word(word: str, target, omega: OmegaSequence):
    """Fold of apply_generator, rightmost letter first."""
    _check_word(word)
    for letter in reversed(word):
        target = apply_generator(letter, target, omega)
    return target


def normalize_word(word: str) -> str:
    """Reduce using the universal relations only: squares vanish and adjacent
    b/c/d letters fuse through the Klein four-group table. The result
    alternates a-letters and single letters from {b,c,d} and represents the
    same element of every G_omega."""
    _check_word(word)
    # The stack alternates, so the letter below a b/c/d top is a or nothing
    # and a fusion never cascades.
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


def root_and_sections(word: str, omega: OmegaSequence) -> tuple[bool, str, str]:
    """Wreath decomposition of any word over a/b/c/d.

    Returns (root_swap, section0, section1) with the sections read in
    G_{shifted omega}: the automorphism acts as w(xv) = swap(x) + section_x(v).
    Only a normalized word of length >= 2 is sure to have shorter sections.
    """
    _check_word(word)
    swap = False
    s0: list[str] = []
    s1: list[str] = []
    first = omega.at(1)
    for ch in word:
        if ch == "a":
            swap = not swap
            s0, s1 = s1, s0
        else:
            if GEN_SYMBOL[ch] != first:
                s0.append("a")
            s1.append(ch)
    return swap, "".join(s0), "".join(s1)


@lru_cache(maxsize=262144)
def _trivial_normalized(word: str, omega: OmegaSequence) -> bool:
    if not word:
        return True
    if len(word) == 1:
        if word == "a":
            return False
        # A single b/c/d is the identity iff every omega symbol keeps its
        # first-level permutation trivial (possible for eventually constant
        # omega, e.g. b over the constant-2 sequence).
        return omega.symbols_from(1) <= {GEN_SYMBOL[word]}
    swap, s0, s1 = root_and_sections(word, omega)
    if swap:
        return False
    shifted = omega.shift(1)
    return _trivial_normalized(
        normalize_word(s0), shifted
    ) and _trivial_normalized(normalize_word(s1), shifted)


def is_trivial(word: str, omega: OmegaSequence) -> bool:
    """Exact word problem: does the word represent the identity of G_omega?

    Contraction argument: sections of a normalized word of length n have
    length <= ceil((n+1)/2) < n for n >= 2, so the recursion terminates.
    """
    return _trivial_normalized(normalize_word(word), omega)


def words_equal(w1: str, w2: str, omega: OmegaSequence) -> bool:
    """Every generator is an involution, so the inverse is the reversed word."""
    return is_trivial(w1 + w2[::-1], omega)


def element_order(word: str, omega: OmegaSequence, max_order: int) -> int | None:
    """Smallest k <= max_order with word^k trivial, else None.

    G_omega acts faithfully on the binary tree and each level quotient is a
    2-group, so an element of finite order has order 2^a. Repeated squaring
    therefore finds every order up to max_order, and when no power of two up
    to it is trivial no k up to it is either.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    p, k = normalize_word(word), 1
    while k <= max_order:
        if _trivial_normalized(p, omega):
            return k
        p = _square_normalized(p)
        k *= 2
    return None


def _square_normalized(p: str) -> str:
    """normalize_word(p + p) for a normalized p: only the seam between the two
    copies can reduce. Equal letters cancel outwards from it; a Klein pair of
    b/c/d letters then fuses once, and the fused letter sits between a-letters
    or ends, so nothing further reduces."""
    n, k = len(p), 0
    while k < n and p[n - 1 - k] == p[k]:
        k += 1
    if k < n and p[n - 1 - k] + p[k] in _KLEIN:
        return p[: n - 1 - k] + _KLEIN[p[n - 1 - k] + p[k]] + p[k + 1 :]
    return p[: n - k] + p[k:]


def find_moved_vertex(word: str, omega: OmegaSequence) -> str:
    """Some tree vertex moved by a nontrivial word, found through the section
    recursion (cheap: no exhaustive level scans)."""
    w = normalize_word(word)
    if _trivial_normalized(w, omega):
        raise ValueError("trivial words move no vertex")
    if len(w) == 1:
        if w == "a":
            return "0"
        k = GEN_SYMBOL[w]
        m = 1
        while omega.at(m) == k:
            m += 1
        return "1" * (m - 1) + "00"
    swap, s0, s1 = root_and_sections(w, omega)
    if swap:
        return "0"
    shifted = omega.shift(1)
    s0, s1 = normalize_word(s0), normalize_word(s1)
    if not _trivial_normalized(s0, shifted):
        return "0" + find_moved_vertex(s0, shifted)
    return "1" + find_moved_vertex(s1, shifted)


def _element_keys(omega: OmegaSequence):
    """key(word, j): an int id of the automorphism a normalized word gives
    over omega shifted by j, for j below len(preperiod) + len(period); equal
    ids exactly for equal automorphisms. The nucleus (words of at most one
    letter) is merged by Moore refinement from the root swap, so each stable
    class is the only one with its triple (swap, section 0 class, section 1
    class); a longer word hash-conses its own triple of contracted sections.
    """
    pre = len(omega.preperiod)
    count = pre + len(omega.period)
    shifted = [omega.shift(j) for j in range(count)]
    nxt = [*range(1, count), pre]
    moves = {}
    for w in ("", *GENERATORS):
        for j in range(count):
            swap, s0, s1 = root_and_sections(w, shifted[j])
            moves[w, j] = swap, (s0, nxt[j]), (s1, nxt[j])
    cls = {s: int(swap) for s, (swap, _, _) in moves.items()}
    while True:
        ids: dict[tuple[int, int, int], int] = {}
        refined = {
            s: ids.setdefault((cls[s], cls[t0], cls[t1]), len(ids))
            for s, (_, t0, t1) in moves.items()
        }
        if len(ids) == len(set(cls.values())):
            break
        cls = refined
    table = {(swap, cls[t0], cls[t1]): cls[s] for s, (swap, t0, t1) in moves.items()}
    memo = dict(cls)

    def key(word: str, j: int) -> int:
        k = memo.get((word, j))
        if k is None:
            swap, s0, s1 = root_and_sections(word, shifted[j])
            i = nxt[j]
            triple = swap, key(normalize_word(s0), i), key(normalize_word(s1), i)
            k = memo[word, j] = table.setdefault(triple, len(table))
        return k

    return key


def ball_sizes(omega: OmegaSequence, n_max: int) -> list[int]:
    """Sizes of balls of radius 0..n_max in (G_omega, {a,b,c,d}) by breadth
    first search, deduplicated by the exact keys of _element_keys."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    key = _element_keys(omega)
    seen = {key("", 0)}
    sizes = [1]
    frontier = [""]
    for _ in range(n_max):
        new_frontier = []
        for w in frontier:
            for g in GENERATORS:
                cand = normalize_word(w + g)
                k = key(cand, 0)
                if k not in seen:
                    seen.add(k)
                    new_frontier.append(cand)
        sizes.append(sizes[-1] + len(new_frontier))
        frontier = new_frontier
    return sizes
