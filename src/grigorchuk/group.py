"""Grigorchuk group machinery: tree/ray actions, word problem, orders, balls.

Generators are the letters a, b, c, d. Words act with the rightmost letter
applied first, so apply_word("xy", v) == apply x after y.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .omega import OmegaSequence

GENERATORS = "abcd"

# b/c/d fix a ray whose first zero sits at a position where omega reads 2/1/0.
GEN_SYMBOL = {"b": 2, "c": 1, "d": 0}
SYMBOL_GEN = {2: "b", 1: "c", 0: "d"}

_KLEIN = {"bc": "d", "cb": "d", "bd": "c", "db": "c", "cd": "b", "dc": "b"}

_DROP_GENERATORS = str.maketrans("", "", GENERATORS)
_DROP01 = str.maketrans("", "", "01")


def _check_word(word: str) -> None:
    bad = word.translate(_DROP_GENERATORS)
    if bad:
        raise ValueError(f"word letters must be in a/b/c/d, got {sorted(set(bad))}")


def _check_vertex(v: str) -> None:
    bad = v.translate(_DROP01)
    if bad:
        raise ValueError(f"vertex digits must be 0/1, got {sorted(set(bad))}")


class _RunProducts(dict):
    """The Klein product of a run of b/c/d letters: looked up for runs of at
    most four letters, counted by parities (and not stored) for longer ones."""

    def __missing__(self, run: str) -> str:
        # b, c, d are 1, 2, 3 in the Klein group as (Z/2)^2, written as XOR
        x = (run.count("b") & 1) ^ (run.count("c") & 1) * 2 ^ (run.count("d") & 1) * 3
        return ("", "b", "c", "d")[x]


_RUN_PRODUCT = _RunProducts()
_RUN_PRODUCT.update(
    (run, _RUN_PRODUCT[run]) for n in range(5) for run in map("".join, product("bcd", repeat=n))
)


def _section_tables(first: int) -> tuple[dict[int, str | None], dict[int, str | None]]:
    """translate tables giving section 0 and section 1 of a word whose b/c/d
    letters are upper case where an odd number of a-letters follows them.
    A letter goes into one section as itself and into the other as a, or as
    nothing when omega reads its symbol at 1 (its section there is trivial)."""
    to_section0, to_section1 = {}, {}
    for g in "bcd":
        other = None if GEN_SYMBOL[g] == first else "a"
        to_section0[g.upper()], to_section0[g] = g, other
        to_section1[g.upper()] = other
    return str.maketrans(to_section0), str.maketrans(to_section1)


_SECTION_TABLES = {k: _section_tables(k) for k in SYMBOL_GEN}


def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def apply_generator(letter: str, v: str, omega: OmegaSequence) -> str:
    """Act by one generator on the tree vertex v, a string over 0/1.

    A ray, stored as its canonical prefix, acts as the vertex prefix + "1": a
    generator reads at most the digit after the first 0, and the first 0 of
    prefix + "1" is the first 0 of the canonical prefix, so that digit always
    exists. Only one step is exact this way, because an image may end in 0;
    strip the image's trailing 1s and pad again before the next step."""
    if len(letter) != 1 or letter not in GENERATORS:
        raise ValueError(f"unknown generator {letter!r}")
    _check_vertex(v)
    if letter == "a":
        return v if not v else _flip(v[0]) + v[1:]
    fixers, image = _partner(v, omega)
    return v if letter in fixers else image


def _partner(v: str, omega: OmegaSequence) -> tuple[str, str]:
    """The b/c/d letters fixing the vertex v and the image under the others: all
    flip the digit after the first 0 but the one whose symbol omega reads there
    (all three fix v when there is no such digit)."""
    j = v.find("0") + 1  # 1-based position of the first 0
    if j == 0 or j == len(v):
        return "bcd", v
    return SYMBOL_GEN[omega.at(j)], v[:j] + _flip(v[j]) + v[j + 1:]


def apply_word(word: str, v: str, omega: OmegaSequence) -> str:
    """The action of the word (rightmost letter first) on the tree vertex v,
    a string over 0/1, through the wreath recursion w(xv) = swap(x) section_x(v):
    one decomposition per digit until the section has at most one letter, then
    one generator step on the rest of v. Sections contract, so this costs
    O(|word| + |v|)."""
    _check_word(word)
    _check_vertex(v)
    w, digits = _normalize(word), []
    while len(w) > 1 and len(digits) < len(v):
        x = v[len(digits)]
        swap, s0, s1 = _sections(w, omega.at(len(digits) + 1))
        digits.append(_flip(x) if swap else x)
        w = _normalize(s0 if x == "0" else s1)
    rest = v[len(digits):]
    if w and rest:
        rest = apply_generator(w, rest, omega.shift(len(digits)))
    return "".join(digits) + rest


def normalize_word(word: str) -> str:
    """Reduce using the universal relations only: squares vanish and adjacent
    b/c/d letters fuse through the Klein four-group table. The result
    alternates a-letters and single letters from {b,c,d} and represents the
    same element of every G_omega."""
    _check_word(word)
    return _normalize(word)


def _normalize(word: str) -> str:
    # Each b/c/d run fuses to its Klein product. A run that fuses to nothing
    # strictly inside the word leaves "aa", which cancels; the normal pieces
    # between those cancellations are joined at their seams, where equal
    # letters cancel outwards and a Klein pair then fuses once.
    pieces = "a".join(map(_RUN_PRODUCT.__getitem__, word.split("a"))).split("aa")
    if len(pieces) == 1:
        return pieces[0]
    stack = list(pieces[0])
    for piece in pieces[1:]:
        k, n = 0, len(piece)
        while k < n and stack and stack[-1] == piece[k]:
            stack.pop()
            k += 1
        if k < n and stack and stack[-1] + piece[k] in _KLEIN:
            stack[-1] = _KLEIN[stack[-1] + piece[k]]
            k += 1
        stack.extend(piece[k:])
    return "".join(stack)


def root_and_sections(word: str, omega: OmegaSequence) -> tuple[bool, str, str]:
    """Wreath decomposition of any word over a/b/c/d.

    Returns (root_swap, section0, section1) with the sections read in
    G_{shifted omega}: the automorphism acts as w(xv) = swap(x) + section_x(v).
    Only a normalized word of length >= 2 is sure to have shorter sections.
    """
    _check_word(word)
    return _sections(word, omega.at(1))


def _sections(word: str, first: int) -> tuple[bool, str, str]:
    # root_and_sections over an omega that reads `first` at 1. A b/c/d letter
    # followed by an odd number of a-letters lands in section 0 as itself,
    # else in section 1; upper case marks the first kind, run by run.
    runs = word.split("a")
    runs[-2::-2] = word.upper().split("A")[-2::-2]
    marked = "".join(runs)
    to_section0, to_section1 = _SECTION_TABLES[first]
    return len(runs) % 2 == 0, marked.translate(to_section0), marked.translate(to_section1)


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
    swap, s0, s1 = _sections(word, omega.at(1))
    if swap:
        return False
    shifted = omega.shift(1)
    return _trivial_normalized(_normalize(s0), shifted) and _trivial_normalized(
        _normalize(s1), shifted
    )


def is_trivial(word: str, omega: OmegaSequence) -> bool:
    """Exact word problem: does the word represent the identity of G_omega?

    Contraction argument: sections of a normalized word of length n have
    length <= ceil((n+1)/2) < n for n >= 2, so the recursion terminates.
    """
    return _trivial_normalized(normalize_word(word), omega)


def element_order(word: str, omega: OmegaSequence, max_order: int) -> int | None:
    """Smallest k <= max_order with word^k trivial, else None.

    By the wreath recursion: w = (w0, w1) has order lcm(|w0|, |w1|), and
    w = swap (w0, w1) has order 2 |w1 w0| as w^2 = (w1 w0, w0 w1). Orders are
    powers of two: 2^d, d the most swaps on a path of sections to the identity,
    a nontrivial letter counting one. Each level keeps every distinct section
    once, with its largest count; sections without a swap are shorter, so the
    sweep ends, or stops once a count passes log2(max_order).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    most, depth, level = max_order.bit_length() - 1, 0, {normalize_word(word): 0}
    while level and depth <= most:
        below: dict[str, int] = {}
        for w, swaps in level.items():
            if len(w) < 2:
                depth = max(depth, swaps + (not _trivial_normalized(w, omega)))
                continue
            swap, s0, s1 = _sections(w, omega.at(1))
            for s in map(_normalize, (s0 + s1,) if swap else (s0, s1)):
                below[s] = max(below.get(s, 0), swaps + swap)
        level, omega = below, omega.shift(1)
        depth = max([depth, *level.values()])
    return 1 << depth if depth <= most else None


def find_moved_vertex(word: str, omega: OmegaSequence) -> str:
    """Some tree vertex moved by a nontrivial word, found by walking down its
    nontrivial sections (cheap: no exhaustive level scans)."""
    w = normalize_word(word)
    if _trivial_normalized(w, omega):
        raise ValueError("trivial words move no vertex")
    path = ""
    while len(w) > 1:
        swap, s0, s1 = _sections(w, omega.at(1))
        if swap:
            return path + "0"
        omega = omega.shift(1)
        w = _normalize(s0)
        if _trivial_normalized(w, omega):
            path, w = path + "1", _normalize(s1)
        else:
            path += "0"
    if w == "a":
        return path + "0"
    m = 1
    while omega.at(m) == GEN_SYMBOL[w]:
        m += 1
    return path + "1" * (m - 1) + "00"


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
            swap, s0, s1 = _sections(w, shifted[j].at(1))
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
            swap, s0, s1 = _sections(word, shifted[j].at(1))
            i = nxt[j]
            triple = swap, key(_normalize(s0), i), key(_normalize(s1), i)
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
