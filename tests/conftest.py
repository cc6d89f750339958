from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import HealthCheck, settings

from grigorchuk import OmegaSequence, parse_omega, ruler_a
from grigorchuk.fullgroup import InsufficientWindowError, _step
from grigorchuk.group import GEN_SYMBOL, _partner
from grigorchuk.schreier import _block_word
from grigorchuk.subshift import MARKER, _junctions, _level_for, _windows

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SUITE_SPECS = ("012", "01", "02", "2:01", "10:012")
# the suite, a late-recurring symbol (0:0112, 21:0012) and a long preperiod
ORACLE_SPECS = (*SUITE_SPECS, "0:0112", "21:0012", "2" * 6 + ":01")


@pytest.fixture(scope="session")
def suite():
    return tuple(parse_omega(s) for s in SUITE_SPECS)


@pytest.fixture(scope="session")
def omega012():
    return parse_omega("012")


@pytest.fixture(scope="session")
def short_omegas():
    """Every omega that is not eventually constant, with preperiod of length
    at most 2 and period of length at most 3: 13 preperiods times 30 periods."""
    words = lambda lengths: ["".join(p) for k in lengths for p in product("012", repeat=k)]
    return [
        OmegaSequence(pre, per)
        for pre in words(range(3))
        for per in words(range(1, 4))
        if len(set(per)) > 1
    ]


def block_letters(omega: OmegaSequence, first: int, last: int) -> str:
    """Per-position oracle for the block word: the letters at positions
    first..last, Theta at odd positions and the i-th double-edge block
    Lambda_{omega(ruler(i))} at position 2i."""
    return "".join(
        ["T" if p % 2 else str(omega.at(ruler_a(p // 2))) for p in range(first, last + 1)]
    )


def language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """Oracle for the sorted factor stream: the admissible words of length n
    as a set, every length-n window of the junction words of the level for n."""
    return frozenset(_windows(_junctions(omega, _level_for(n)), n))


def doubled_junctions(omega: OmegaSequence, m: int) -> list[str]:
    """Oracle for the doubled junction words: the level-m junction words, a
    marker before, between and after letters."""
    return [MARKER + MARKER.join(j) + MARKER for j in _junctions(omega, m)]


LOOP_SYMBOL = {g: str(s) for g, s in GEN_SYMBOL.items()}


def plain_eval(e, letters: str, center: int) -> int:
    """Oracle for `fullgroup._walker`: the cocycle at the marked vertex
    `center` of `letters`, a doubled coordinate for tag B, factor by factor
    and a word factor letter by letter, each generator by its rule on the
    letters: a crosses the simple-edge block T, and b, c, d stay on a loop of
    their block symbol and cross any other. Raises when the walk reads outside
    the letters. A dbl child is read in the same letters at vertex c >> 1."""
    n, size = 0, 2 * len(letters) + 1 if e.tag == "B" else len(letters)
    for f in e.factors:
        kind, radius = f[0], 1 if f[0] == "word" else f[1]
        for g in f[3] if kind == "word" else [None]:
            c = center + n
            if c < radius or c + radius > size:
                raise InsufficientWindowError(
                    f"letters [{-center}, {size - center}) too small for a radius-{radius} "
                    f"factor at displacement {n}"
                )
            if kind == "dbl":  # copy 1 acts at the odd c, copy 2 at the even ones
                n += 2 * plain_eval(f[4], letters, c >> 1) if c & 1 == (f[3] == 1) else 0
            elif kind != "word":
                n += _step(f, letters, c)
            elif g == "a":  # cross the simple-edge block
                n += 1 if letters[c] == "T" else -1
            elif letters[c] != "T":  # b, c, d: stay on their loop, else cross
                n += letters[c] != LOOP_SYMBOL[g]
            elif letters[c - 1] != LOOP_SYMBOL[g]:  # a loop on the left stays put
                n -= 1
    if abs(n) > e.dbound:
        raise RuntimeError(f"displacement {n} exceeds bound {e.dbound} for {e.label}")
    return n


def letter_eval(e, letters: str, center: int) -> int:
    """Oracle for the walks of a doubled element (tag B): its cocycle at the
    vertex `center` of `letters`, spelled with markers interleaved, read off
    the letters. tau steps forward off a marker and back onto one, and a dbl
    copy acts when the letter at 0 is plain for copy 1, the marker for copy 2,
    as twice its child's cocycle on a strided slice of 4 r plain letters. A
    plain element is read by `plain_eval`."""
    if e.tag == "A":
        return plain_eval(e, letters, center)
    n, size = 0, len(letters)
    for f in e.factors:
        c = center + n
        if c < f[1] or c + f[1] > size:
            raise InsufficientWindowError(f"a radius-{f[1]} factor at {c} leaves {size} letters")
        if f[0] == "tau":
            n += 1 if letters[c] == MARKER else -1
        elif (letters[c] != MARKER) == (f[3] == 1):  # a dbl copy on this phase
            rc = f[4].radius
            start = c - 2 * rc + (f[3] == 2)
            n += 2 * plain_eval(f[4], letters[start : start + 4 * rc : 2], rc)
    if abs(n) > e.dbound:
        raise RuntimeError(f"displacement {n} exceeds bound {e.dbound} for {e.label}")
    return n


def window_cut(omega: OmegaSequence, center: int, radius: int) -> str:
    """Oracle for `fullgroup._junction_at`: the letters of the radius-r window
    around vertex `center`, cut from the junction word B_m s B_m around the
    least multiple q of 2^m >= 2r from its first position on, s the block
    word's letter at q."""
    first, m = center - radius + 1, _level_for(2 * radius)
    q = ((first - 1 >> m) + 1) << m
    block = _block_word(omega, m)
    junction = f"{block}{omega.at(ruler_a(q >> 1))}{block}"  # q at index len(block)
    start = first - q + len(block)
    return junction[start : start + 2 * radius]


def spots_by_sort(words, n: int) -> list[tuple[str, int]]:
    """Oracle for the spot enumerator: one (word, start) per distinct length-n
    window of the words, its first start in reading order, in sorted window
    order, by one stable sort of every start that compares windows slice by
    slice."""

    def compare(a: tuple[str, int], b: tuple[str, int]) -> int:
        u, v = a[0][a[1] : a[1] + n], b[0][b[1] : b[1] + n]
        return (u > v) - (u < v)

    spots = sorted(((j, i) for j in words for i in range(len(j) - n + 1)), key=cmp_to_key(compare))
    return [s for k, s in enumerate(spots) if k == 0 or compare(spots[k - 1], s)]


def first_starts(words, n: int) -> dict:
    """Each distinct length-n window of the words and its first (word, start),
    in reading order, the windows held as keys."""
    first = {}
    for j in words:
        for i in range(len(j) - n + 1):
            first.setdefault(j[i : i + n], (j, i))
    return first


def fixing_generator(prefix: str, omega: OmegaSequence) -> str:
    """Oracle for the fixing column of the orbit listing: the letters among
    b, c, d that fix the ray with this canonical prefix, one for every ray but
    rho, read off the string path of the action: the ray acts as the vertex
    prefix + "1"."""
    return _partner(prefix + "1", omega)[0]


def occurrences_by_letters(word: str, omega: OmegaSequence, m: int):
    """Oracle for `subshift._occurrences`: (j, i) for each start i of the word
    in each level-m junction word j, by a `find` loop over the letters."""
    for j in _junctions(omega, m):
        i = j.find(word)
        while i >= 0:
            yield j, i
            i = j.find(word, i + 1)


def admissible_by_letters(word: str, omega: OmegaSequence) -> bool:
    """Oracle for `is_admissible`: the word is a substring of a junction word
    of its level, letters and all."""
    if set(word) - set("T012"):
        raise ValueError(f"letters must be in 'T012', got {word!r}")
    return any(word in j for j in _junctions(omega, _level_for(len(word))))
