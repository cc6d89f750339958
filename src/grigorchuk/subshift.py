"""The minimal subshift read off the half-line graph: exact factor languages
over the four block letters, complexity, recurrence, and the doubled shift.

Letters are single characters: 'T' for the simple-edge block, '0'/'1'/'2' for
the double-edge blocks, and 'z' for the doubling marker.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cmp_to_key, lru_cache, partial

from .omega import EventuallyConstantOmegaError, OmegaSequence
from .schreier import _block_word

ALPHABET = "T012"
_DROP_ALPHABET = str.maketrans("", "", ALPHABET)
MARKER = "z"
_DROP_LETTERS = str.maketrans("", "", ALPHABET + MARKER)
_SPELLING = str.maketrans({c: f"L{c}" for c in "012"})
_RADIUS_CAP = 1 << 22


def render_word(word: str) -> str:
    """Dump spelling: T, L0, L1, L2, z."""
    if word.translate(_DROP_LETTERS):
        raise ValueError(f"letters must be in {ALPHABET + MARKER!r}, got {word!r}")
    return word.translate(_SPELLING)


def _interleaved(word: str) -> str:
    """The doubled spelling of a word: a marker before, between and after letters."""
    return MARKER + MARKER.join(word) + MARKER


def _require_not_constant(omega: OmegaSequence) -> None:
    if omega.is_eventually_constant():
        raise EventuallyConstantOmegaError(
            f"omega {omega.spec()} is eventually constant; the subshift "
            "construction requires a sequence that is not"
        )


def _level_for(n: int) -> int:
    """Minimal m >= 1 with n <= 2^m."""
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=64)
def _junctions(omega: OmegaSequence, m: int) -> tuple[str, ...]:
    """The junction words B * Lambda_s * B of level m: B is the block word
    B_m of 2^m - 1 letters, s each symbol occurring in omega from position
    m on, in increasing order. A window of length n <= 2^m meets at most one
    position divisible by 2^m, so it lies in one junction word, and every
    junction occurs: their length-n windows are exactly the admissible words,
    for every ultimately periodic omega (a long-prefix scan is not exact when
    a symbol first recurs late)."""
    _require_not_constant(omega)
    b = _block_word(omega, m)
    return tuple(f"{b}{s}{b}" for s in sorted(omega.symbols_from(m)))


@lru_cache(maxsize=64)
def _digit_text(omega: OmegaSequence, m: int) -> str:
    """The digits of the level-m junction words, joined by '|'. T fills every
    even place of a junction word, so j[1::2] is its 2^m - 1 digits, and
    digit i of junction q sits at q * 2^m + i."""
    return "|".join(j[1::2] for j in _junctions(omega, m))


def _digits_of(word: str) -> tuple[int, str] | None:
    """(phase, digits) of a word over T012: phase 0 when it starts with T,
    digits the letters between its T places. None when T does not fill every
    other place: TT and two adjacent digits occur in no admissible word."""
    phase = 0 if word.startswith("T") else 1
    digits = word[1 - phase :: 2]
    if "T" in digits or word.count("T") + len(digits) != len(word):
        return None
    return phase, digits


def _windows(words, n: int):
    """Every window of length n of the words, word by word, repeats included."""
    for j in words:
        for i in range(len(j) - n + 1):
            yield j[i : i + n]


def _digit_spots(omega: OmegaSequence, m: int, k: int, ordered: bool) -> list[tuple[int, int]]:
    """(q, i), digit i of junction q, where each distinct k-digit factor of the
    level-m digit text first starts, in reading order or, `ordered`, factor
    order. Junction q offers the starts q * 2^m + i, i < 2^m - k, so no factor
    reads a '|'. Factors are filed by hash and compared in place: none is stored."""
    text, stride, spots, filed = _digit_text(omega, m), 1 << m, [], {}
    for first in range(0, len(text), stride):
        for t in range(first, first + stride - k):
            u = text[t : t + k]
            same = filed.setdefault(hash(u), [])
            if not any(text.startswith(u, s) for s in same):
                same.append(t)
                spots.append(t)

    def compare(s: int, t: int) -> int:
        u, v = text[s : s + k], text[t : t + k]
        return (u > v) - (u < v)

    return [divmod(t, stride) for t in (sorted(spots, key=cmp_to_key(compare)) if ordered else spots)]


def _woven(spots_of: Callable[[int], list[tuple[int, int]]], n: int) -> list[tuple[int, int]]:
    """Sorted (q, p) per distinct length-n window of words whose even places
    hold one letter that sorts after those at the odd places, T in a junction
    word and the marker in its `_interleaved` spelling, from `spots_of(k)`, the
    sorted (q, i) per distinct k-letter factor of the odd places."""
    odd = spots_of((n + 1) // 2)  # a window at 2i + 1 holds ceil(n/2) of them from i
    even = odd if n % 2 == 0 else spots_of(n // 2)
    return [(q, 2 * i + 1) for q, i in odd] + [(q, 2 * i) for q, i in even]


def _spots(omega: OmegaSequence, m: int, n: int, ordered: bool = True) -> list[tuple[int, int]]:
    """(q, p), junction q and first start p, per distinct length-n window of
    the level-m junction words (n <= 2^m): sorted, or in reading order for
    even n, where a window first occurs with its n/2 digits, at 2i on T, then
    at 2i + 1. `_interleaved` junction words hold the letters at their odd
    places, so `_woven(partial(_spots, omega, m), n)` lists their windows."""
    if not n:
        return [(0, 0)]
    if not ordered:
        return [(q, 2 * i + p) for q, i in _digit_spots(omega, m, n // 2, False) for p in (0, 1)]
    return _woven(partial(_digit_spots, omega, m, ordered=True), n)


def _listing(omega: OmegaSequence, n: int, doubled: bool) -> tuple[int, Iterator[str]]:
    """The count and sorted stream of the words of length n, of the doubled
    shift when `doubled`, spelled: each is one slice of a junction word spelled
    once, where letter p sits at p + p//2, or p + p//4 in a doubled one."""
    m = _level_for((n + 1) // 2 if doubled else n)
    words = [(_interleaved(j) if doubled else j).translate(_SPELLING) for j in _junctions(omega, m)]
    spots, step = (_woven(partial(_spots, omega, m), n), 4) if doubled else (_spots(omega, m, n), 2)
    return len(spots), (words[q][p + p // step : p + n + (p + n) // step] for q, p in spots)


def complexity(omega: OmegaSequence, n: int) -> int:
    """rho(n), the number of admissible words of length n, in O(log n) steps.

    The block word T x_1 T x_2 ... is a Toeplitz word (Cassaigne and Karhumaki
    1997): x = x^(0) with x^(j)_i = omega(j + ruler(i)). A window starting on T
    reads floor(n/2) symbols and one starting on a symbol ceil(n/2), so
    rho(n) = p_0(floor(n/2)) + p_0(ceil(n/2)), p_j counting the factors of
    x^(j). x^(j) has c = omega(j+1) at its odd positions and x^(j+1) at its
    even ones; a window of either parity class is fixed by the factor of
    x^(j+1) it reads, and the classes share only the word c^n. So for k >= 0,
    from p_j(0) = 1 and p_j(1) = |symbols_from(j+1)|,

        p_j(2k)   = 2 p_{j+1}(k) - [r_j >= k]
        p_j(2k+1) = p_{j+1}(k) + p_{j+1}(k+1) - [r_j >= k+1],

    r_j being the longest run of c in x^(j+1). If omega repeats c at the t
    positions after j+1 but not at j+t+2 (t is finite as omega is not
    eventually constant), x^(j+1)_i = c wherever 2^t does not divide i, never
    at odd multiples of 2^t, and at some multiples of 2^(t+1) exactly when c
    recurs after position j+t+2 (b = 1): r_j = 2^t (1 + b) - 1. The pair
    (p_j(k), p_j(k+1)), k = floor(n / 2^(j+1)), is carried up from the level
    where k = 0 to level 0, one step per bit of n."""
    if n < 1:
        raise ValueError("length must be >= 1")
    _require_not_constant(omega)
    depth = n.bit_length() - 1
    # omega(1), omega(2), ... until every run below `depth` ends, plus a period
    text = omega.preperiod + omega.period * (depth // len(omega.period) + 3)
    low, high = 1, len(set(text[depth:]))
    for j in range(depth - 1, -1, -1):
        c, end = text[j], j + 1
        while text[end] == c:
            end += 1
        run = ((2 if c in text[end + 1 :] else 1) << (end - j - 1)) - 1
        k = n >> (j + 2)  # (low, high) = (p_{j+1}(k), p_{j+1}(k+1))
        middle = low + high - (run > k)
        if n >> (j + 1) & 1:
            low, high = middle, 2 * high - (run > k)
        else:
            low, high = 2 * low - (run >= k), middle
    return low + (high if n & 1 else low)


def _require_letters(word: str) -> None:
    if word.translate(_DROP_ALPHABET):
        raise ValueError(f"letters must be in {ALPHABET!r}, got {word!r}")


def _occurrences(word: str, omega: OmegaSequence, m: int) -> Iterator[tuple[str, int]]:
    """(j, i) for each start i of the word in each level-m junction word j,
    junction by junction, then by start. A hit k of the word's digits in the
    digit text is digit k % 2^m of junction k // 2^m, and '|' matches no
    digit, so no hit straddles two junctions; T fills the places between.
    The empty word starts at every place 0..len(j)."""
    junctions = _junctions(omega, m)
    if not word:
        yield from ((j, i) for j in junctions for i in range(len(j) + 1))
        return
    split = _digits_of(word)
    if split is None:
        return
    (phase, digits), text, stride = split, _digit_text(omega, m), 1 << m
    k = text.find(digits)
    while k >= 0:
        yield junctions[k // stride], 2 * (k % stride) + phase
        k = text.find(digits, k + 1)


def is_admissible(word: str, omega: OmegaSequence) -> bool:
    """Membership is one search of the word's digits in the digit text of the
    junction words of its level, half their letters."""
    _require_letters(word)
    split = _digits_of(word)
    return split is not None and split[1] in _digit_text(omega, _level_for(len(word)))


def extensions(word: str, omega: OmegaSequence, side: str) -> frozenset[str]:
    """Letters that extend an admissible word on the given side, read beside
    its occurrences in the junction words of the level for n + 1, n = len(word).
    Their length-(n + 1) windows are exactly the admissible words of that
    length, so c + word (or word + c) is admissible exactly when c stands
    beside some occurrence inside a junction word. The subshift is minimal, so
    every admissible word extends on both sides: no letter found means the
    word is not admissible. Beside a digit stands T in every occurrence, so
    there the first occurrence settles the answer."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_letters(word)
    offset = -1 if side == "left" else len(word)
    occurrences = _occurrences(word, omega, _level_for(len(word) + 1))
    if (word[:1] if side == "left" else word[-1:]).isdigit():
        letters = {"T"} if next(occurrences, None) else set()
    else:
        letters = {j[i + offset] for j, i in occurrences if 0 <= i + offset < len(j)}
    if not letters:
        raise ValueError(f"word {render_word(word)} is not admissible")
    return frozenset(letters)


def _covers(omega: OmegaSequence, m: int, n: int, count: int) -> int | None:
    """The widest gap between successive starts of one length-n word along the
    level-m junction words, the ends counting as starts -1 and len - n + 1;
    None once a gap exceeds 2^m - n + 1, or when fewer than `count` distinct
    words start before that position (the gap of any other one is wider)."""
    limit, widest = (1 << m) - n + 1, 0
    for j in _junctions(omega, m):
        end, last = len(j) - n + 1, {}
        for i in range(end):  # end > limit: a junction has 2^(m+1) - 1 letters
            if i == limit and len(last) < count:
                return None
            u = j[i : i + n]
            gap = i - last.get(u, -1)
            if gap > widest:
                if gap > limit:
                    return None
                widest = gap
            last[u] = i
        widest = max(widest, end - min(last.values()))
        if widest > limit:
            return None
    return widest


def uniform_recurrence_radius(omega: OmegaSequence, n: int) -> int:
    """Least R such that every admissible word of length R contains every
    admissible word of length n. For n <= R <= 2^m the words of length R are
    the windows of the level-m junction words, so R covers exactly when
    R >= G_m + n - 1, G_m the widest gap of `_covers`; R(n) is that bound at
    the first m where it is at most 2^m. A word of length R holds R - n + 1
    windows, so the levels below that of rho(n) + n - 1 are skipped."""
    if n < 1:
        raise ValueError("length must be >= 1")
    count = complexity(omega, n)
    for m in range(_level_for(count + n - 1), _RADIUS_CAP.bit_length()):
        if (widest := _covers(omega, m, n, count)) is not None:
            return widest + n - 1
    raise RuntimeError(f"recurrence radius for n={n} exceeds cap {_RADIUS_CAP}")


@lru_cache(maxsize=1)
def double_language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """Exact factors of the doubled shift, both phase classes: the length-n
    windows of the `_interleaved` junction words for ceil(n/2)."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return frozenset(_windows(map(_interleaved, _junctions(omega, _level_for((n + 1) // 2))), n))
