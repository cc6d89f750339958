"""The minimal subshift read off the half-line graph: exact factor languages
over the four block letters, complexity, recurrence, and the doubled shift.

Letters are single characters: 'T' for the simple-edge block, '0'/'1'/'2' for
the double-edge blocks, and 'z' for the doubling marker.
"""

from __future__ import annotations

from functools import lru_cache

from .omega import EventuallyConstantOmegaError, OmegaSequence
from .schreier import _block_word

ALPHABET = "T012"
_DROP_ALPHABET = str.maketrans("", "", ALPHABET)
MARKER = "z"
_RADIUS_CAP = 1 << 22

_RENDER = {"T": "T", "0": "L0", "1": "L1", "2": "L2", "z": "z"}


def render_word(word: str) -> str:
    """Dump spelling: T, L0, L1, L2, z."""
    return "".join(_RENDER[ch] for ch in word)


def _require_not_constant(omega: OmegaSequence) -> None:
    if omega.is_eventually_constant():
        raise EventuallyConstantOmegaError(
            f"omega {omega.spec()} is eventually constant; the subshift "
            "construction requires a sequence that is not"
        )


def gamma_word(omega: OmegaSequence, letter_count: int) -> str:
    """Prefix of the infinite block word, `letter_count` letters long."""
    if letter_count < 0:
        raise ValueError("letter count must be >= 0")
    return _block_word(omega, letter_count.bit_length())[:letter_count]


def _level_for(n: int) -> int:
    """Minimal m >= 1 with n <= 2^m."""
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=64)
def _junctions(omega: OmegaSequence, m: int) -> tuple[str, ...]:
    """The junction words B * Lambda_s * B of level m: B is the block-word
    prefix of 2^m - 1 letters, s each symbol occurring in omega from position
    m on, in increasing order. A window of length n <= 2^m meets at most one
    position divisible by 2^m, so it lies in one junction word, and every
    junction occurs: their length-n windows are exactly the admissible words,
    for every ultimately periodic omega (a long-prefix scan is not exact when
    a symbol first recurs late)."""
    _require_not_constant(omega)
    b = gamma_word(omega, (1 << m) - 1)
    return tuple(f"{b}{s}{b}" for s in sorted(omega.symbols_from(m)))


def _windows(words, n: int):
    """Every window of length n of the words, word by word, repeats included."""
    for j in words:
        for i in range(len(j) - n + 1):
            yield j[i : i + n]


@lru_cache(maxsize=65536)
def language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """The exact set of admissible words of length n (see `_junctions`)."""
    if n < 0:
        raise ValueError("length must be >= 0")
    _require_not_constant(omega)
    if n == 0:
        return frozenset({""})
    return frozenset(_windows(_junctions(omega, _level_for(n)), n))


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


def is_admissible(word: str, omega: OmegaSequence) -> bool:
    """Membership is a substring search in the junction words."""
    _require_letters(word)
    return any(word in j for j in _junctions(omega, _level_for(len(word))))


def extensions(word: str, omega: OmegaSequence, side: str) -> frozenset[str]:
    """Letters that extend an admissible word on the given side, read beside
    its occurrences in the junction words of the level for n + 1, n = len(word).
    Their length-(n + 1) windows are exactly the admissible words of that
    length, so c + word (or word + c) is admissible exactly when c stands
    beside some occurrence inside a junction word. The subshift is minimal, so
    every admissible word extends on both sides: no letter found means the
    word is not admissible."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_letters(word)
    offset = -1 if side == "left" else len(word)
    letters = set()
    for j in _junctions(omega, _level_for(len(word) + 1)):
        i = j.find(word)
        while i >= 0:
            if 0 <= i + offset < len(j):
                letters.add(j[i + offset])
            i = j.find(word, i + 1)
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


def _doubled_junctions(omega: OmegaSequence, m: int) -> list[str]:
    """The level-m junction words, a marker before, between and after letters."""
    return [MARKER + MARKER.join(j) + MARKER for j in _junctions(omega, m)]


@lru_cache(maxsize=1)
def double_language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """Exact factors of the doubled shift, both phase classes: the length-n
    windows of the doubled junction words."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return frozenset(_windows(_doubled_junctions(omega, _level_for((n + 1) // 2)), n))
