"""The minimal subshift read off the half-line graph: exact factor languages
over the four block letters, complexity, recurrence, and the doubled shift.

Letters are single characters: 'T' for the simple-edge block, '0'/'1'/'2' for
the double-edge blocks, and 'z' for the doubling marker.
"""

from __future__ import annotations

from functools import lru_cache

from .omega import EventuallyConstantOmegaError, OmegaSequence
from .schreier import ruler_a

ALPHABET = "T012"
MARKER = "z"

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


def _block_letters(omega: OmegaSequence, first: int, last: int) -> str:
    """Letters at positions first..last of the infinite block word: Theta at
    odd positions, the i-th double-edge block Lambda_{omega(ruler(i))} at
    position 2i."""
    return "".join(
        ["T" if p % 2 else str(omega.at(ruler_a(p // 2))) for p in range(first, last + 1)]
    )


def gamma_word(omega: OmegaSequence, letter_count: int) -> str:
    """Prefix of the infinite block word, `letter_count` letters long."""
    return _block_letters(omega, 1, letter_count)


def _level_for(n: int) -> int:
    """Minimal m >= 1 with n <= 2^m."""
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=65536)
def language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """The exact set of admissible words of length n.

    Every length-n window of the infinite block word fits inside
    B * Lambda_s * B where B is the level-(m-1) prefix, n <= 2^m, and s ranges
    over the symbols occurring in omega from position m on; conversely each
    such junction occurs, so scanning those few words is exact for every
    ultimately periodic omega (a long-prefix scan is not, when a symbol first
    recurs late)."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return frozenset({""})
    _require_not_constant(omega)
    m = _level_for(n)
    b = gamma_word(omega, (1 << m) - 1)
    words: set[str] = set()
    for s in sorted(omega.symbols_from(m)):
        w = f"{b}{s}{b}"
        words.update(w[i : i + n] for i in range(len(w) - n + 1))
    return frozenset(words)


def complexity(omega: OmegaSequence, n: int) -> int:
    if n < 1:
        raise ValueError("length must be >= 1")
    return len(language(omega, n))


def is_admissible(word: str, omega: OmegaSequence) -> bool:
    if set(word) - set(ALPHABET):
        raise ValueError(f"letters must be in {ALPHABET!r}, got {word!r}")
    return word in language(omega, len(word))


def extensions(word: str, omega: OmegaSequence, side: str) -> frozenset[str]:
    """Letters that extend an admissible word on the given side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not is_admissible(word, omega):
        raise ValueError(f"word {render_word(word)} is not admissible")
    if side == "left":
        return frozenset(c for c in ALPHABET if is_admissible(c + word, omega))
    return frozenset(c for c in ALPHABET if is_admissible(word + c, omega))


def _covers(omega: OmegaSequence, radius: int, targets: frozenset[str], n: int) -> bool:
    for w in language(omega, radius):
        found = {w[i : i + n] for i in range(radius - n + 1)}
        if not targets <= found:
            return False
    return True


def uniform_recurrence_radius(omega: OmegaSequence, n: int, cap: int = 1 << 22) -> int:
    """Least R such that every admissible word of length R contains every
    admissible word of length n. Doubling search then bisection; finiteness is
    the uniform recurrence of the half-line labelling."""
    if n < 1:
        raise ValueError("length must be >= 1")
    targets = language(omega, n)
    radius = n
    while not _covers(omega, radius, targets, n):
        radius *= 2
        if radius > cap:
            raise RuntimeError(f"recurrence radius for n={n} exceeds cap {cap}")
    lo, hi = radius // 2, radius  # lo failed (or is n-1), hi covers
    lo = max(lo, n - 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _covers(omega, mid, targets, n):
            hi = mid
        else:
            lo = mid
    return hi


def delta_not_eventually_periodic(
    omega: OmegaSequence, max_period: int, horizon: int
) -> bool:
    """Desk-scale aperiodicity evidence: no period up to max_period fits the
    double-edge block sequence on [horizon/2, horizon]."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if horizon < 4 * max_period:
        raise ValueError("horizon must be >= 4 * max_period")
    _require_not_constant(omega)
    start = horizon // 2
    seq = [omega.at(ruler_a(j)) for j in range(start, horizon + 1)]
    for period in range(1, max_period + 1):
        if all(seq[t] == seq[t + period] for t in range(len(seq) - period)):
            return False
    return True


def morse_hedlund_check(omega: OmegaSequence, n: int) -> bool:
    """Aperiodicity witness: complexity strictly above n."""
    return complexity(omega, n) >= n + 1


def interleave(word: str, n: int, z_first: bool) -> str:
    """Length-n doubled word whose marker letters sit at even (z_first) or odd
    positions, with `word` supplying the plain letters in order."""
    out = []
    k = 0
    for i in range(n):
        if (i % 2 == 0) == z_first:
            out.append(MARKER)
        else:
            out.append(word[k])
            k += 1
    return "".join(out)


@lru_cache(maxsize=16384)
def double_language(omega: OmegaSequence, n: int) -> frozenset[str]:
    """Exact factors of the doubled shift: markers interleave an admissible
    word, and both phase classes contribute."""
    if n < 1:
        raise ValueError("length must be >= 1")
    words: set[str] = set()
    for w in language(omega, (n + 1) // 2):
        words.add(interleave(w, n, z_first=False))
    for w in language(omega, n // 2):
        words.add(interleave(w, n, z_first=True))
    return frozenset(words)
