"""Elements of the topological full group of the subshift, represented as
flat cocycle programs: sequences of primitives with locally constant integer
cocycles, run in the order they act.

Window convention: a radius-r window stores the 2r letters at positions
-r..r-1 around the marked vertex 0, the letter at position i being the block
joining vertices i and i+1. The cocycle n(x) is the signed displacement of
the marked vertex, so the element acts as x -> shift^{n(x)}(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .group import GEN_SYMBOL, _check_word, apply_generator, find_moved_vertex, is_trivial
from .omega import OmegaSequence
from .schreier import _block_letters, gray_rank, ray_at
from .subshift import (
    MARKER, _require_not_constant, _windows, double_language, is_admissible,
    language, uniform_recurrence_radius,
)

_LABEL_CAP = 120
_CYLINDER_MAX_LEN = 24


class InsufficientWindowError(ValueError):
    """Evaluation outside the supplied window; callers must widen, the
    element never extends a window silently."""


@dataclass(frozen=True)
class Window:
    """Letters at positions -radius..radius-1. Carries no omega, so only the
    shape is validated here; cocycle values are meaningful on windows that are
    admissible for the element's sequence, and every construction site in this
    module produces such windows."""

    radius: int
    letters: str

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")
        if len(self.letters) != 2 * self.radius:
            raise ValueError("window must carry exactly 2*radius letters")


@dataclass(frozen=True)
class Cylinder:
    """The clopen set of points carrying `word` at positions offset..offset+len-1.
    The empty word denotes the whole space."""

    word: str
    offset: int


def iter_windows(omega: OmegaSequence, length: int, tag: str = "A"):
    """All admissible words of the given length, deterministically ordered
    (deduplicated only while small enough to materialize; duplicates are
    harmless to every consumer)."""
    if tag == "B":
        yield from sorted(double_language(omega, length))
    elif length <= 2048:
        yield from sorted(language(omega, length))
    else:
        yield from _windows(omega, length)


class FullGroupElement:
    """A flat cocycle program: primitive factors in the order they act.

    The product's cocycle is the running sum n += f(x + n) over the factors.
    Each factor is a tuple (kind, radius, bound, *data) with kind one of gen,
    shift, tau, sigma, ret and dbl (whose data holds its child element).

    radius: windows of this radius determine the cocycle.
    dbound: the cocycle never exceeds this in absolute value.
    """

    __slots__ = ("omega", "tag", "factors", "radius", "dbound", "label")

    def __init__(self, omega, tag, factors, label="?"):
        self.omega = omega
        self.tag = tag
        self.factors = tuple(factors)
        # factor k reads its own radius around the point the earlier factors
        # moved the marked vertex to, at most their summed bounds away
        radius, dbound = 1, 0
        for _, r, d, *_ in self.factors:
            radius = max(radius, dbound + r)
            dbound += d
        self.radius = radius
        self.dbound = dbound
        self.label = label if len(label) <= _LABEL_CAP else label[: _LABEL_CAP - 3] + "..."

    def __repr__(self) -> str:
        return f"<FullGroupElement {self.label} r={self.radius} d={self.dbound}>"

    def cocycle(self, window: Window) -> int:
        if window.radius < self.radius:
            raise InsufficientWindowError(
                f"need radius {self.radius}, window has {window.radius}"
            )
        return self._eval(window.letters, window.radius)

    def _eval(self, letters: str, center: int) -> int:
        """The cocycle at the marked vertex `center` of `letters`. Raises when
        the walk reads outside them, so the result is exact for every window
        that extends `letters`."""
        n, size = 0, len(letters)
        for f in self.factors:
            c = center + n
            if c < f[1] or c + f[1] > size:
                raise InsufficientWindowError(
                    f"window [{-center}, {size - center}) too small for a radius-{f[1]} "
                    f"factor at displacement {n}"
                )
            n += _step(f, letters, c)
        if abs(n) > self.dbound:
            raise RuntimeError(f"displacement {n} exceeds bound {self.dbound} for {self.label}")
        return n


def _match(letters: str, center: int, u: str, q: int) -> bool:
    return letters[center + q : center + q + len(u)] == u


def _step(f: tuple, letters: str, center: int) -> int:
    """The cocycle of one primitive factor at the marked vertex `center`."""
    kind = f[0]
    if kind == "gen":
        symbol, cur = f[3], letters[center]
        if not symbol:  # a: cross the simple-edge block
            return 1 if cur == "T" else -1
        if cur != "T":
            return 0 if cur == symbol else 1
        return 0 if letters[center - 1] == symbol else -1  # a loop stays put
    if kind == "shift":
        return f[3]
    if kind == "tau":
        return 1 if letters[center] == MARKER else -1
    if kind == "sigma":
        _, _, _, u, ofs, i, j = f
        if _match(letters, center, u, ofs - i):
            return j - i
        if _match(letters, center, u, ofs - j):
            return i - j
        return 0
    if kind == "ret":
        _, _, bound, u, ofs, sign = f
        if not _match(letters, center, u, ofs):
            return 0
        for k in range(1, bound + 1):
            if _match(letters, center, u, ofs + sign * k):
                return sign * k
        raise RuntimeError(
            f"no return of {u!r} within bound {bound}; widen the recurrence bound"
        )
    if kind == "dbl":
        copy, child = f[3], f[4]
        if (letters[center] != MARKER) != (copy == 1):
            return 0
        rc = child.radius
        start = center - 2 * rc + (0 if copy == 1 else 1)
        return 2 * child._eval(letters[start : start + 4 * rc : 2], rc)
    raise AssertionError(f"unknown kind {kind}")


def _gen(letter: str) -> tuple:
    """The generator factor; b, c, d carry the block symbol they loop on."""
    return ("gen", 1, 1, str(GEN_SYMBOL[letter]) if letter != "a" else "")


def _inverse_factor(f: tuple) -> tuple:
    """gen, tau and sigma are involutions; shift and ret step the other way."""
    if f[0] == "dbl":
        return double_element(inverse(f[4]), f[3]).factors[0]
    return f[:-1] + (-f[-1],) if f[0] in ("shift", "ret") else f


def _require_compatible(g: FullGroupElement, h: FullGroupElement) -> None:
    if g.omega != h.omega:
        raise ValueError("elements live over different omega sequences")
    if g.tag != h.tag:
        raise ValueError(f"alphabet mismatch: {g.tag} vs {h.tag}")


def identity_element(omega: OmegaSequence) -> FullGroupElement:
    return FullGroupElement(omega, "A", (), label="e")


def shift_power(k: int, omega: OmegaSequence) -> FullGroupElement:
    return FullGroupElement(omega, "A", (("shift", 1, abs(k), k),), label=f"phi^{k}")


def compose(g: FullGroupElement, h: FullGroupElement) -> FullGroupElement:
    """x -> g(h(x)): h's program, then g's."""
    _require_compatible(g, h)
    return FullGroupElement(
        g.omega, g.tag, h.factors + g.factors, label=f"({g.label} {h.label})"
    )


def inverse(e: FullGroupElement) -> FullGroupElement:
    """The program run backwards, each factor inverted."""
    factors = tuple(_inverse_factor(f) for f in reversed(e.factors))
    return FullGroupElement(e.omega, e.tag, factors, label=f"{e.label}^-1")


def is_identity(e: FullGroupElement) -> bool:
    """The cocycle vanishes on every admissible window, which characterizes
    the identity because the subshift has no periodic points: the order is 1."""
    return element_order_fg(e, 1) == 1


def elements_equal(g: FullGroupElement, h: FullGroupElement) -> bool:
    """g = h exactly when h^-1 g is the identity."""
    return is_identity(compose(inverse(h), g))


def embed_word(word: str, omega: OmegaSequence) -> FullGroupElement:
    """The image of a generator word, rightmost letter acting first. The label
    is the left-nested product ((a b) c). A generator translates toward the
    side whose block carries its edge at the marked vertex, or stays put on a
    loop."""
    _check_word(word)
    _require_not_constant(omega)
    if not word:
        return identity_element(omega)
    factors = tuple(_gen(ch) for ch in reversed(word))
    label = "(" * (len(word) - 1) + word[0] + "".join(f" {ch})" for ch in word[1:])
    return FullGroupElement(omega, "A", factors, label=label)


def element_order_fg(e: FullGroupElement, max_order: int) -> int | None:
    """The least k >= 1 with e^k the identity, or None when it exceeds
    max_order: the lcm of the marked vertex's return times (displacement 0,
    as the subshift has no periodic points) over all admissible windows.
    Windows are read narrow first; a walk that stays inside its window settles
    every wider window around it, and one that leaves asks for wider windows."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    widest, r = e.radius + (max_order - 1) * e.dbound, 1
    while True:
        r = min(r, widest)
        order = 1
        try:
            for w in iter_windows(e.omega, 2 * r, e.tag):
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
            if r == widest:  # a walk of max_order steps never leaves these
                raise
            r *= 2


def schreier_window(omega: OmegaSequence, center: int, radius: int) -> Window:
    """The radius-r window of the half-line graph around vertex `center`."""
    if center < radius:
        raise ValueError("window would leave the half-line")
    return Window(radius, _block_letters(omega, center - radius + 1, center + radius))


def injectivity_witness(word: str, omega: OmegaSequence) -> Window | None:
    """An admissible window where the embedded word's cocycle is nonzero,
    found exactly as in the injectivity argument: push a moved tree vertex out
    to an orbit point farther than |word| from the basepoint and read off the
    window around it."""
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


def schreier_consistency(word: str, omega: OmegaSequence, j: int) -> bool:
    """Away from the basepoint, the cocycle at the graph window centered at
    vertex j equals the signed displacement of the j-th orbit point."""
    if j <= len(word):
        raise ValueError("need j > |word| to stay clear of the basepoint")
    e = embed_word(word, omega)
    window = schreier_window(omega, j, e.radius)
    p = ray_at(j).prefix
    for g in reversed(word):
        # A ray acts as the vertex p + "1" for one step only: pad each image again.
        p = apply_generator(g, p + "1", omega).rstrip("1")
    return e.cocycle(window) == gray_rank(p) - j


def _joint_occurrence(u: str, k: int, omega: OmegaSequence) -> bool:
    """Is there an admissible word carrying u both at offset 0 and offset k?"""
    return any(
        w.startswith(u) and w[k : k + len(u)] == u
        for w in language(omega, len(u) + k)
    )


def find_disjoint_cylinder(omega: OmegaSequence, n: int) -> Cylinder:
    """A cylinder whose first n shifts are pairwise disjoint, by scanning the
    language for a word with no admissible self-overlap at shifts 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    for length in range(1, _CYLINDER_MAX_LEN + 1):
        for u in sorted(language(omega, length)):
            if all(not _joint_occurrence(u, k, omega) for k in range(1, n)):
                return Cylinder(u, 0)
    raise RuntimeError(f"no disjoint cylinder for n={n} up to word length {_CYLINDER_MAX_LEN}")


def _check_cylinder(cyl: Cylinder, omega: OmegaSequence) -> None:
    if cyl.word and not is_admissible(cyl.word, omega):
        raise ValueError(f"cylinder word {cyl.word!r} is not admissible")


def swap_involution(cyl: Cylinder, i: int, j: int, omega: OmegaSequence) -> FullGroupElement:
    """The involution exchanging shift^i(U) and shift^j(U), identity elsewhere.
    Requires those two sets to be disjoint."""
    if not 0 <= i < j:
        raise ValueError("need 0 <= i < j")
    _check_cylinder(cyl, omega)
    if not cyl.word:
        raise ValueError("the full space gives no disjoint shifts")
    if _joint_occurrence(cyl.word, j - i, omega):
        raise ValueError(f"shifts {i} and {j} of the cylinder intersect")
    u, ofs = cyl.word, cyl.offset
    factor = ("sigma", max(1, j - ofs, ofs - i + len(u)), j - i, u, ofs, i, j)
    return FullGroupElement(omega, "A", (factor,), label=f"sigma[{i},{j};{u}@{ofs}]")


def first_return_element(cyl: Cylinder, omega: OmegaSequence) -> FullGroupElement:
    """First-return map of the cylinder, extended by the identity outside it.
    Return times are bounded through the uniform recurrence radius; exceeding
    the bound raises instead of truncating."""
    _check_cylinder(cyl, omega)
    u, ofs = cyl.word, cyl.offset
    if not u:
        bound = 1  # every point of the full space returns immediately
    else:
        bound = uniform_recurrence_radius(omega, len(u)) - len(u) + 1
    factor = ("ret", max(1, abs(ofs) + len(u) + bound), bound, u, ofs, 1)
    return FullGroupElement(omega, "A", (factor,), label=f"ret[{u}@{ofs}]")


def tau(omega: OmegaSequence) -> FullGroupElement:
    """The doubled-shift involution exchanging the two phase classes without
    moving the underlying point: step forward off a marker, backward onto one."""
    return FullGroupElement(omega, "B", (("tau", 1, 1),), label="tau")


def double_element(e: FullGroupElement, copy: int) -> FullGroupElement:
    """Act as `e` through the square of the doubled shift on one phase class,
    identity on the other. Copy 1 is the class whose position-0 letter is
    plain; its point is read off the even positions, copy 2 off the odd ones
    to the right."""
    if copy not in (1, 2):
        raise ValueError("copy must be 1 or 2")
    if e.tag != "A":
        raise ValueError("only plain-alphabet elements can be doubled")
    factor = ("dbl", 2 * e.radius, 2 * e.dbound, copy, e)
    return FullGroupElement(e.omega, "B", (factor,), label=f"dbl{copy}({e.label})")


def commutator_identity_check(word: str, omega: OmegaSequence) -> bool:
    """For an involution g, the diagonal image in the doubled system equals
    g1 tau g1 tau, exhibiting it as a commutator."""
    g = embed_word(word, omega)
    if is_identity(g) or not is_identity(compose(g, g)):
        raise ValueError(f"word {word!r} is not an involution in the full group")
    g1 = double_element(g, 1)
    t = tau(omega)
    rhs = compose(g1, compose(t, compose(g1, t)))
    return elements_equal(compose(g1, double_element(g, 2)), rhs)


def dump_element(e: FullGroupElement) -> str:
    """Debug dump: formal word, radius, displacement bound, and the complete
    cocycle table in deterministic window order."""
    lines = [
        f"word: {e.label}",
        f"radius: {e.radius}",
        f"displacement_bound: {e.dbound}",
        "table:",
    ]
    seen = set()
    for w in iter_windows(e.omega, 2 * e.radius, e.tag):
        if w not in seen:
            seen.add(w)
            lines.append(f"  {w} -> {e._eval(w, e.radius):+d}")
    return "\n".join(lines) + "\n"
