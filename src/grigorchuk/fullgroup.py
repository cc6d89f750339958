"""Elements of the topological full group of the subshift, represented as
formal words of primitives with locally constant integer cocycles.

Window convention: a radius-r window stores the 2r letters at positions
-r..r-1 around the marked vertex 0, the letter at position i being the block
joining vertices i and i+1. The cocycle n(x) is the signed displacement of
the marked vertex, so the element acts as x -> shift^{n(x)}(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .group import GEN_SYMBOL, Ray, apply_word, find_moved_vertex, is_trivial
from .omega import EventuallyConstantOmegaError, OmegaSequence
from .schreier import gray_index, ray_at
from .subshift import MARKER, _block_letters, gamma_word, interleave, language

_LABEL_CAP = 120


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
        for w in sorted(language(omega, (length + 1) // 2)):
            yield interleave(w, length, z_first=False)
        for w in sorted(language(omega, length // 2)):
            yield interleave(w, length, z_first=True)
        return
    if length <= 2048:
        yield from sorted(language(omega, length))
        return
    m = max(1, (length - 1).bit_length())
    b = gamma_word(omega, (1 << m) - 1)
    for s in sorted(omega.symbols_from(m)):
        w = f"{b}{s}{b}"
        for i in range(len(w) - length + 1):
            yield w[i : i + length]


class FullGroupElement:
    """Formal expression over the primitive set with a memoized cocycle table.

    radius: windows of this radius determine the cocycle.
    dbound: the cocycle never exceeds this in absolute value.

    The table fills lazily; entries are pure functions of the window, so
    concurrent fills can only ever insert identical values.
    """

    __slots__ = ("omega", "tag", "radius", "dbound", "kind", "data", "children", "label", "_memo")

    def __init__(self, omega, tag, radius, dbound, kind, data=(), children=(), label="?"):
        self.omega = omega
        self.tag = tag
        self.radius = radius
        self.dbound = dbound
        self.kind = kind
        self.data = data
        self.children = children
        self.label = label if len(label) <= _LABEL_CAP else label[: _LABEL_CAP - 3] + "..."
        self._memo: dict[str, int] = {}

    def __repr__(self) -> str:
        return f"<FullGroupElement {self.label} r={self.radius} d={self.dbound}>"

    def cocycle(self, window: Window) -> int:
        if window.radius < self.radius:
            raise InsufficientWindowError(
                f"need radius {self.radius}, window has {window.radius}"
            )
        return self._eval(window.letters, window.radius)

    def _eval(self, letters: str, center: int) -> int:
        if center - self.radius < 0 or center + self.radius > len(letters):
            raise InsufficientWindowError(
                f"window [{-center}, {len(letters) - center}) too small for radius "
                f"{self.radius} at the shifted position"
            )
        key = letters[center - self.radius : center + self.radius]
        memo = self._memo
        if key in memo:
            return memo[key]
        n = self._compute(key, self.radius)
        if abs(n) > self.dbound:
            raise RuntimeError(f"displacement {n} exceeds bound {self.dbound} for {self.label}")
        memo[key] = n
        return n

    def _compute(self, letters: str, center: int) -> int:
        kind = self.kind
        if kind == "mul":
            g, h = self.children
            nh = h._eval(letters, center)
            return nh + g._eval(letters, center + nh)
        if kind == "gen":
            f = self.data[0]
            prev, cur = letters[center - 1], letters[center]
            if f == "a":
                return 1 if cur == "T" else -1
            lam, on_right = (cur, True) if cur != "T" else (prev, False)
            if GEN_SYMBOL[f] == int(lam):
                return 0  # f is the loop label of the adjacent double-edge block
            return 1 if on_right else -1
        if kind == "id":
            return 0
        if kind == "shift":
            return self.data[0]
        if kind == "tau":
            return 1 if letters[center] == MARKER else -1
        if kind == "sigma":
            u, ofs, i, j = self.data
            if self._match(letters, center, u, ofs - i):
                return j - i
            if self._match(letters, center, u, ofs - j):
                return i - j
            return 0
        if kind == "ret":
            u, ofs, bound, sign = self.data
            if not self._match(letters, center, u, ofs):
                return 0
            for k in range(1, bound + 1):
                if self._match(letters, center, u, ofs + sign * k):
                    return sign * k
            raise RuntimeError(
                f"no return of {u!r} within bound {bound}; widen the recurrence bound"
            )
        if kind == "dbl":
            (child,) = self.children
            copy = self.data[0]
            in_copy = (letters[center] != MARKER) == (copy == 1)
            if not in_copy:
                return 0
            rc = child.radius
            start = center - 2 * rc + (0 if copy == 1 else 1)
            sub = letters[start : start + 4 * rc : 2]
            return 2 * child._eval(sub, rc)
        raise AssertionError(f"unknown kind {kind}")

    @staticmethod
    def _match(letters: str, center: int, u: str, q: int) -> bool:
        return letters[center + q : center + q + len(u)] == u


def _require_compatible(g: FullGroupElement, h: FullGroupElement) -> None:
    if g.omega != h.omega:
        raise ValueError("elements live over different omega sequences")
    if g.tag != h.tag:
        raise ValueError(f"alphabet mismatch: {g.tag} vs {h.tag}")


def identity_element(omega: OmegaSequence, tag: str = "A") -> FullGroupElement:
    return FullGroupElement(omega, tag, 1, 0, "id", label="e")


def generator_element(letter: str, omega: OmegaSequence) -> FullGroupElement:
    """The image of a generator: translate toward the side whose block carries
    the letter's edge at the marked vertex, or stay put on a loop."""
    if letter not in "abcd":
        raise ValueError(f"unknown generator {letter!r}")
    if omega.is_eventually_constant():
        raise EventuallyConstantOmegaError(
            "the subshift embedding requires omega not eventually constant"
        )
    return FullGroupElement(omega, "A", 1, 1, "gen", (letter,), label=letter)


def shift_power(k: int, omega: OmegaSequence, tag: str = "A") -> FullGroupElement:
    return FullGroupElement(omega, tag, 1, abs(k), "shift", (k,), label=f"phi^{k}")


def compose(g: FullGroupElement, h: FullGroupElement) -> FullGroupElement:
    """x -> g(h(x)); the radius is conservative so every inner lookup stays
    inside the outer window."""
    _require_compatible(g, h)
    radius = max(h.radius, g.radius + h.dbound)
    return FullGroupElement(
        g.omega, g.tag, radius, g.dbound + h.dbound, "mul",
        children=(g, h), label=f"({g.label} {h.label})",
    )


def inverse(e: FullGroupElement) -> FullGroupElement:
    if e.kind in ("id", "gen", "tau", "sigma"):
        return e
    if e.kind == "shift":
        return shift_power(-e.data[0], e.omega, e.tag)
    if e.kind == "ret":
        u, ofs, bound, sign = e.data
        inv = FullGroupElement(
            e.omega, e.tag, e.radius, e.dbound, "ret", (u, ofs, bound, -sign),
            label=f"ret^{-sign}[{u}@{ofs}]",
        )
        return inv
    if e.kind == "dbl":
        return double_element(inverse(e.children[0]), e.data[0], e.omega)
    if e.kind == "mul":
        g, h = e.children
        return compose(inverse(h), inverse(g))
    raise AssertionError(f"unknown kind {e.kind}")


def is_identity(e: FullGroupElement, omega: OmegaSequence | None = None) -> bool:
    """The cocycle vanishes on every admissible window of the element's radius;
    this characterizes the identity because the subshift has no periodic
    points."""
    if omega is not None and omega != e.omega:
        raise ValueError("omega mismatch")
    r = e.radius
    return all(e._eval(w, r) == 0 for w in iter_windows(e.omega, 2 * r, e.tag))


def elements_equal(g: FullGroupElement, h: FullGroupElement) -> bool:
    """Cocycles agree on all admissible windows of the larger radius, which by
    aperiodicity is exact equality of the underlying homeomorphisms."""
    _require_compatible(g, h)
    r = max(g.radius, h.radius)
    return all(
        g._eval(w, r) == h._eval(w, r) for w in iter_windows(g.omega, 2 * r, g.tag)
    )


def embed_word(word: str, omega: OmegaSequence) -> FullGroupElement:
    """The image of a generator word, rightmost letter acting first."""
    if omega.is_eventually_constant():
        raise EventuallyConstantOmegaError(
            "the subshift embedding requires omega not eventually constant"
        )
    if not word:
        return identity_element(omega)
    return reduce(compose, (generator_element(ch, omega) for ch in word))


def element_order_fg(e: FullGroupElement, max_order: int) -> int | None:
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    acc = e
    for k in range(1, max_order + 1):
        if is_identity(acc):
            return k
        acc = compose(acc, e)
    return None


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
        j = gray_index(Ray(prefix))
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
    ray = ray_at(j)
    displacement = gray_index(apply_word(word, ray, omega)) - j
    return e.cocycle(window) == displacement


def _joint_occurrence(u: str, k: int, omega: OmegaSequence) -> bool:
    """Is there an admissible word carrying u both at offset 0 and offset k?"""
    return any(
        w.startswith(u) and w[k : k + len(u)] == u
        for w in language(omega, len(u) + k)
    )


def find_disjoint_cylinder(omega: OmegaSequence, n: int, max_len: int = 24) -> Cylinder:
    """A cylinder whose first n shifts are pairwise disjoint, by scanning the
    language for a word with no admissible self-overlap at shifts 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    for length in range(1, max_len + 1):
        for u in sorted(language(omega, length)):
            if all(not _joint_occurrence(u, k, omega) for k in range(1, n)):
                return Cylinder(u, 0)
    raise RuntimeError(f"no disjoint cylinder for n={n} up to word length {max_len}")


def _check_cylinder(cyl: Cylinder, omega: OmegaSequence) -> None:
    if cyl.word and cyl.word not in language(omega, len(cyl.word)):
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
    radius = max(1, j - ofs, ofs - i + len(u))
    return FullGroupElement(
        omega, "A", radius, j - i, "sigma", (u, ofs, i, j),
        label=f"sigma[{i},{j};{u}@{ofs}]",
    )


def first_return_element(cyl: Cylinder, omega: OmegaSequence) -> FullGroupElement:
    """First-return map of the cylinder, extended by the identity outside it.
    Return times are bounded through the uniform recurrence radius; exceeding
    the bound raises instead of truncating."""
    from .subshift import uniform_recurrence_radius

    _check_cylinder(cyl, omega)
    u, ofs = cyl.word, cyl.offset
    if not u:
        bound = 1  # every point of the full space returns immediately
    else:
        bound = uniform_recurrence_radius(omega, len(u)) - len(u) + 1
    radius = max(1, abs(ofs) + len(u) + bound)
    return FullGroupElement(
        omega, "A", radius, bound, "ret", (u, ofs, bound, 1),
        label=f"ret[{u}@{ofs}]",
    )


def tau(omega: OmegaSequence) -> FullGroupElement:
    """The doubled-shift involution exchanging the two phase classes without
    moving the underlying point: step forward off a marker, backward onto one."""
    return FullGroupElement(omega, "B", 1, 1, "tau", label="tau")


def double_element(e: FullGroupElement, copy: int, omega: OmegaSequence | None = None) -> FullGroupElement:
    """Act as `e` through the square of the doubled shift on one phase class,
    identity on the other. Copy 1 is the class whose position-0 letter is
    plain; its point is read off the even positions, copy 2 off the odd ones
    to the right."""
    if copy not in (1, 2):
        raise ValueError("copy must be 1 or 2")
    if e.tag != "A":
        raise ValueError("only plain-alphabet elements can be doubled")
    if omega is not None and omega != e.omega:
        raise ValueError("omega mismatch")
    return FullGroupElement(
        e.omega, "B", 2 * e.radius, 2 * e.dbound, "dbl", (copy,),
        children=(e,), label=f"dbl{copy}({e.label})",
    )


def diagonal_element(e: FullGroupElement) -> FullGroupElement:
    return compose(double_element(e, 1), double_element(e, 2))


def commutator_identity_check(word: str, omega: OmegaSequence) -> bool:
    """For an involution g, the diagonal image in the doubled system equals
    g1 tau g1 tau, exhibiting it as a commutator."""
    g = embed_word(word, omega)
    if is_identity(g) or not is_identity(compose(g, g)):
        raise ValueError(f"word {word!r} is not an involution in the full group")
    g1 = double_element(g, 1)
    t = tau(omega)
    rhs = compose(g1, compose(t, compose(g1, t)))
    return elements_equal(diagonal_element(g), rhs)


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
