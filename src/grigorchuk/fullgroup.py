"""Elements of the topological full group of the subshift, represented as
flat cocycle programs: sequences of primitives with locally constant integer
cocycles, run in the order they act.

Window convention: a radius-r window stores the 2r letters at positions
-r..r-1 around the marked vertex 0, the letter at position i being the block
joining vertices i and i+1. The cocycle n(x) is the signed displacement of
the marked vertex, so the element acts as x -> shift^{n(x)}(x).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import lcm

from .group import GEN_SYMBOL, _check_word, apply_word, find_moved_vertex, is_trivial
from .omega import OmegaSequence
from .schreier import _block_word, gray_rank, ray_at, ruler_a
from .subshift import (
    MARKER, _doubled_junctions, _junctions, _level_for, _require_not_constant, _windows,
    double_language, is_admissible, language, uniform_recurrence_radius,
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


class FullGroupElement:
    """A flat cocycle program: primitive factors in the order they act.

    The product's cocycle is the running sum n += f(x + n) over the factors.
    Each factor is a tuple (kind, radius, bound, *data) with kind one of gen,
    shift, tau, sigma, ret and dbl (whose data holds its child element).

    radius: windows of this radius determine the cocycle.
    dbound: the cocycle never exceeds this in absolute value.
    """

    __slots__ = ("omega", "tag", "factors", "radius", "dbound", "label")

    def __init__(self, omega, tag, factors, label):
        self.omega = omega
        self.tag = tag
        self.factors = tuple(factors)
        # factor k reads its own radius around the point the earlier factors
        # moved the marked vertex to, at most their summed bounds away
        radius, dbound = 1, 0
        for f in self.factors:
            radius = max(radius, dbound + f[1])
            dbound += f[2]
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
            if f[0] != "gen":
                n += _step(f, letters, c)
            elif not f[3]:  # a: cross the simple-edge block
                n += 1 if letters[c] == "T" else -1
            elif letters[c] != "T":  # b, c, d: stay on their loop, else cross
                n += letters[c] != f[3]
            elif letters[c - 1] != f[3]:  # a loop on the left stays put
                n -= 1
        if abs(n) > self.dbound:
            raise RuntimeError(f"displacement {n} exceeds bound {self.dbound} for {self.label}")
        return n


def _step(f: tuple, letters: str, center: int) -> int:
    """The cocycle of one non-generator factor at the marked vertex `center`."""
    kind = f[0]
    if kind == "shift":
        return f[3]
    if kind == "tau":
        return 1 if letters[center] == MARKER else -1
    if kind == "sigma":
        _, _, _, u, i, j = f
        if letters.startswith(u, center - i):
            return j - i
        if letters.startswith(u, center - j):
            return i - j
        return 0
    if kind == "ret":
        _, _, bound, u, sign = f
        if not letters.startswith(u, center):
            return 0
        for k in range(1, bound + 1):
            if letters.startswith(u, center + sign * k):
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


_GEN = {ch: _gen(ch) for ch in "abcd"}


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
    factors = map(_GEN.__getitem__, reversed(word))
    # "a) b) c)" less its first ")", behind "((": "((a b) c)"
    label = "(" * (len(word) - 1) + (") ".join(word) + ")").replace(")", "", 1)
    return FullGroupElement(omega, "A", factors, label=label)


def element_order_fg(e: FullGroupElement, max_order: int) -> int | None:
    """The least k >= 1 with e^k the identity, or None past max_order: the lcm
    of the return times of all points (displacement 0; there are no periodic
    points). Walks start at each c in r..len(j) - r of the junction words j
    whose windows are the admissible words of length 2r (doubled for tag B),
    r doubling from 1. Every point carries some j around its marked vertex at
    such a c, and j is admissible, so a walk inside j is exact even past
    [c - r, c + r); one that leaves j raises and r doubles. Reading order is
    free: a return settles every wider window, and a failure stays failed."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    widest, r = e.radius + (max_order - 1) * e.dbound, 1
    while True:
        r = min(r, widest)
        words = (_doubled_junctions(e.omega, _level_for(r)) if e.tag == "B"
                 else _junctions(e.omega, _level_for(2 * r)))
        order = 1
        try:
            for j in words:
                for c in range(r, len(j) - r + 1):
                    n, t = e._eval(j, c), 1
                    while n and t < max_order:
                        n += e._eval(j, c + n)
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
    """The radius-r window of the half-line graph around vertex `center`: the
    block-word letters from position first = center - r + 1 on. Those 2r
    positions meet at most one multiple of 2^m >= 2r; around the least one q
    from first on the block word reads B_m s B_m, s its letter at q."""
    if center < radius:
        raise ValueError("window would leave the half-line")
    first, m = center - radius + 1, _level_for(2 * radius)
    q = ((first - 1 >> m) + 1) << m
    block = _block_word(omega, m)
    junction = f"{block}{omega.at(ruler_a(q >> 1))}{block}"  # q at index len(block)
    start = first - q + len(block)
    return Window(radius, junction[start : start + 2 * radius])


def witness_window(e: FullGroupElement, vertex: str) -> Window | None:
    """An admissible window where e's cocycle is nonzero, found as in the
    injectivity argument: push a tree vertex v that e moves out to the orbit
    points v 1^(t-1) 0, and read off the window around the first one ranked
    past reach = max(dbound, radius), |word| for an embedded word, where the
    cocycle is nonzero; None if 64 pushes find none. An L-digit prefix ranks
    below 2^L, so the pushes start at the first L with 2^L - 1 > reach."""
    r = e.radius
    reach = max(e.dbound, r)
    for t in range(max(0, (reach + 1).bit_length() - len(vertex)), 64):
        j = gray_rank(vertex if t == 0 else vertex + "1" * (t - 1) + "0")
        if j > reach:
            window = schreier_window(e.omega, j, r)
            if e.cocycle(window) != 0:
                return window
    return None


def injectivity_witness(word: str, omega: OmegaSequence) -> Window | None:
    """`witness_window` of the embedded word, None for a trivial word."""
    if is_trivial(word, omega):
        return None
    window = witness_window(embed_word(word, omega), find_moved_vertex(word, omega))
    if window is None:
        raise RuntimeError(f"no witness found for nontrivial word {word!r}")
    return window


def schreier_consistency(word: str, omega: OmegaSequence, j: int) -> bool:
    """Away from the basepoint, the cocycle at the graph window centered at
    vertex j equals the signed displacement of the j-th orbit point."""
    if j <= len(word):
        raise ValueError("need j > |word| to stay clear of the basepoint")
    e = embed_word(word, omega)
    window = schreier_window(omega, j, e.radius)
    # The ray as a vertex padded with |word| + 1 ones: each letter changes at
    # most one digit, at most one place past the last 0, so none reads the end.
    p = apply_word(word, ray_at(j).prefix + "1" * (len(word) + 1), omega).rstrip("1")
    return e.cocycle(window) == gray_rank(p) - j


def _joint_occurrence(u: str, k: int, omega: OmegaSequence) -> bool:
    """Is there an admissible word carrying u both at offset 0 and offset k?
    Some occurrence of u in the junction words for |u| + k recurs k later."""
    for j in _junctions(omega, _level_for(len(u) + k)):
        i = j.find(u)
        while i >= 0:
            if j.startswith(u, i + k):
                return True
            i = j.find(u, i + 1)
    return False


def find_disjoint_cylinder(omega: OmegaSequence, n: int) -> str:
    """A word u whose cylinder [u], the points carrying u from the marked
    vertex on, has its first n shifts pairwise disjoint: the first word of the
    sorted language with no admissible self-overlap at shifts 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    for length in range(1, _CYLINDER_MAX_LEN + 1):
        for u in sorted(language(omega, length)):
            if all(not _joint_occurrence(u, k, omega) for k in range(1, n)):
                return u
    raise RuntimeError(f"no disjoint cylinder for n={n} up to word length {_CYLINDER_MAX_LEN}")


def _check_cylinder(u: str, omega: OmegaSequence) -> None:
    if u and not is_admissible(u, omega):
        raise ValueError(f"cylinder word {u!r} is not admissible")


def swap_involution(u: str, i: int, j: int, omega: OmegaSequence) -> FullGroupElement:
    """The involution exchanging shift^i[u] and shift^j[u], identity elsewhere.
    Requires those two sets to be disjoint. Over a shifted cylinder, the
    element is the conjugate by `shift_power`."""
    if not 0 <= i < j:
        raise ValueError("need 0 <= i < j")
    _check_cylinder(u, omega)
    if not u:
        raise ValueError("the full space gives no disjoint shifts")
    if _joint_occurrence(u, j - i, omega):
        raise ValueError(f"shifts {i} and {j} of the cylinder intersect")
    factor = ("sigma", max(1, j, len(u) - i), j - i, u, i, j)
    return FullGroupElement(omega, "A", (factor,), label=f"sigma[{i},{j};{u}]")


def first_return_element(u: str, omega: OmegaSequence) -> FullGroupElement:
    """First-return map of the cylinder [u] (the empty word: the whole space),
    extended by the identity outside it. Return times are bounded through the
    uniform recurrence radius; exceeding the bound raises instead of truncating."""
    _check_cylinder(u, omega)
    if not u:
        bound = 1  # every point of the full space returns immediately
    else:
        bound = uniform_recurrence_radius(omega, len(u)) - len(u) + 1
    factor = ("ret", max(1, len(u) + bound), bound, u, 1)
    return FullGroupElement(omega, "A", (factor,), label=f"ret[{u}]")


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


def dump_element(e: FullGroupElement) -> Iterator[str]:
    """Debug dump as a stream of text: formal word, radius, displacement
    bound, and the complete cocycle table in deterministic window order: a
    sorted set while small enough to materialize, else first-seen order."""
    yield f"word: {e.label}\nradius: {e.radius}\ndisplacement_bound: {e.dbound}\ntable:\n"
    length = 2 * e.radius
    if e.tag == "B" or length <= 2048:
        windows = sorted((double_language if e.tag == "B" else language)(e.omega, length))
    else:  # junction by junction, each window once in first-seen order
        windows = dict.fromkeys(_windows(_junctions(e.omega, _level_for(length)), length))
    for w in windows:
        yield f"  {w} -> {e._eval(w, e.radius):+d}\n"
