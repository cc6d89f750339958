"""Elements of the topological full group of the subshift, represented as
flat cocycle programs: sequences of primitives with locally constant integer
cocycles, run in the order they act.

Window convention: a radius-r window stores the 2r letters at positions
-r..r-1 around the marked vertex 0, the letter at position i being the block
joining vertices i and i+1. The cocycle n(x) is the signed displacement of
the marked vertex, so the element acts as x -> shift^{n(x)}(x).

Doubled elements (tag B) walk a plain word in doubled coordinates: c = 2i + 1 is
vertex i with its letter at position 0, c = 2i the same vertex with the marker there.

Every walk runs one compiled program (`_walker`): each word factor becomes a
list of the walked word's `_moves` tables, one per letter.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from math import lcm

from .group import GEN_SYMBOL, _check_word, apply_word, find_moved_vertex
from .omega import OmegaSequence
from .schreier import _block_word, gray_rank, ray_at, ruler_a
from .subshift import (
    ALPHABET, _interleaved, _junctions, _level_for, _occurrences, _require_not_constant, _spots,
    _woven, is_admissible, uniform_recurrence_radius,
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
    Each factor is a tuple (kind, radius, bound, *data) with kind one of word
    (whose data holds its generator letters in the order they act), shift,
    tau, sigma, ret and dbl (whose data holds its child element).

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
        letters, center = window.letters, window.radius
        if self.tag == "B":  # its plain letters, c one place on when it starts on a letter
            phase = letters[0] in ALPHABET
            letters, center = letters[1 - phase :: 2], center + phase
        return _walker(self, letters)(letters, center)


def _step(f: tuple, letters: str, center: int) -> int:
    """The cocycle of one compiled factor other than a word at the marked
    vertex `center`; a dbl factor holds its child's walk."""
    kind = f[0]
    if kind == "shift":
        return f[3]
    if kind == "tau":
        return 1 - 2 * (center & 1)
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
    if kind == "dbl":  # copy 1 acts at the odd c, copy 2 at the even ones
        return 2 * f[4](letters, center >> 1) if center & 1 == (f[3] == 1) else 0
    raise AssertionError(f"unknown kind {kind}")


@lru_cache(maxsize=64)
def _moves(j: str) -> dict[str, list[int]]:
    """Where each generator moves each vertex 0..len(j) of the half-line graph
    read off the word j, keyed by generator letter: a crosses the simple-edge
    block T; b, c and d stay on a double-edge block of their loop symbol
    (`GEN_SYMBOL`) and cross any other. The end
    vertices 0 and len(j), which a move would read past, go to the sink
    len(j) + 1, past the end of every list, so the next lookup raises and no
    index is negative. The entries are the objects of one range list, shared."""
    v = list(range(len(j) + 2))
    sink, inner = v[-1], list(zip(v, v[1:], v[2:], j, j[1:]))  # c - 1, c, c + 1, j[c - 1], j[c]
    moves = {"a": [sink, *(n if x == "T" else p for p, _, n, _, x in inner), sink]}
    for g, s in GEN_SYMBOL.items():
        s = str(s)
        moves[g] = [sink, *((c if x == s else n) if x != "T" else (c if y == s else p)
                            for p, c, n, y, x in inner), sink]
    return moves


def _walker(e: FullGroupElement, j: str) -> Callable[[str, int], int]:
    """e's cocycle at any centre of the word j, which raises when the walk
    reads outside j, so it is exact for every window that j extends: e's
    program compiled once for j, each word factor a list of j's `_moves`
    tables walked by one lookup per letter, each dbl child compiled in j, and
    the other factors stepped by `_step` within their radius; tag B in
    doubled coordinates."""
    size = 2 * len(j) + 1 if e.tag == "B" else len(j)
    program = [list(map(_moves(j).__getitem__, f[3])) if f[0] == "word"
               else (*f[:4], _walker(f[4], j)) if f[0] == "dbl" else f
               for f in e.factors]

    def walk(letters: str, center: int) -> int:  # letters is j
        c = center
        for part in program:
            if type(part) is list:
                if c >= 0:  # a negative index would read from the end
                    try:
                        for table in part:
                            c = table[c]
                    except IndexError:  # a lookup at the sink, or past it
                        c = -1
                inside = 0 <= c <= size
            else:
                inside = part[1] <= c <= size - part[1]
                if inside:
                    c += _step(part, letters, c)
            if not inside:
                raise InsufficientWindowError(f"walk from vertex {center} leaves a word of {size} letters")
        if abs(c - center) > e.dbound:
            raise RuntimeError(f"displacement {c - center} exceeds bound {e.dbound} for {e.label}")
        return c - center

    return walk


def _inverse_factor(f: tuple) -> tuple:
    """A word runs its involutive letters backwards; tau and sigma are
    involutions; shift and ret step the other way."""
    if f[0] == "dbl":
        return double_element(inverse(f[4]), f[3]).factors[0]
    if f[0] == "word":
        return f[:-1] + (f[-1][::-1],)
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
    """The image of a generator word: one word factor holding its letters in
    the order they act, rightmost first. n letters from displacement D read
    and move at most D + n, so the factor has radius and bound n. The label is
    the left-nested product ((a b) c). A generator translates toward the side
    whose block carries its edge at the marked vertex, or stays put on a
    loop."""
    _check_word(word)
    _require_not_constant(omega)
    if not word:
        return identity_element(omega)
    # "a) b) c)" less its first ")", behind "((": "((a b) c)"
    label = "(" * (len(word) - 1) + (") ".join(word) + ")").replace(")", "", 1)
    return FullGroupElement(omega, "A", (("word", len(word), len(word), word[::-1]),), label=label)


def element_order_fg(e: FullGroupElement, max_order: int) -> int | None:
    """The least k >= 1 with e^k the identity, or None past max_order: the lcm
    of the return times of all points (displacement 0; there are no periodic
    points). Walks start at each c in r..size - r of the junction words j whose
    windows are the admissible words of length 2r (size len(j), 2 len(j) + 1 for tag B),
    r doubling from 1. Every point carries some j around its marked vertex at
    such a c, and j is admissible, so a walk inside j is exact even past
    [c - r, c + r); one that leaves j raises and r doubles. Reading order is
    free: a return settles every wider window, and a failure stays failed.
    The walks in one j share one `_walker`."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    widest, r, doubled = e.radius + (max_order - 1) * e.dbound, 1, e.tag == "B"
    while True:
        r = min(r, widest)
        order = 1
        try:
            for j in _junctions(e.omega, _level_for(r if doubled else 2 * r)):
                size = 2 * len(j) + 1 if doubled else len(j)
                walk = _walker(e, j)
                for c in range(r, size - r + 1):
                    n, t = walk(j, c), 1
                    while n and t < max_order:
                        n += walk(j, c + n)
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


def _junction_at(omega: OmegaSequence, center: int, radius: int) -> tuple[str, int]:
    """The junction word around the radius-r window of vertex `center`, and
    the vertex's index in it. The window's 2r block-word letters, from
    position first = center - r + 1 on, meet at most one multiple of
    2^m >= 2r; around the least one q from first on the block word reads
    B_m s B_m, s its letter at q, at index len(B_m)."""
    if center < radius:
        raise ValueError("window would leave the half-line")
    m = _level_for(2 * radius)
    q = ((center - radius >> m) + 1) << m
    block = _block_word(omega, m)
    return f"{block}{omega.at(ruler_a(q >> 1))}{block}", center + 1 - q + len(block)


def schreier_window(omega: OmegaSequence, center: int, radius: int) -> Window:
    """The radius-r window of the half-line graph around vertex `center`."""
    junction, c = _junction_at(omega, center, radius)
    return Window(radius, junction[c - radius : c + radius])


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
            junction, c = _junction_at(e.omega, j, r)
            if _walker(e, junction)(junction, c) != 0:
                return Window(r, junction[c - r : c + r])
    return None


def injectivity_witness(word: str, omega: OmegaSequence) -> Window | None:
    """`witness_window` of the embedded word, None for a trivial word."""
    vertex = find_moved_vertex(word, omega)
    if vertex is None:
        return None
    window = witness_window(embed_word(word, omega), vertex)
    if window is None:
        raise RuntimeError(f"no witness found for nontrivial word {word!r}")
    return window


def schreier_consistency(word: str, omega: OmegaSequence, j: int) -> bool:
    """Away from the basepoint, the cocycle at the graph window centered at
    vertex j equals the signed displacement of the j-th orbit point."""
    if j <= len(word):
        raise ValueError("need j > |word| to stay clear of the basepoint")
    e = embed_word(word, omega)
    junction, c = _junction_at(omega, j, e.radius)
    # The ray as a vertex padded with |word| + 1 ones: each letter changes at
    # most one digit, at most one place past the last 0, so none reads the end.
    p = apply_word(word, ray_at(j).prefix + "1" * (len(word) + 1), omega).rstrip("1")
    return _walker(e, junction)(junction, c) == gray_rank(p) - j


def _joint_occurrence(u: str, k: int, omega: OmegaSequence) -> bool:
    """Is there an admissible word carrying u both at offset 0 and offset k?
    Some occurrence of u in the junction words for |u| + k recurs k later."""
    return any(j.startswith(u, i + k) for j, i in _occurrences(u, omega, _level_for(len(u) + k)))


def find_disjoint_cylinder(omega: OmegaSequence, n: int) -> str:
    """A word u whose cylinder [u], the points carrying u from the marked
    vertex on, has its first n shifts pairwise disjoint: the first word of the
    sorted language with no admissible self-overlap at shifts 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    for length in range(1, _CYLINDER_MAX_LEN + 1):
        m = _level_for(length)
        words = _junctions(omega, m)
        for q, i in _spots(omega, m, length):
            u = words[q][i : i + length]
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
    moving the underlying point: doubled coordinate 2i to 2i + 1 and back."""
    return FullGroupElement(omega, "B", (("tau", 1, 1),), label="tau")


def double_element(e: FullGroupElement, copy: int) -> FullGroupElement:
    """Act as `e` through the square of the doubled shift on one phase class,
    identity on the other. Copy 1 is the class whose position-0 letter is
    plain, at doubled coordinates 2i + 1, copy 2 the one at 2i; each moves
    by twice e's cocycle at vertex i."""
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
    bound, and the cocycle table, each admissible window once as `_spots`
    lists it off the distinct digit factors: sorted, or in first-seen order for
    plain windows past 2048 letters, its cocycle walked in the word holding it."""
    yield f"word: {e.label}\nradius: {e.radius}\ndisplacement_bound: {e.dbound}\ntable:\n"
    length, doubled = 2 * e.radius, e.tag == "B"
    m = _level_for(e.radius if doubled else length)
    words = _junctions(e.omega, m)
    spots = (_woven(partial(_spots, e.omega, m), length) if doubled
             else _spots(e.omega, m, length, ordered=length <= 2048))
    walks = [_walker(e, j) for j in words]
    shown = [_interleaved(j) for j in words] if doubled else words
    for q, i in spots:  # the word extends the window, so the cocycle read in it is exact
        yield f"  {shown[q][i : i + length]} -> {walks[q](words[q], i + e.radius):+d}\n"
