"""Schreier graphs of the rho-orbit, built two independent ways, plus the
positional Gray order (rank and unrank) that orders the orbit by distance
from rho."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap, zip_longest
from operator import eq
from typing import NamedTuple

from .group import SYMBOL_GEN, apply_generator
from .omega import OmegaSequence

Edge = tuple[int, int, str]


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Undirected edge-labeled multigraph with vertices 0..n-1 numbered left to
    right along the half-line. `edges` is re-iterable in canonical sorted
    order: a tuple for a graph made from its edges, or produced letter by
    letter from the block word for a graph read off its word. Equality is
    exact equality of n and of the whole edge sequence, whichever way either
    side stores its edges."""

    n: int
    edges: Iterable[Edge]

    @staticmethod
    def make(n: int, edges) -> "LabeledGraph":
        canon = tuple(sorted((min(u, v), max(u, v), lab) for u, v, lab in edges))
        return LabeledGraph(n, canon)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        # zip_longest pads the shorter sequence with None, which equals no edge.
        return self.n == other.n and all(starmap(eq, zip_longest(self.edges, other.edges)))


_SWAP01 = str.maketrans("01", "10")
_DROP01 = str.maketrans("", "", "01")


def gray_rank(bits: str) -> int:
    """Position of a binary string within the Gray order of its own length.

    The order is the reflected Gray code with 0 and 1 exchanged, bit i of the
    code being digit i of the string, so the rank is the Gray decode (the
    prefix XOR of the higher bits) of the digits read in reverse, exchanged.
    Appending digits 1 does not change the rank, so the rank of a canonical
    ray prefix is the ray's index in the orbit ("" for rho has index 0)."""
    if bits.translate(_DROP01):  # int() would also accept "_" and whitespace
        raise ValueError(f"need a binary string, got {bits!r}")
    rank = int(bits[::-1].translate(_SWAP01) or "0", 2)
    shift, width = 1, rank.bit_length()
    while shift < width:
        rank ^= rank >> shift
        shift <<= 1
    return rank


class _OrbitPoint(NamedTuple):
    """An orbit point as its canonical prefix, kept only because the benchmark
    reads `ray_at(j).prefix`; once it reads the string, `ray_at` returns the
    bare prefix and this record goes."""

    prefix: str


def ray_at(index: int) -> _OrbitPoint:
    """The orbit point with the given Gray index, the inverse of `gray_rank`:
    the Gray code index ^ (index >> 1), read lowest bit first with 0 and 1
    exchanged. That reading ends in 0 for every index but 0, which reads "1";
    stripping trailing 1s turns it into rho's empty prefix."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _OrbitPoint(format(index ^ (index >> 1), "b")[::-1].translate(_SWAP01).rstrip("1"))


def ruler_a(i: int) -> int:
    """The ruler sequence 1,2,1,3,1,2,1,4,...: one plus the 2-adic valuation
    of i."""
    if i < 1:
        raise ValueError("index must be >= 1")
    return (i & -i).bit_length()


def _block_letters(omega: OmegaSequence, first: int, last: int) -> str:
    """Letters at positions first..last of the infinite block word: Theta at
    odd positions, the i-th double-edge block Lambda_{omega(ruler(i))} at
    position 2i."""
    return "".join(
        ["T" if p % 2 else str(omega.at(ruler_a(p // 2))) for p in range(first, last + 1)]
    )


def _block_word(omega: OmegaSequence, m: int) -> str:
    """B_m, the first 2^m - 1 letters of the block word, by the recursion
    B_1 = T, B_(k+1) = B_k omega(k) B_k (B_0 is empty)."""
    word = "T" if m > 0 else ""
    for k in range(1, m):
        word = f"{word}{omega.at(k)}{word}"
    return word


# Symbol s -> (loop label, the two labels of the double edge), sorted.
_LAMBDA = {str(s): (g, *sorted(set("bcd") - {g})) for s, g in SYMBOL_GEN.items()}


@dataclass(frozen=True)
class _WordEdges:
    """The edges of the half-line graph whose labels spell `word`, produced on
    demand, letter u joining vertices u and u + 1: `T` is the a-edge Theta, a
    symbol s the double-edge block Lambda_s with a loop labelled SYMBOL_GEN[s]
    at both ends. When `T` alternates with symbols, as in every block word,
    the edges come out canonically sorted."""

    word: str

    def __iter__(self) -> Iterator[Edge]:
        for u, letter in enumerate(self.word):
            if letter == "T":
                yield (u, u + 1, "a")
            else:
                loop, x, y = _LAMBDA[letter]
                yield (u, u, loop)
                yield (u, u + 1, x)
                yield (u, u + 1, y)
                yield (u + 1, u + 1, loop)


def _word_graph(word: str) -> LabeledGraph:
    """The half-line graph whose labels spell `word`; it keeps only the word."""
    return LabeledGraph(len(word) + 1, _WordEdges(word))


@lru_cache(maxsize=1)
def build_gamma_recursive(omega: OmegaSequence, n: int) -> LabeledGraph:
    """Level-n approximation Gamma_n = Gamma_(n-1) Lambda_omega(n) Gamma_(n-1),
    read off its block word B_(n+1). The result has exactly 2^(n+1) vertices."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return _word_graph(_block_word(omega, n + 1))


def build_gamma_orbit(omega: OmegaSequence, vertex_count: int, with_xi: bool) -> LabeledGraph:
    """Direct orbit computation: vertices are the first rays in Gray order,
    one edge (gamma, s gamma) per generator, with edges leaving the vertex
    range dropped. The three loops at rho are kept only when with_xi."""
    if vertex_count < 2:
        raise ValueError("vertex_count must be >= 2")
    edges: list[Edge] = []
    for i in range(vertex_count):
        # The ray as a vertex: exact for a single generator step.
        v = ray_at(i).prefix + "1"
        images = [(g, apply_generator(g, v, omega)) for g in "abcd"]
        # A loop belongs to the double-edge block joining the vertex to its
        # partner, the image under the b/c/d generators that move it; when the
        # partner is out of range the whole block is cut, loop included.
        partner = next((image for _, image in images[1:] if image != v), None)
        j_partner = None if partner is None else gray_rank(partner)
        keep_loops = with_xi if partner is None else j_partner < vertex_count
        for g, image in images:
            if image == v:
                if keep_loops:
                    edges.append((i, i, g))
            else:
                j = gray_rank(image) if g == "a" else j_partner
                if i < j < vertex_count:
                    edges.append((i, j, g))
    return LabeledGraph.make(vertex_count, edges)


def export_dot(g: LabeledGraph) -> Iterator[str]:
    """Deterministic DOT text, yielded line by line; equal graphs export
    byte-identically."""
    yield "graph schreier {\n"
    yield f"  graph [n={g.n} leftmost=0 rightmost={g.n - 1}];\n"
    for u, v, lab in g.edges:
        yield f'  {u} -- {v} [label="{lab}"];\n'
    yield "}\n"
