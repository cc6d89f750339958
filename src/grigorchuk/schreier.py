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

from .group import _DROP01, SYMBOL_GEN
from .omega import OmegaSequence

Edge = tuple[int, int, str]


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Undirected edge-labeled multigraph with vertices 0..n-1 numbered left to
    right along the half-line. `edges` is re-iterable in canonical sorted
    order: a stream that holds no edge and is made again on each pass, from
    the block word letter by letter or from the orbit row by row. Equality is
    exact equality of n and of the whole edge sequence, whichever way either
    side stores its edges."""

    n: int
    edges: Iterable[Edge]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        # zip_longest pads the shorter sequence with None, which equals no edge.
        return self.n == other.n and all(starmap(eq, zip_longest(self.edges, other.edges)))


_SWAP01 = str.maketrans("01", "10")


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


def _block_word(omega: OmegaSequence, m: int) -> str:
    """B_m, the first 2^m - 1 letters of the block word, by the recursion
    B_1 = T, B_(k+1) = B_k omega(k) B_k (B_0 is empty)."""
    word = "T" if m > 0 else ""
    for k in range(1, m):
        word = f"{word}{omega.at(k)}{word}"
    return word


# Fixing letter g -> (its loop label g, the two labels that move the point),
# sorted; keyed by block symbol s, the labels of the double-edge block Lambda_s.
_LOOP_MOVERS = {g: (g, *sorted(set("bcd") - {g})) for g in "bcd"}
_LAMBDA = {str(s): _LOOP_MOVERS[g] for s, g in SYMBOL_GEN.items()}


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


def _orbit_rows(omega: OmegaSequence, vertex_count: int) -> Iterator[tuple[int, int, str]]:
    """One row per orbit point in Gray order: the rank of its a-image, the rank
    of its partner (its image under the b/c/d letters that move it; rho, which
    none moves, is its own) and the letters that fix it. A row does not depend
    on the count, and is read off the index i with no string:

    Ray i has the Gray code g = i ^ (i >> 1), and its digit k + 1 is bit k of g
    with 0 and 1 exchanged (see `ray_at`), so its first 0 is at the 1-based
    position j = (g & -g).bit_length(). `a` flips digit 1, code bit 0, and the
    Gray decode then flips rank bit 0 alone: the a-image has rank i ^ 1. b, c
    and d flip digit j + 1, code bit j, and the decode flips rank bits 0..j:
    the partner has rank i ^ ((2 << j) - 1). The one of them that does not
    flip it, SYMBOL_GEN[omega(j)], fixes the ray. rho (g = 0) has no 0, so
    b, c and d all fix it. Every j is at most the bit length of the count."""
    fixer = [SYMBOL_GEN[omega.at(j)] for j in range(1, vertex_count.bit_length() + 1)]
    for i in range(vertex_count):
        g = i ^ (i >> 1)
        if not g:
            yield 1, 0, "bcd"
            continue
        j = (g & -g).bit_length()
        yield i ^ 1, i ^ ((2 << j) - 1), fixer[j - 1]


@dataclass(frozen=True)
class _OrbitEdges:
    """The edges among the first `count` orbit points, one (gamma, s gamma) per
    generator and none leaving the range, made again with their rows on each
    pass. Row i gives the edges (i, v >= i): its loops, then its a-edge and
    partner edges ordered by v, so the stream is in canonical order, unsorted.
    A loop belongs to the double-edge block joining a point to its partner,
    and is cut with it when the partner is out of range; the three loops at
    rho, its own partner, are kept only when with_xi. rho's row is the same at
    every count >= 2, so its edges are written out."""

    omega: OmegaSequence
    count: int
    with_xi: bool

    def __iter__(self) -> Iterator[Edge]:
        count = self.count
        rows = _orbit_rows(self.omega, count)
        next(rows)  # rho's row (1, 0, "bcd")
        if self.with_xi:
            yield (0, 0, "b")
            yield (0, 0, "c")
            yield (0, 0, "d")
        yield (0, 1, "a")
        for i, (j_a, j_p, fixer) in enumerate(rows, 1):
            a = i < j_a < count
            if not i < j_p < count:  # the block to the partner is row j_p's, or cut
                if j_p < i:
                    yield (i, i, fixer)
                if a:
                    yield (i, j_a, "a")
                continue
            loop, x, y = _LOOP_MOVERS[fixer]
            yield (i, i, loop)
            if a and j_a < j_p:
                yield (i, j_a, "a")
            yield (i, j_p, x)
            yield (i, j_p, y)
            if a and j_a > j_p:
                yield (i, j_a, "a")


def build_gamma_orbit(omega: OmegaSequence, vertex_count: int, with_xi: bool) -> LabeledGraph:
    """Direct orbit computation: vertices are the first rays in Gray order, and
    their edges (see `_OrbitEdges`) stream from rows computed again on each pass."""
    if vertex_count < 2:
        raise ValueError("vertex_count must be >= 2")
    return LabeledGraph(vertex_count, _OrbitEdges(omega, vertex_count, with_xi))


def export_dot(g: LabeledGraph) -> Iterator[str]:
    """Deterministic DOT text, yielded line by line; equal graphs export
    byte-identically."""
    yield "graph schreier {\n"
    yield f"  graph [n={g.n} leftmost=0 rightmost={g.n - 1}];\n"
    for u, v, lab in g.edges:
        yield f'  {u} -- {v} [label="{lab}"];\n'
    yield "}\n"
