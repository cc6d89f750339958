"""Schreier graphs of the rho-orbit, built two independent ways, plus the
positional Gray order (rank and unrank) that orders the orbit by distance
from rho."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .group import SYMBOL_GEN, Ray, apply_generator
from .omega import OmegaSequence

Edge = tuple[int, int, str]


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected edge-labeled multigraph with vertices 0..n-1 numbered left to
    right along the half-line; equality is exact multiset equality of labeled
    edges under that numbering."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def make(n: int, edges) -> "LabeledGraph":
        canon = tuple(sorted((min(u, v), max(u, v), lab) for u, v, lab in edges))
        return LabeledGraph(n, canon)


def gray_rank(bits: str) -> int:
    """Position of a binary string within the Gray order of its own length.

    Appending digits 1 does not change the rank, so the rank of a canonical
    ray prefix is the ray's index in the orbit ("" for rho has index 0)."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"need a binary string, got {bits!r}")
    rank = 0
    for i, ch in enumerate(bits):
        if ch == "0":
            rank = (1 << (i + 1)) - 1 - rank
    return rank


def rho_enumeration(count: int) -> list[Ray]:
    """The first `count` orbit points in Gray order, as canonical rays."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [ray_at(j) for j in range(count)]


def ray_at(index: int) -> Ray:
    """The orbit point with the given Gray index: the inverse of `gray_rank`,
    reading the bits from the last one down. Before bit i is appended the rank
    is below 2^i, so a rank at or above 2^i means bit i is 0 and the rank was
    reflected from 2^(i+1) - 1 - rank."""
    if index < 0:
        raise ValueError("index must be >= 0")
    rank = index
    bits = []
    for i in reversed(range(index.bit_length())):
        if rank >= 1 << i:
            bits.append("0")
            rank = (1 << (i + 1)) - 1 - rank
        else:
            bits.append("1")
    return Ray("".join(reversed(bits)))


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


def _word_graph(word: str) -> LabeledGraph:
    """The half-line graph whose labels spell `word`, letter u joining
    vertices u and u + 1: `T` is the a-edge Theta, a symbol s the double-edge
    block Lambda_s with a loop labelled SYMBOL_GEN[s] at both ends. When `T`
    alternates with symbols, as in every block word, the edges come out
    canonically sorted."""
    edges: list[Edge] = []
    for u, letter in enumerate(word):
        if letter == "T":
            edges.append((u, u + 1, "a"))
        else:
            loop, x, y = _LAMBDA[letter]
            edges += ((u, u, loop), (u, u + 1, x), (u, u + 1, y), (u + 1, u + 1, loop))
    return LabeledGraph(len(word) + 1, tuple(edges))


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
        keep_loops = with_xi if partner is None else gray_rank(partner) < vertex_count
        for g, image in images:
            if image == v:
                if keep_loops:
                    edges.append((i, i, g))
            else:
                j = gray_rank(image)
                if i < j < vertex_count:
                    edges.append((i, j, g))
    return LabeledGraph.make(vertex_count, edges)


def export_dot(g: LabeledGraph) -> str:
    """Deterministic DOT text; equal graphs export byte-identically."""
    lines = [
        "graph schreier {",
        f"  graph [n={g.n} leftmost=0 rightmost={g.n - 1}];",
    ]
    lines.extend(f'  {u} -- {v} [label="{lab}"];' for u, v, lab in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"

