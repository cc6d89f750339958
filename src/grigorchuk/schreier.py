"""Schreier graphs of the rho-orbit, built two independent ways, plus the
positional Gray order (rank and unrank) that orders the orbit by distance
from rho."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .group import RHO, SYMBOL_GEN, Ray, apply_generator, fixing_generator
from .omega import OmegaSequence

Edge = tuple[int, int, str]


class Block(Enum):
    THETA = "T"
    L0 = "0"
    L1 = "1"
    L2 = "2"
    XI = "X"


LAMBDA_BLOCKS = {0: Block.L0, 1: Block.L1, 2: Block.L2}


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected edge-labeled multigraph with vertices 0..n-1 numbered left to
    right along the half-line; equality is exact multiset equality of labeled
    edges under that numbering."""

    n: int
    edges: tuple[Edge, ...]
    leftmost: int
    rightmost: int

    @staticmethod
    def make(n: int, edges, leftmost: int = 0, rightmost: int | None = None) -> "LabeledGraph":
        canon = tuple(sorted((min(u, v), max(u, v), lab) for u, v, lab in edges))
        return LabeledGraph(n, canon, leftmost, n - 1 if rightmost is None else rightmost)


def block_graph(block: Block) -> LabeledGraph:
    if block is Block.THETA:
        return LabeledGraph.make(2, [(0, 1, "a")])
    if block is Block.XI:
        return LabeledGraph.make(1, [(0, 0, g) for g in "bcd"])
    loop = SYMBOL_GEN[int(block.value)]
    double = sorted(set("bcd") - {loop})
    return LabeledGraph.make(
        2,
        [(0, 1, double[0]), (0, 1, double[1]), (0, 0, loop), (1, 1, loop)],
    )


def glue(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Identify the rightmost vertex of g1 with the leftmost vertex of g2.

    Both operands must be path-ordered (leftmost 0, rightmost n-1) with sorted
    canonical edges, as every graph built in this module is, and so is the
    result: the shifted edges of g2 stay sorted, and sorting two runs merges."""
    for g in (g1, g2):
        if g.leftmost != 0 or g.rightmost != g.n - 1:
            raise ValueError("glue expects path-ordered operands")
    offset, n = g1.n - 1, g1.n + g2.n - 1
    shifted = [(u + offset, v + offset, lab) for u, v, lab in g2.edges]
    return LabeledGraph(n, tuple(sorted(g1.edges + tuple(shifted))), 0, n - 1)


def gray_rank(bits: str) -> int:
    """Position of a binary string within the Gray order of its own length."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"need a nonempty binary string, got {bits!r}")
    rank = 0
    for i, ch in enumerate(bits):
        if ch == "0":
            rank = (1 << (i + 1)) - 1 - rank
    return rank


def gray_index(r: Ray) -> int:
    """Index of a ray in the Gray enumeration of the orbit (0 for rho).

    Appending tail digits 1 does not change the rank, so the canonical prefix
    already determines the index."""
    return gray_rank(r.prefix) if r.prefix else 0


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


def delta_block(omega: OmegaSequence, i: int) -> Block:
    """The i-th double-edge block of the half-line graph."""
    return LAMBDA_BLOCKS[omega.at(ruler_a(i))]


@lru_cache(maxsize=4096)
def build_gamma_recursive(omega: OmegaSequence, n: int) -> LabeledGraph:
    """Level-n approximation by block gluing: level 1 is Theta*Lambda*Theta and
    each next level glues two copies of the previous one around a Lambda block.
    The result has exactly 2^(n+1) vertices."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        theta = block_graph(Block.THETA)
        return glue(glue(theta, block_graph(LAMBDA_BLOCKS[omega.at(1)])), theta)
    prev = build_gamma_recursive(omega, n - 1)
    return glue(glue(prev, block_graph(LAMBDA_BLOCKS[omega.at(n)])), prev)


def build_gamma_orbit(omega: OmegaSequence, vertex_count: int, with_xi: bool) -> LabeledGraph:
    """Direct orbit computation: vertices are the first rays in Gray order,
    one edge (gamma, s gamma) per generator, with edges leaving the vertex
    range dropped. The three loops at rho are kept only when with_xi."""
    if vertex_count < 2:
        raise ValueError("vertex_count must be >= 2")
    rays = rho_enumeration(vertex_count)
    edges: list[Edge] = []
    for i, r in enumerate(rays):
        for g in "abcd":
            image = apply_generator(g, r, omega)
            if image == r:
                if i == 0:
                    if with_xi:
                        edges.append((i, i, g))
                    continue
                # The loop belongs to the double-edge block joining the vertex
                # to its partner; when the partner is out of range the whole
                # block is cut, loop included.
                partner = next(
                    apply_generator(s, r, omega)
                    for s in "bcd"
                    if apply_generator(s, r, omega) != r
                )
                if gray_index(partner) < vertex_count:
                    edges.append((i, i, g))
                continue
            j = gray_index(image)
            if i < j < vertex_count:
                edges.append((i, j, g))
    return LabeledGraph.make(vertex_count, edges)


def self_similarity_check(omega: OmegaSequence, n: int, m: int) -> bool:
    """Does the level-(n+m) graph decompose as alternating copies of the
    level-n graph with the double-edge blocks of the n-shifted sequence?"""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    shifted = omega.shift(n)
    piece = build_gamma_recursive(omega, n)
    assembled = piece
    # 2^m copies of the level-n piece; the vertex count 2^(n+m+1) forces the
    # number of interleaved double-edge blocks to be 2^m - 1.
    for i in range(1, 1 << m):
        assembled = glue(glue(assembled, block_graph(delta_block(shifted, i))), piece)
    return assembled == build_gamma_recursive(omega, n + m)


def export_dot(g: LabeledGraph) -> str:
    """Deterministic DOT text; equal graphs export byte-identically."""
    lines = [
        "graph schreier {",
        f"  graph [n={g.n} leftmost={g.leftmost} rightmost={g.rightmost}];",
    ]
    lines.extend(f'  {u} -- {v} [label="{lab}"];' for u, v, lab in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> LabeledGraph:
    import re

    header = re.search(r"graph \[n=(\d+) leftmost=(\d+) rightmost=(\d+)\];", text)
    if header is None:
        raise ValueError("missing graph attribute line")
    n, leftmost, rightmost = (int(x) for x in header.groups())
    edges = [
        (int(u), int(v), lab)
        for u, v, lab in re.findall(r'(\d+) -- (\d+) \[label="([abcd])"\];', text)
    ]
    return LabeledGraph.make(n, edges, leftmost, rightmost)
