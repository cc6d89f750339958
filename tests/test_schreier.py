"""Graph construction tests: the block pictures and the slow gluing oracle,
the self-similarity and DOT-parsing oracles, the two independent gamma
builders, and the Gray code order."""

import hashlib
import re
from enum import Enum
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from grigorchuk import (
    LabeledGraph,
    apply_generator,
    build_gamma_orbit,
    build_gamma_recursive,
    export_dot,
    parse_omega,
    ray_at,
    ruler_a,
)
from grigorchuk.group import SYMBOL_GEN, _flip, _partner
from grigorchuk.omega import OmegaSequence
from grigorchuk.schreier import _block_word, _orbit_rows, _word_graph, gray_rank

from conftest import block_letters, fixing_generator

GOLDEN = Path(__file__).parent / "golden"

omegas = st.builds(
    OmegaSequence, st.text(alphabet="012", max_size=3), st.text(alphabet="012", min_size=1, max_size=4)
)


class Block(Enum):
    THETA = "T"
    L0 = "0"
    L1 = "1"
    L2 = "2"
    XI = "X"


LAMBDA_BLOCKS = {0: Block.L0, 1: Block.L1, 2: Block.L2}


def make_graph(n: int, edges) -> LabeledGraph:
    """The graph with these edges, each written (min, max, label), sorted."""
    return LabeledGraph(n, tuple(sorted((min(u, v), max(u, v), lab) for u, v, lab in edges)))


def block_graph(block: Block) -> LabeledGraph:
    """The picture of one block: Theta is a single a-edge, Xi the three loops
    at rho, Lambda_s a double edge with a SYMBOL_GEN[s] loop at both ends."""
    if block is Block.THETA:
        return make_graph(2, [(0, 1, "a")])
    if block is Block.XI:
        return make_graph(1, [(0, 0, g) for g in "bcd"])
    loop = SYMBOL_GEN[int(block.value)]
    double = sorted(set("bcd") - {loop})
    return make_graph(
        2,
        [(0, 1, double[0]), (0, 1, double[1]), (0, 0, loop), (1, 1, loop)],
    )


def glue(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Identify the rightmost vertex n-1 of g1 with the leftmost vertex 0 of g2.

    Both operands have sorted canonical edges, and so has the result: the
    shifted edges of g2 stay sorted, and sorting two runs merges."""
    offset, n = g1.n - 1, g1.n + g2.n - 1
    shifted = [(u + offset, v + offset, lab) for u, v, lab in g2.edges]
    return LabeledGraph(n, tuple(sorted(g1.edges + tuple(shifted))))


def glued_gamma(omega: OmegaSequence, n: int) -> LabeledGraph:
    """Slow oracle for the recursive builder, gluing block pictures as the
    paper does: Gamma_1 = Theta Lambda Theta, Gamma_n = Gamma_(n-1) Lambda
    Gamma_(n-1), the Lambda block of level k being Lambda_omega(k)."""
    theta = block_graph(Block.THETA)
    g = glue(glue(theta, block_graph(LAMBDA_BLOCKS[omega.at(1)])), theta)
    for k in range(2, n + 1):
        g = glue(glue(g, block_graph(LAMBDA_BLOCKS[omega.at(k)])), g)
    return g


# gray_rank is pure and reads no omega, so the oracles memoize it across omegas.
_gray_rank = lru_cache(maxsize=None)(gray_rank)


def orbit_images_by_apply(omega: OmegaSequence, vertex_count: int):
    """Per vertex, the rank of its partner (its image under the b/c/d
    generators that move it, None when none does) and each generator with the
    rank of its image, None when it fixes the vertex: four validated
    apply_generator calls and one gray_rank call per image, with no step
    shared between generators. The images do not depend on the count, so one
    table serves every smaller count."""
    table = []
    for i in range(vertex_count):
        v = ray_at(i).prefix + "1"
        row = []
        for g in "abcd":
            image = apply_generator(g, v, omega)
            row.append((g, None if image == v else _gray_rank(image)))
        table.append((next((j for _, j in row[1:] if j is not None), None), row))
    return table


def orbit_graph_by_apply(images, vertex_count: int, with_xi: bool) -> LabeledGraph:
    """Oracle for build_gamma_orbit, cut from the first `vertex_count` rows of
    `orbit_images_by_apply` and sorted. A loop belongs to the double-edge
    block joining the vertex to its partner; when the partner is out of range
    the whole block is cut, loop included."""
    edges = []
    for i, (j_partner, row) in enumerate(images[:vertex_count]):
        keep_loops = with_xi if j_partner is None else j_partner < vertex_count
        for g, j in row:
            if j is None:
                if keep_loops:
                    edges.append((i, i, g))
            elif i < j < vertex_count:
                edges.append((i, j, g))
    return LabeledGraph(vertex_count, tuple(sorted(edges)))  # each edge is (i, j >= i, g)


def rows_by_action(omega: OmegaSequence, vertex_count: int):
    """Oracle for _orbit_rows: each ray as the vertex prefix + "1", its
    partner from one b/c/d step, and both images ranked from their strings."""
    for i in range(vertex_count):
        v = ray_at(i).prefix + "1"  # the ray as a vertex: exact for one step
        fixers, partner = _partner(v, omega)
        yield _gray_rank(_flip(v[0]) + v[1:]), _gray_rank(partner), fixers


def orbit_graph_by_sort(rows, vertex_count: int, with_xi: bool) -> LabeledGraph:
    """Oracle for the order of build_gamma_orbit's stream: the edges of the
    first `vertex_count` rows of `rows_by_action`, kept in generator order and
    put in canonical order by a sort."""
    edges = []
    for i, (j_a, j_partner, fixers) in enumerate(rows[:vertex_count]):
        if (with_xi if j_partner == i else j_partner < vertex_count):
            edges += [(i, i, g) for g in fixers]
        if i < j_a < vertex_count:
            edges.append((i, j_a, "a"))
        if i < j_partner < vertex_count:
            edges += [(i, j_partner, g) for g in "bcd" if g not in fixers]
    return LabeledGraph(vertex_count, tuple(sorted(edges)))  # each edge is (i, j >= i, g)


def orbit_edges_by_splat(omega: OmegaSequence, vertex_count: int, with_xi: bool):
    """Oracle for the stream of build_gamma_orbit, row by row: loops from a
    generator expression, then the a-edge and the partner edges spliced in
    order of their other end."""
    for i, (j_a, j_p, fixers) in enumerate(_orbit_rows(omega, vertex_count)):
        if (with_xi if j_p == i else j_p < vertex_count):
            yield from ((i, i, g) for g in fixers)
        a = ((i, j_a, "a"),) if i < j_a < vertex_count else ()
        p = [(i, j_p, g) for g in "bcd" if g not in fixers] if i < j_p < vertex_count else []
        yield from (*a, *p) if j_a < j_p else (*p, *a)


def _reverse(g: LabeledGraph) -> LabeledGraph:
    relabel = lambda v: g.n - 1 - v
    return make_graph(g.n, [(relabel(u), relabel(v), lab) for u, v, lab in g.edges])


def self_similarity_check(omega: OmegaSequence, n: int, m: int) -> bool:
    """Does the level-(n+m) graph decompose as alternating copies of the
    level-n graph with the double-edge blocks of the n-shifted sequence?"""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    shifted = omega.shift(n)
    piece = _block_word(omega, n + 1)
    # 2^m copies of the level-n piece; the vertex count 2^(n+m+1) forces the
    # number of interleaved double-edge blocks to be 2^m - 1.
    assembled = piece + "".join(f"{shifted.at(ruler_a(i))}{piece}" for i in range(1, 1 << m))
    return _word_graph(assembled) == build_gamma_recursive(omega, n + m)


def parse_dot(text: str) -> LabeledGraph:
    """Read `export_dot` text back; the header must name the path ends 0 and n-1."""
    header = re.search(r"graph \[n=(\d+) leftmost=(\d+) rightmost=(\d+)\];", text)
    if header is None:
        raise ValueError("missing graph attribute line")
    n, leftmost, rightmost = (int(x) for x in header.groups())
    if (leftmost, rightmost) != (0, n - 1):
        raise ValueError(f"header ends {leftmost}, {rightmost} are not 0, {n - 1}")
    edges = [
        (int(u), int(v), lab)
        for u, v, lab in re.findall(r'(\d+) -- (\d+) \[label="([abcd])"\];', text)
    ]
    return make_graph(n, edges)


class TestBlocks:
    def test_theta(self):
        g = block_graph(Block.THETA)
        assert g.n == 2 and g.edges == ((0, 1, "a"),)

    def test_xi(self):
        g = block_graph(Block.XI)
        assert g.n == 1
        assert g.edges == ((0, 0, "b"), (0, 0, "c"), (0, 0, "d"))

    @pytest.mark.parametrize(
        "block,loop,double",
        [(Block.L0, "d", "bc"), (Block.L1, "c", "bd"), (Block.L2, "b", "cd")],
    )
    def test_lambda_blocks(self, block, loop, double):
        g = block_graph(block)
        assert g.n == 2
        loops = sorted(lab for u, v, lab in g.edges if u == v)
        doubles = sorted(lab for u, v, lab in g.edges if u != v)
        assert loops == [loop, loop]
        assert doubles == sorted(double)


class TestGlue:
    def test_theta_theta(self):
        g = glue(block_graph(Block.THETA), block_graph(Block.THETA))
        assert g.n == 3 and g.edges == ((0, 1, "a"), (1, 2, "a"))

    def test_theta_lambda0(self):
        g = glue(block_graph(Block.THETA), block_graph(Block.L0))
        assert g.n == 3
        assert g.edges == (
            (0, 1, "a"), (1, 1, "d"), (1, 2, "b"), (1, 2, "c"), (2, 2, "d"),
        )

    @given(st.lists(st.sampled_from(list(Block)), min_size=2, max_size=6))
    def test_vertex_count(self, blocks):
        graphs = [block_graph(b) for b in blocks]
        g = graphs[0]
        for h in graphs[1:]:
            expected = g.n + h.n - 1
            g = glue(g, h)
            assert g.n == expected
        # a path from vertex 0 to vertex n-1
        assert {u for u, v, _ in g.edges if v == u + 1} == set(range(g.n - 1))

    @pytest.mark.parametrize("left,right", [(Block.L0, Block.L0), (Block.L1, Block.L2)])
    def test_lambda_lambda_matches_make(self, left, right):
        # both blocks carry a loop at the shared vertex, so the merged edge
        # runs interleave there
        g1, g2 = block_graph(left), block_graph(right)
        g = glue(g1, g2)
        combined = list(g1.edges) + [(u + 1, v + 1, lab) for u, v, lab in g2.edges]
        assert g == make_graph(3, combined)
        assert sum(u == v == 1 for u, v, _ in g.edges) == 2


def reflected_gray(level: int) -> tuple[str, ...]:
    """Independent oracle for the Gray order: binary strings of the given
    length in the (1/0-exchanged) reflected order. The first half appends 1 to
    the previous level, the second half appends 0 to the previous level
    reversed."""
    if level == 1:
        return ("1", "0")
    prev = reflected_gray(level - 1)
    return tuple(s + "1" for s in prev) + tuple(s + "0" for s in reversed(prev))


def unranked(level: int) -> tuple[str, ...]:
    """The Gray order of the given length read off `ray_at`, trailing 1s
    restored."""
    return tuple(ray_at(j).prefix.ljust(level, "1") for j in range(1 << level))


class TestGrayCode:
    def test_level_1(self):
        assert unranked(1) == ("1", "0")

    def test_level_2(self):
        assert unranked(2) == ("11", "01", "00", "10")

    def test_level_4_published_listing(self):
        assert unranked(4) == (
            "1111", "0111", "0011", "1011", "1001", "0001", "0101", "1101",
            "1100", "0100", "0000", "1000", "1010", "0010", "0110", "1110",
        )

    @pytest.mark.parametrize("level", range(1, 13))
    def test_unrank_matches_reflected_construction(self, level):
        assert unranked(level) == reflected_gray(level)

    @given(st.integers(min_value=1, max_value=10))
    def test_consecutive_strings_differ_in_one_bit(self, level):
        strings = unranked(level)
        assert strings[0] == "1" * level
        assert len(set(strings)) == 1 << level
        for s, t in zip(strings, strings[1:]):
            assert sum(x != y for x, y in zip(s, t)) == 1

    @given(st.integers(min_value=1, max_value=9))
    def test_rank_inverts_enumeration(self, level):
        assert [gray_rank(s) for s in reflected_gray(level)] == list(range(1 << level))
        # the rank is stable under the trailing-1 padding that defines rays
        for j, s in enumerate(reflected_gray(level)):
            assert gray_rank(s.rstrip("1")) == j

    @given(st.integers(min_value=0, max_value=1 << 64))
    @example(0)
    @example(1 << 60)
    @example((1 << 64) - 1)
    def test_rank_inverts_unrank(self, j):
        assert gray_rank(ray_at(j).prefix) == j
        assert gray_rank("") == 0

    def test_unrank_is_canonical(self):
        # index 0 reads "1" before its trailing 1s are stripped
        assert ray_at(0).prefix == ""
        assert not any(ray_at(j).prefix.endswith("1") for j in range(1 << 12))


class TestRhoEnumeration:
    def test_first_four(self):
        assert [ray_at(j).prefix for j in range(4)] == ["", "0", "00", "10"]

    def test_single(self):
        assert ray_at(0).prefix == ""

    def test_ray_at_matches(self):
        # the canonical prefixes of the reflected construction, in order
        assert [ray_at(i).prefix for i in range(64)] == [s.rstrip("1") for s in reflected_gray(6)]

    def test_moves_alternate(self, omega012):
        rays = [ray_at(j).prefix for j in range(256)]
        for j in range(255):
            # a ray acts as the vertex prefix + "1"; the image is re-canonicalized
            cur, nxt = rays[j] + "1", rays[j + 1]
            if j % 2 == 0:  # move flips the first digit
                assert apply_generator("a", cur, omega012).rstrip("1") == nxt
            else:  # move flips the digit after the first zero
                movers = [g for g in "bcd" if apply_generator(g, cur, omega012).rstrip("1") == nxt]
                assert len(movers) == 2


class TestRuler:
    def test_examples(self):
        assert ruler_a(1) == 1
        assert ruler_a(8) == 4
        assert ruler_a(6) == 2

    def test_prefix(self):
        assert [ruler_a(i) for i in range(1, 16)] == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1][:15]

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_matches_dyadic_valuation(self, i):
        assert ruler_a(i) == (i & -i).bit_length()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ruler_a(0)


class TestDeltaBlocks:
    def test_examples(self, omega012):
        assert omega012.at(ruler_a(1)) == 0
        assert omega012.at(ruler_a(2)) == 1
        assert omega012.at(ruler_a(4)) == 2

    def test_first_zero_rule(self, omega012):
        # the i-th double edge joins rays whose fixing generator is s_{omega(a_i)}
        rays = [ray_at(j).prefix for j in range(64)]
        for i in range(1, 32):
            left, right = rays[2 * i - 1], rays[2 * i]
            expected_loop = {0: "d", 1: "c", 2: "b"}[omega012.at(ruler_a(i))]
            assert fixing_generator(left, omega012) == expected_loop
            assert fixing_generator(right, omega012) == expected_loop


class TestGammaBuilders:
    def test_level1(self, omega012):
        g = build_gamma_recursive(omega012, 1)
        theta, lam = block_graph(Block.THETA), block_graph(Block.L0)
        assert g == glue(glue(theta, lam), theta)
        assert g.n == 4

    def test_level2_block_sequence(self, omega012):
        blocks = [Block.THETA, Block.L0, Block.THETA, Block.L1, Block.THETA, Block.L0, Block.THETA]
        expected = block_graph(blocks[0])
        for b in blocks[1:]:
            expected = glue(expected, block_graph(b))
        assert build_gamma_recursive(omega012, 2) == expected

    @given(omegas, st.integers(min_value=1, max_value=12))
    def test_vertex_count(self, w, n):
        assert build_gamma_recursive(w, n).n == 1 << (n + 1)

    def test_orbit_equals_recursive(self, suite):
        for w in suite:
            for n in range(1, 11):
                rec, orb = build_gamma_recursive(w, n), build_gamma_orbit(w, 1 << (n + 1), False)
                assert rec == orb and orb == rec

    @given(omegas, st.integers(min_value=1, max_value=9))
    def test_recursive_equals_glued(self, w, n):
        g, glued = build_gamma_recursive(w, n), glued_gamma(w, n)
        assert g == glued and glued == g

    def test_orbit_matches_apply_oracle(self, suite):
        for w in suite:
            images = orbit_images_by_apply(w, 300)
            for with_xi in (False, True):
                for count in range(2, 301):
                    assert build_gamma_orbit(w, count, with_xi) == orbit_graph_by_apply(images, count, with_xi)

    def test_orbit_rows_match_action(self, suite):
        for w in [*suite, *map(parse_omega, ("0:1", "2", "1:02"))]:
            assert list(_orbit_rows(w, 2**14)) == list(rows_by_action(w, 2**14))

    def test_orbit_cuts_whole_blocks(self, suite):
        # Cutting the half-line after `count` vertices keeps an edge inside the
        # range, and a loop only with the double edge it belongs to: the block
        # of a loop at odd u reaches right to u + 1, at even u left to u - 1.
        xi = [(0, 0, g) for g in "bcd"]
        for w in suite:
            full = build_gamma_recursive(w, 7)
            for count in range(2, 131):
                kept = [
                    (u, v, lab)
                    for u, v, lab in full.edges
                    if (v < count if u != v else u < count and (u % 2 == 0 or u + 1 < count))
                ]
                cut = build_gamma_orbit(w, count, False)
                assert cut == make_graph(count, kept)
                assert build_gamma_orbit(w, count, True) == make_graph(count, kept + xi)

    def test_orbit_prefix_two_vertices(self, omega012):
        g = build_gamma_orbit(omega012, 2, with_xi=True)
        assert tuple(g.edges) == ((0, 0, "b"), (0, 0, "c"), (0, 0, "d"), (0, 1, "a"))
        assert tuple(build_gamma_orbit(omega012, 2, with_xi=False).edges) == ((0, 1, "a"),)

    def test_orbit_edges_stream_in_canonical_order(self, suite):
        # No sort: each row yields its edges (i, v >= i) ordered by (v, label),
        # and the stream is made again on each pass, holding no edge tuple.
        counts = [*range(2, 301), *(1 << k for k in range(9, 12))]
        for w in suite:
            rows = list(rows_by_action(w, max(counts)))
            for with_xi in (False, True):
                for count in counts:
                    g = build_gamma_orbit(w, count, with_xi)
                    assert not isinstance(g.edges, tuple)
                    edges = tuple(g.edges)
                    assert edges == tuple(sorted(edges))
                    assert edges == orbit_graph_by_sort(rows, count, with_xi).edges
                    assert tuple(g.edges) == edges

    def test_orbit_edges_match_splat_oracle(self, suite):
        counts = [*range(2, 130), 1000, 4095, 4096, 4097]
        for w in [*suite, *map(parse_omega, ("0:1", "2", "1:02"))]:
            for with_xi in (False, True):
                for count in counts:
                    edges = build_gamma_orbit(w, count, with_xi).edges
                    assert list(edges) == list(orbit_edges_by_splat(w, count, with_xi))

    def test_unlabeled_shape(self, omega012):
        # alternating simple edges and double-edges-with-loops along the line
        g = build_gamma_orbit(omega012, 64, with_xi=False)
        plain = {}
        for u, v, lab in g.edges:
            if u != v:
                plain.setdefault((u, v), []).append(lab)
        for (u, v), labs in plain.items():
            assert v == u + 1
            if u % 2 == 0:
                assert labs == ["a"]
            else:
                assert len(labs) == 2 and set(labs) <= set("bcd")

    def test_degree_profile(self, suite):
        for w in suite:
            g = build_gamma_recursive(w, 5)
            loops = {u: 0 for u in range(g.n)}
            simple = {u: 0 for u in range(g.n)}
            double = {u: 0 for u in range(g.n)}
            for u, v, lab in g.edges:
                if u == v:
                    loops[u] += 1
                elif lab == "a":
                    simple[u] += 1
                    simple[v] += 1
                else:
                    double[u] += 1
                    double[v] += 1
            for u in range(1, g.n - 1):
                assert (loops[u], simple[u], double[u]) == (1, 1, 2)
            for u in (0, g.n - 1):
                assert (loops[u], simple[u], double[u]) == (0, 1, 0)

    def test_left_right_symmetry(self, suite):
        for w in suite:
            for n in range(1, 8):
                g = build_gamma_recursive(w, n)
                assert g == _reverse(g)

    def test_loop_labels_match_fixing_generator(self, omega012):
        g = build_gamma_orbit(omega012, 128, with_xi=False)
        rays = [ray_at(j).prefix for j in range(128)]
        for u, v, lab in g.edges:
            if u == v:
                assert fixing_generator(rays[u], omega012) == lab

    def test_bfs_distance_order(self, suite):
        for w in suite:
            g = build_gamma_orbit(w, 256, with_xi=False)
            adjacency = {i: set() for i in range(g.n)}
            for u, v, _ in g.edges:
                adjacency[u].add(v)
                adjacency[v].add(u)
            dist = {0: 0}
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adjacency[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            assert all(dist[i] == i for i in range(g.n))


class TestBlockWord:
    @given(omegas, st.integers(min_value=0, max_value=12))
    def test_doubling_matches_positions(self, w, m):
        assert _block_word(w, m) == block_letters(w, 1, (1 << m) - 1)


class TestSelfSimilarity:
    def test_base_example(self, omega012):
        assert self_similarity_check(omega012, 1, 1)

    def test_suite(self, suite):
        for w in suite:
            for n in range(1, 7):
                for m in range(1, 7):
                    if n + m <= 10:
                        assert self_similarity_check(w, n, m)

    def test_rejects_n_zero(self, omega012):
        with pytest.raises(ValueError):
            self_similarity_check(omega012, 0, 1)


def dot_text(g: LabeledGraph) -> str:
    return "".join(export_dot(g))


class TestExport:
    def test_theta_dot(self):
        text = dot_text(block_graph(Block.THETA))
        assert '0 -- 1 [label="a"];' in text
        assert text.count("--") == 1

    def test_lambda2_dot(self):
        text = dot_text(block_graph(Block.L2))
        assert text.count('[label="b"]') == 2  # loops on both vertices
        assert '0 -- 1 [label="c"];' in text
        assert '0 -- 1 [label="d"];' in text

    @given(omegas, st.integers(min_value=1, max_value=6))
    def test_parse_round_trip(self, w, n):
        g = build_gamma_recursive(w, n)
        assert parse_dot(dot_text(g)) == g
        assert g == parse_dot(dot_text(g))

    def test_parse_rejects_other_ends(self, omega012):
        text = dot_text(build_gamma_recursive(omega012, 1))
        with pytest.raises(ValueError):
            parse_dot(text.replace("rightmost=3", "rightmost=2"))

    def test_equal_graphs_export_identically(self, omega012):
        a = dot_text(build_gamma_recursive(omega012, 4))
        b = dot_text(build_gamma_orbit(omega012, 32, False))
        assert a == b

    @pytest.mark.parametrize("n", range(1, 7))
    def test_golden_files(self, omega012, n):
        expected = (GOLDEN / f"gamma_012_n{n}.dot").read_text()
        assert dot_text(build_gamma_recursive(omega012, n)) == expected

    def test_stream_is_one_line_per_item(self, omega012):
        g = build_gamma_recursive(omega012, 3)
        lines = list(export_dot(g))
        assert lines[0] == "graph schreier {\n" and lines[-1] == "}\n"
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert len(lines) == 3 + sum(1 for _ in g.edges)

    @pytest.mark.parametrize(
        "spec,digest",
        [
            ("012", "e75590fa01315583ebe4460e19ce7dd5c335c0459355341e7a5caef545a06fd0"),
            ("2:01", "17f65e44ebb7ac2e29d4b1148cfd27fa4b96e9af0f08bfc181624a07f3dba023"),
        ],
    )
    def test_streamed_level8_digest(self, spec, digest):
        # pinned from the level-8 DOT files written before the export streamed
        sha = hashlib.sha256()
        for line in export_dot(build_gamma_recursive(parse_omega(spec), 8)):
            sha.update(line.encode())
        assert sha.hexdigest() == digest


class TestRepresentations:
    """A graph read off its word and one made from a sorted edge tuple compare
    by n and the whole edge sequence, in both operand orders."""

    @staticmethod
    def assert_equal(g, h):
        assert g == h and h == g
        assert not (g != h) and not (h != g)

    @staticmethod
    def assert_unequal(g, h):
        assert g != h and h != g
        assert not (g == h) and not (h == g)

    @pytest.fixture
    def pair(self, omega012):
        g = build_gamma_recursive(omega012, 4)
        return g, list(g.edges)

    def test_word_graph_keeps_only_its_word(self, omega012):
        g = build_gamma_recursive(omega012, 4)
        assert not isinstance(g.edges, tuple)
        assert list(g.edges) == list(g.edges)  # re-iterable

    def test_equal_to_made_graph(self, pair):
        g, edges = pair
        assert tuple(edges) == make_graph(g.n, edges).edges  # already canonical
        self.assert_equal(g, make_graph(g.n, edges))
        self.assert_equal(g, _word_graph(g.edges.word))

    def test_trailing_edge_dropped(self, pair):
        g, edges = pair
        self.assert_unequal(g, LabeledGraph(g.n, tuple(edges[:-1])))

    def test_extra_trailing_edge(self, pair):
        g, edges = pair
        extra = (g.n - 1, g.n - 1, "b")
        self.assert_unequal(g, LabeledGraph(g.n, (*edges, extra)))

    def test_one_label_changed(self, pair):
        g, edges = pair
        u, v, lab = edges[5]
        changed = edges[:5] + [(u, v, "a" if lab != "a" else "b")] + edges[6:]
        self.assert_unequal(g, make_graph(g.n, changed))

    def test_other_vertex_count(self, pair):
        g, edges = pair
        self.assert_unequal(g, LabeledGraph(g.n + 1, tuple(edges)))

    def test_not_a_graph(self, pair):
        g, edges = pair
        assert g != tuple(edges) and tuple(edges) != g
