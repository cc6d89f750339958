"""Command line surface: construction, verification, and export.

Exit codes: 0 success, 1 check failure, 2 usage, parse or output-path error,
3 unsupported case (eventually constant omega where the subshift is needed),
141 (128 + SIGPIPE) stdout closed before the output ended, with nothing on stderr.
Each command returns its exit code and its output as a stream of text, and
`main` alone writes that stream, to stdout or to the `-o` file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from . import battery, fullgroup as fg, group, schreier, subshift
from .omega import EventuallyConstantOmegaError, parse_omega

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 141


def _emit(chunks: Iterable[str], output: str | Path | None) -> None:
    """Write a stream of text to the output file or stdout."""
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit


def _lines(lines: Iterable[str]) -> Iterator[str]:
    return (f"{line}\n" for line in lines)


def _graph_json(g: schreier.LabeledGraph) -> Iterator[str]:
    """The object {edges, leftmost, n, rightmost} laid out exactly as
    `json.dumps(..., sort_keys=True, indent=2)` writes it, one edge at a time;
    every graph has an edge, so the list is never written as `[]`."""
    yield '{\n  "edges": ['
    sep = "\n"
    for u, v, lab in g.edges:
        yield f'{sep}    [\n      {u},\n      {v},\n      "{lab}"\n    ]'
        sep = ",\n"
    yield f'\n  ],\n  "leftmost": 0,\n  "n": {g.n},\n  "rightmost": {g.n - 1}\n}}\n'


def _graph_text(g: schreier.LabeledGraph) -> Iterator[str]:
    yield f"vertices: {g.n} (leftmost 0, rightmost {g.n - 1})\n"
    for u, v, lab in g.edges:
        yield f"{u} -- {v}  {lab}\n"


def cmd_graph(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    if args.oracle:
        recursive = schreier.build_gamma_recursive(omega, args.level)  # first: rejects a bad level
        orbit = schreier.build_gamma_orbit(omega, 1 << (args.level + 1), with_xi=False)
        if recursive == orbit:
            return EXIT_OK, [f"MATCH level={args.level} vertices={recursive.n}\n"]
        return EXIT_CHECK_FAILED, [f"MISMATCH level={args.level}\n"]
    if args.vertices is not None:
        g = schreier.build_gamma_orbit(omega, args.vertices, with_xi=args.with_xi)
    else:
        g = schreier.build_gamma_recursive(omega, args.level)
    render = {"dot": schreier.export_dot, "json": _graph_json, "text": _graph_text}
    return EXIT_OK, render[args.format](g)


def cmd_language(args) -> tuple[int, Iterable[str]]:
    omega, n = parse_omega(args.omega), args.n
    if n < 0:
        raise ValueError("length must be >= 0")
    count, words = subshift._listing(omega, n, doubled=False)
    header = f"omega={omega.spec()} n={n} count={count}"
    if args.format == "json":  # laid out as json.dumps(..., sort_keys=True, indent=2)
        head, sep, tail = f'{{\n  "header": "{header}",\n  "words": [\n    "', '",\n    "', '"\n  ]\n}\n'
    else:
        head, sep, tail = f"{header}\n", "\t" if args.format == "tsv" else "\n", "\n"
    return EXIT_OK, chain([head, next(words)], (sep + u for u in words), [tail])  # count >= 1


def _table_omega(args):
    """The omega of a `--max-n` table, refused before any row is printed: a
    negative bound is a usage error, and an eventually constant omega is
    unsupported even when the table is empty."""
    omega = parse_omega(args.omega)
    if args.max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {args.max_n}")
    subshift._require_not_constant(omega)
    return omega


def cmd_complexity(args) -> tuple[int, Iterable[str]]:
    omega = _table_omega(args)
    rows = []
    all_ok = True
    for n in range(1, args.max_n + 1):
        rho = subshift.complexity(omega, n)
        ok = n + 1 <= rho <= 6 * n
        all_ok = all_ok and ok
        rows.append((n, rho, n + 1, 6 * n, "pass" if ok else "FAIL"))
    if args.format == "json":
        payload = [
            {"n": n, "rho": rho, "lower": lo, "upper": hi, "verdict": v}
            for n, rho, lo, hi, v in rows
        ]
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = [f"omega={omega.spec()} max_n={args.max_n}", "n\trho\tn+1\t6n\tverdict"]
        lines.extend("\t".join(str(x) for x in row) for row in rows)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED, _lines(lines)


def cmd_orbit(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    if args.count < 1:
        raise ValueError("count must be >= 1")

    def rows() -> Iterator[str]:
        yield f"omega={omega.spec()} count={args.count}\nindex\tprefix\tfixing\n"
        for i, (_, _, fixers) in enumerate(schreier._orbit_rows(omega, args.count)):
            yield f"{i}\t{schreier.ray_at(i).prefix or 'rho'}\t{fixers if i else '-'}\n"

    return EXIT_OK, rows()


def cmd_word(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    word = args.word
    normalized = group.normalize_word(word)
    if args.order and args.max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {args.max_order}")
    trivial = group.is_trivial(word, omega)
    element = fg.embed_word(word, omega) if args.embed_check else None
    lines = [
        f"word={word or '(empty)'} omega={omega.spec()}",
        f"normalized: {normalized or '(empty)'}",
        f"trivial: {trivial}",
    ]
    if args.order:
        order = group.element_order(word, omega, args.max_order)
        lines.append(f"order: {order if order is not None else f'> {args.max_order}'}")
    consistent = True
    if element is not None:
        consistent = fg.is_identity(element) == trivial
        lines.append(f"embedding consistent: {consistent}")
    return EXIT_OK if consistent else EXIT_CHECK_FAILED, _lines(lines)


def cmd_ball(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    sizes = group.ball_sizes(omega, args.max_n)
    lines = [f"omega={omega.spec()}", "radius\tball"]
    lines.extend(f"{i}\t{s}" for i, s in enumerate(sizes))
    return EXIT_OK, _lines(lines)


def cmd_embed(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    word = args.word
    element = fg.embed_word(word, omega)
    identity = fg.is_identity(element)
    out = [
        f"word={word or '(empty)'} omega={omega.spec()}",
        f"radius={element.radius} displacement_bound={element.dbound}",
        f"identity: {identity}",
    ]
    if not identity:
        vertex = group.find_moved_vertex(word, omega)
        witness = None if vertex is None else fg.witness_window(element, vertex)
        if witness is None:  # the word problem or the injectivity argument disagrees
            return EXIT_CHECK_FAILED, _lines([*out, "witness window: none found"])
        out.append(f"witness window (radius {witness.radius}): {witness.letters}")
        out.append(f"witness cocycle: {element.cocycle(witness):+d}")
    return EXIT_OK, chain(_lines(out), fg.dump_element(element) if args.dump else ())


def cmd_double(args) -> tuple[int, Iterable[str]]:
    omega = _table_omega(args)
    lines = [f"omega={omega.spec()} max_n={args.max_n}", "n\trho_Y\tbound\tverdict"]
    all_ok = True
    rho = lambda k: subshift.complexity(omega, k) if k else 1
    for n in range(1, args.max_n + 1):
        # A doubled window that starts on a marker reads floor(n/2) letters,
        # one that starts on a letter ceil(n/2); the first character tells
        # the two classes apart and the letters fix the window within each.
        # rho never decreases, so the verdict holds by construction: the
        # window count is the battery's doubling_bound check, and --words.
        lhs = rho((n + 1) // 2) + rho(n // 2)
        bound = 2 * rho((n + 1) // 2)
        ok = lhs <= bound
        all_ok = all_ok and ok
        lines.append(f"{n}\t{lhs}\t{bound}\t{'pass' if ok else 'FAIL'}")
    words, n = (), args.words
    if n is not None:
        if n < 1:
            raise ValueError("length must be >= 1")
        count, words = subshift._listing(omega, n, doubled=True)
        lines.append(f"words n={n} count={count}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED, _lines(chain(lines, words))


def cmd_verify(args) -> tuple[int, Iterable[str]]:
    specs = tuple(args.omega) if args.omega else battery.DEFAULT_SUITE
    results = battery.run_battery(specs, seed=args.seed, quick=args.quick)
    passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "omegas": list(specs),
            "seed": args.seed,
            "quick": args.quick,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        }
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = [f"verify omegas={','.join(specs)} seed={args.seed} quick={args.quick}"]
        lines.extend(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        )
        lines.append("RESULT: " + ("PASS" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_CHECK_FAILED, _lines(lines)


def cmd_export(args) -> tuple[int, Iterable[str]]:
    omega = parse_omega(args.omega)
    lo, _, hi = args.levels.partition(":")
    # ASCII digits only: int() also takes signs, spaces, "_" and other scripts'
    # digits; "a", ":3" or "1:2:3" give no range either, reported below
    start, stop = (int(b) if b.isascii() and b.isdigit() else 0 for b in (lo, hi or lo))
    if not 1 <= start <= stop:
        raise ValueError(f"level range must satisfy 1 <= lo <= hi, got {args.levels!r}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = omega.spec().replace(":", "_")

    def written() -> Iterator[str]:
        for n in range(start, stop + 1):
            g = schreier.build_gamma_recursive(omega, n)
            _emit(schreier.export_dot(g), outdir / f"gamma_{tag}_n{n}.dot")
            yield f"wrote gamma_{tag}_n{n}.dot ({g.n} vertices)\n"

    return EXIT_OK, written()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grigorchuk",
        description="Grigorchuk groups, Schreier graphs, the associated subshift, "
        "and full-group embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--omega", required=(name != "verify"),
                       action="append" if name == "verify" else "store",
                       help="omega spec `[preperiod:]period` over 0/1/2, e.g. 012 or 2:01")
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        return p

    p = add("graph", cmd_graph, help="build the orbit graph")
    p.add_argument("--level", type=int, default=3, help="recursive construction level")
    p.add_argument("--vertices", type=int, default=None, help="orbit construction on this many vertices")
    p.add_argument("--with-xi", action="store_true", help="keep the three loops at the basepoint")
    p.add_argument("--oracle", action="store_true", help="compare both constructions")
    p.add_argument("--format", choices=("dot", "json", "text"), default="dot")

    p = add("language", cmd_language, help="dump the admissible words of one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")

    p = add("complexity", cmd_complexity, help="complexity table with bounds")
    p.add_argument("--max-n", type=int, default=256)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("orbit", cmd_orbit, help="enumerate orbit points in Gray order")
    p.add_argument("--count", type=int, default=16)

    p = add("word", cmd_word, help="word problem, order, embedding consistency")
    p.add_argument("word", help="word over a/b/c/d")
    p.add_argument("--order", action="store_true")
    p.add_argument("--max-order", type=int, default=1024)
    p.add_argument("--embed-check", action="store_true")

    p = add("ball", cmd_ball, help="ball sizes of the group")
    p.add_argument("--max-n", type=int, default=6)

    p = add("embed", cmd_embed, help="full-group image of a word")
    p.add_argument("word", help="word over a/b/c/d")
    p.add_argument("--dump", action="store_true", help="dump the cocycle table")

    p = add("double", cmd_double, help="doubled-shift language and complexity bound")
    p.add_argument("--max-n", type=int, default=32)
    p.add_argument("--words", type=int, default=None, help="also dump the words of this length")

    p = add("verify", cmd_verify, help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="reduced caps")
    p.add_argument("--seed", type=int, default=battery.DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("export", cmd_export, help="write graph files for a range of levels")
    p.add_argument("--levels", default="1:6", help="level range `lo:hi`")
    p.add_argument("--outdir", default=".")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, chunks = args.fn(args)
        _emit(chunks, args.output)
        return code
    except BrokenPipeError:  # the reader left, as `| head` does: quiet, even at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except EventuallyConstantOmegaError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:  # OmegaParseError is a ValueError; OSError: an unwritable -o or --outdir
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:  # a size the user asked for that does not fit
        sys.stderr.write(f"error: out of memory in {args.command}; ask for a smaller size\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
