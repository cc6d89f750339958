"""CLI surface tests: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import grigorchuk
from grigorchuk import battery, fullgroup as fg, parse_omega, schreier, subshift
from grigorchuk.cli import _graph_json, main

from conftest import SUITE_SPECS, fixing_generator, language

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraph:
    def test_dot_export_level3(self, capsys, tmp_path):
        out_file = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "--omega", "012", "--level", "3",
                           "--format", "dot", "-o", str(out_file))
        assert code == 0
        assert "graph [n=16" in out_file.read_text()

    def test_oracle_match(self, capsys):
        code, out, _ = run(capsys, "graph", "--omega", "012", "--level", "5", "--oracle")
        assert code == 0 and out.startswith("MATCH")

    def test_out_of_memory_exits_2(self):
        # 2^41 vertices do not fit: one line and exit 2, no traceback. The
        # 1 GiB address-space limit is set in the child process alone.
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        env = {**os.environ, "PYTHONPATH": str(Path(grigorchuk.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-m", "grigorchuk.cli", "graph", "--omega", "012", "--level", "40"],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
        )
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "error: out of memory in graph; ask for a smaller size\n"

    def test_oracle_builds_only_what_it_compares(self, capsys, monkeypatch):
        calls = []
        build = schreier.build_gamma_orbit

        def counted(omega, vertex_count, with_xi):
            calls.append(vertex_count)
            return build(omega, vertex_count, with_xi)

        monkeypatch.setattr(schreier, "build_gamma_orbit", counted)
        code, out, _ = run(capsys, "graph", "--omega", "012", "--vertices", "60000",
                           "--oracle", "--level", "3")
        assert code == 0 and out == "MATCH level=3 vertices=16\n"
        assert calls == [16]

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
    @pytest.mark.parametrize("level", ["-2", "-1", "0"])
    def test_bad_level_exits_2(self, capsys, level, oracle):
        code, out, err = run(capsys, "graph", "--omega", "012", "--level", level, *oracle)
        assert code == 2 and out == "" and err == "error: level must be >= 1\n"

    def test_output_into_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        code, out, err = run(capsys, "graph", "--omega", "012", "--level", "3",
                             "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not target.exists()

    def test_invalid_omega_exits_2(self, capsys):
        code, _, err = run(capsys, "graph", "--omega", "3", "--level", "2")
        assert code == 2 and "omega" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "graph", "--omega", "012", "--level", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4 and len(payload["edges"]) == 6

    def test_streamed_json_matches_dumps(self, suite):
        # oracle: the one-shot json.dumps of the same payload
        graphs = [schreier.build_gamma_recursive(w, n) for w in suite for n in range(1, 6)]
        o = parse_omega("2:01")
        graphs += [schreier.build_gamma_orbit(o, k, xi) for k in (2, 3, 7, 40) for xi in (False, True)]
        for g in graphs:
            payload = {"n": g.n, "leftmost": 0, "rightmost": g.n - 1,
                       "edges": [list(e) for e in g.edges]}
            assert "".join(_graph_json(g)) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestLanguage:
    def test_words(self, capsys):
        code, out, _ = run(capsys, "language", "--omega", "012", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega=012 n=2 count=6"
        assert len(lines) == 7

    def test_eventually_constant_exits_3(self, capsys):
        for n in ("0", "2"):
            code, _, err = run(capsys, "language", "--omega", "0:1", "--n", n)
            assert code == 3 and "eventually constant" in err

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_streamed_layouts_match_joined_text(self, capsys, suite, n):
        # oracle: each layout written in one piece from the sorted set
        for w in suite:
            words = [subshift.render_word(u) for u in sorted(language(w, n))]
            header = f"omega={w.spec()} n={n} count={len(words)}"
            layouts = {
                "text": f"{header}\n" + "\n".join(words) + "\n",
                "tsv": f"{header}\n" + "\t".join(words) + "\n",
                "json": json.dumps({"header": header, "words": words}, sort_keys=True, indent=2) + "\n",
            }
            for fmt, expected in layouts.items():
                code, out, _ = run(capsys, "language", "--omega", w.spec(), "--n", str(n), "--format", fmt)
                assert (code, out) == (0, expected), (w.spec(), fmt)


class TestComplexity:
    def test_table_passes(self, capsys):
        code, out, _ = run(capsys, "complexity", "--omega", "012", "--max-n", "64")
        assert code == 0
        assert out.count("pass") == 64 and "FAIL" not in out

    def test_eventually_constant_exits_3(self, capsys):
        code, _, _ = run(capsys, "complexity", "--omega", "0:1", "--max-n", "8")
        assert code == 3

    @pytest.mark.parametrize("command", ["complexity", "double"])
    def test_empty_table_on_constant_omega_exits_3(self, capsys, command):
        code, out, err = run(capsys, command, "--omega", "0:1", "--max-n", "0")
        assert code == 3 and out == "" and "eventually constant" in err

    @pytest.mark.parametrize("command", ["complexity", "double"])
    def test_negative_max_n_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--omega", "012", "--max-n", "-1")
        assert code == 2 and out == "" and "max_n" in err


class TestWord:
    def test_trivial_word(self, capsys):
        code, out, _ = run(capsys, "word", "--omega", "012", "bcd")
        assert code == 0 and "trivial: True" in out

    def test_order(self, capsys):
        code, out, _ = run(capsys, "word", "--omega", "012", "ad", "--order")
        assert code == 0 and "order: 4" in out

    def test_embed_check(self, capsys):
        for word in ("ab", "ab" * 300):
            code, out, _ = run(capsys, "word", "--omega", "012", word, "--embed-check")
            assert code == 0 and "embedding consistent: True" in out

    def test_bad_letters_exit_2(self, capsys):
        code, _, err = run(capsys, "word", "--omega", "012", "xyz")
        assert code == 2 and "letters" in err

    def test_embed_check_on_constant_omega_exits_3_silently(self, capsys):
        for extra in ((), ("--order",)):
            code, out, err = run(capsys, "word", "--omega", "0:1", "ab", "--embed-check", *extra)
            assert code == 3 and out == "" and "eventually constant" in err

    def test_bad_max_order_exits_2(self, capsys):
        code, out, err = run(capsys, "word", "--omega", "012", "ab", "--order", "--max-order", "0")
        assert code == 2 and out == "" and "max_order" in err


class TestBallOrbitEmbedDouble:
    def test_ball(self, capsys):
        code, out, _ = run(capsys, "ball", "--omega", "012", "--max-n", "2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "2\t11"

    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--omega", "012", "--count", "4")
        assert code == 0
        assert "0\trho\t-" in out and "3\t10\tc" in out

    @pytest.mark.parametrize(
        "spec,digest",
        [
            ("012", "5b85646ef43ccc5661ce0a66019530efbf009d14fca0bb239718eb1d87f4f08b"),
            ("2:01", "e4e5a3a8329d610ed9c6a82bb95c0f9804486952fe5998512bd4cf7bb09e7a24"),
        ],
    )
    def test_orbit_digest(self, capsys, spec, digest):
        # pinned from the listing built in one piece before the rows streamed
        code, out, _ = run(capsys, "orbit", "--omega", spec, "--count", "4096")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec", [*SUITE_SPECS, "0:1", "2", "1:02"])
    def test_orbit_matches_ray_and_fixer_oracle(self, capsys, spec):
        # the fixers come from the Gray rows; the oracle reads them off the ray string
        omega = parse_omega(spec)
        code, out, _ = run(capsys, "orbit", "--omega", spec, "--count", "16384")
        expected = [f"omega={omega.spec()} count=16384", "index\tprefix\tfixing"]
        for i in range(16384):
            prefix = schreier.ray_at(i).prefix
            fixing = fixing_generator(prefix, omega) if prefix else "-"
            expected.append(f"{i}\t{prefix or 'rho'}\t{fixing}")
        assert code == 0
        assert out.splitlines() == expected

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_orbit_count_below_one_exits_2(self, capsys, count):
        code, out, err = run(capsys, "orbit", "--omega", "012", "--count", count)
        assert code == 2 and out == ""
        assert err == "error: count must be >= 1\n"

    def test_embed_witness(self, capsys):
        code, out, _ = run(capsys, "embed", "--omega", "012", "ab")
        assert code == 0 and out == (
            "word=ab omega=012\nradius=2 displacement_bound=2\nidentity: False\n"
            "witness window (radius 2): T0T2\nwitness cocycle: -2\n"
        )
        code, out, _ = run(capsys, "embed", "--omega", "012", "ab" * 300)
        assert code == 0 and out.endswith("witness cocycle: +8\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7b65bc52308c3934e58d69cc58c91adef30a3395a8bdc4b7ceff4f5ff39375f1"
        )

    def test_embed_without_witness_exits_1(self, capsys, monkeypatch):
        # a nontrivial word with no witness window is a failed check, not a crash
        monkeypatch.setattr(fg, "witness_window", lambda e, vertex: None)
        code, out, _ = run(capsys, "embed", "--omega", "012", "ab")
        assert code == 1 and out.endswith("identity: False\nwitness window: none found\n")

    def test_embed_disagreement_exits_1(self, capsys, monkeypatch):
        # the full group calls a trivial word nontrivial: a failed check too
        monkeypatch.setattr(fg, "is_identity", lambda e: False)
        code, out, _ = run(capsys, "embed", "--omega", "012", "bcd")
        assert code == 1 and out.endswith("identity: False\nwitness window: none found\n")

    def test_embed_dump(self, capsys):
        code, out, _ = run(capsys, "embed", "--omega", "012", "a", "--dump")
        assert code == 0 and "displacement_bound" in out and "-> +1" in out

    def test_embed_bad_letters_exit_2(self, capsys):
        # the letter check comes before the omega guard
        code, out, err = run(capsys, "embed", "--omega", "0:1", "x")
        assert code == 2 and out == "" and "letters" in err

    def test_double_bound_table(self, capsys):
        code, out, _ = run(capsys, "double", "--omega", "012", "--max-n", "8")
        assert code == 0 and "FAIL" not in out

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_double_words_match_sorted_set(self, capsys, suite, n):
        for w in suite:
            code, out, _ = run(capsys, "double", "--omega", w.spec(), "--max-n", "0", "--words", str(n))
            words = [subshift.render_word(u) for u in sorted(subshift.double_language(w, n))]
            expected = [f"omega={w.spec()} max_n=0", "n\trho_Y\tbound\tverdict",
                        f"words n={n} count={len(words)}", *words]
            assert (code, out) == (0, "\n".join(expected) + "\n"), w.spec()


class TestVerify:
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "fbe3882deb76cd3195154ebcc49e666f47e74773f21cd7ba34c66d56b20d2c39"),
        ("json", "7704af9fba72277ce81cff27843e7472c55c509b3fda6d40b403859a12ece254"),
    ])
    def test_full_caps_output_pinned(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "verify", "--seed", "1729", "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--seed", "5")
        assert code == 0
        assert out.strip().endswith("RESULT: PASS")
        assert out.count("PASS") >= 12

    def test_single_omega(self, capsys):
        code, out, _ = run(capsys, "verify", "--omega", "2:01", "--quick")
        assert code == 0 and "RESULT: PASS" in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "--quick", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--quick", "--seed", "7")
        assert out1 == out2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and len(payload["checks"]) == 12

    def test_json_check_names_in_order(self, capsys):
        _, out, _ = run(capsys, "verify", "--quick", "--format", "json")
        assert [c["name"] for c in json.loads(out)["checks"]] == [
            "gray_code_matches_published_listing",
            "graph_oracle_equivalence",
            "gray_order_equals_bfs_distance",
            "complexity_bounds",
            "doubling_complexity_bound",
            "embedding_homomorphism_injectivity",
            "schreier_cocycle_consistency",
            "relations_map_to_identity",
            "torsion_evidence",
            "commutator_embedding",
            "degenerate_case_witnesses",
            "uniform_recurrence_terminates",
        ]

    def test_checks_are_looked_up_per_run(self, capsys, monkeypatch):
        # a wrapper installed on the module (as a tracer does) is the one that runs
        monkeypatch.setattr(battery, "check_relations", lambda omegas, caps, seed: (False, "stub"))
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1 and "FAIL relations_map_to_identity: stub" in out.splitlines()

    def test_eventually_constant_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--omega", "0:1", "--quick")
        assert code == 3 and "eventually constant" in err

    def test_bad_omega_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--omega", "xyz", "--quick")
        assert code == 2 and "omega" in err

    def test_raising_check_is_a_failure(self, capsys, monkeypatch):
        def broken(omega, n):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(subshift, "complexity", broken)
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        results = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
        assert len(results) == 12
        assert "FAIL complexity_bounds: raised RuntimeError: injected fault" in results
        assert out.strip().endswith("RESULT: FAIL")


class TestExport:
    def test_writes_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export", "--omega", "2:01", "--levels", "1:3",
                           "--outdir", str(tmp_path))
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["gamma_2_01_n1.dot", "gamma_2_01_n2.dot", "gamma_2_01_n3.dot"]

    def test_golden_files(self, capsys, tmp_path):
        # the golden files are regenerated by exactly this command
        code, _, _ = run(capsys, "export", "--omega", "012", "--levels", "1:6",
                         "--outdir", str(tmp_path))
        assert code == 0
        golden = sorted(p.name for p in GOLDEN.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == golden
        for name in golden:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_reversed_range_exits_2(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code, _, err = run(capsys, "export", "--omega", "012", "--levels", "3:1",
                           "--outdir", str(outdir))
        assert code == 2 and "level range" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("levels", ["1:2:3", ":3", "a", " 0_2 : 3", "+2:3", "\u0663:4"])
    def test_malformed_range_exits_2(self, capsys, tmp_path, levels):
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "export", "--omega", "012", "--levels", levels,
                             "--outdir", str(outdir))
        assert code == 2 and out == ""
        assert err == f"error: level range must satisfy 1 <= lo <= hi, got {levels!r}\n"
        assert not outdir.exists()

    def test_outdir_on_a_file_exits_2(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, _, err = run(capsys, "export", "--omega", "012", "--levels", "1:2",
                           "--outdir", str(taken))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--omega", "012", "--level", "3"),
        ("graph", "--omega", "2:01", "--vertices", "40", "--with-xi", "--format", "json"),
        ("graph", "--omega", "012", "--level", "4", "--format", "text"),
        ("graph", "--omega", "012", "--level", "4", "--oracle"),
        ("language", "--omega", "012", "--n", "3", "--format", "tsv"),
        ("complexity", "--omega", "012", "--max-n", "16", "--format", "json"),
        ("orbit", "--omega", "012", "--count", "20"),
        ("word", "--omega", "012", "ad", "--order", "--embed-check"),
        ("ball", "--omega", "012", "--max-n", "4"),
        ("embed", "--omega", "012", "ab"),
        ("embed", "--omega", "012", "ab", "--dump"),
        ("double", "--omega", "012", "--max-n", "8", "--words", "4"),
        ("verify", "--quick", "--omega", "2:01"),
        ("export", "--omega", "2:01", "--levels", "1:2"),
    ],
    ids=["graph-dot", "graph-json", "graph-text", "graph-oracle", "language", "complexity",
         "orbit", "word", "ball", "embed", "embed-dump", "double", "verify", "export"],
)
def test_output_file_holds_the_whole_output(capsys, tmp_path, argv):
    # -o F receives exactly what the run without it prints, stdout stays
    # empty, and the exit code is the same
    def outdir(name):
        return ("--outdir", str(tmp_path / name)) if argv[0] == "export" else ()

    code, out, err = run(capsys, *argv, *outdir("plain"))
    target = tmp_path / "F"
    code_o, out_o, err_o = run(capsys, *argv, *outdir("to_file"), "-o", str(target))
    assert out and code_o == code and out_o == "" and err_o == err
    assert target.read_bytes() == out.encode()
    if argv[0] == "export":
        assert sorted(p.name for p in (tmp_path / "to_file").iterdir()) == [
            "gamma_2_01_n1.dot", "gamma_2_01_n2.dot"
        ]


def test_output_file_keeps_a_failing_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(battery, "check_relations", lambda omegas, caps, seed: (False, "stub"))
    target = tmp_path / "F"
    code, out, _ = run(capsys, "verify", "--quick", "-o", str(target))
    assert code == 1 and out == ""
    assert "FAIL relations_map_to_identity: stub" in target.read_text().splitlines()


@pytest.mark.parametrize("argv, err", [
    (("language", "--omega", "012", "--n", "-1"), "error: length must be >= 0\n"),
    (("language", "--omega", "0:1", "--n", "-1"), "error: length must be >= 0\n"),
    (("double", "--omega", "012", "--words", "0"), "error: length must be >= 1\n"),
    (("double", "--omega", "012", "--words", "-3"), "error: length must be >= 1\n"),
], ids=["language-negative", "language-negative-constant", "double-zero", "double-negative"])
def test_bad_listing_length_exits_2_before_any_output(capsys, tmp_path, argv, err):
    # a streamed listing checks its length before its first chunk: nothing is
    # printed and no -o file is made; the length check precedes the omega guard
    target = tmp_path / "F"
    for extra in ((), ("-o", str(target))):
        assert run(capsys, *argv, *extra) == (2, "", err)
    assert not target.exists()


def _child(argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(Path(grigorchuk.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-m", "grigorchuk.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("argv", [
    ("language", "--omega", "012", "--n", "64"),
    ("orbit", "--omega", "012", "--count", "5000"),
    ("embed", "--omega", "012", "ab" * 50, "--dump"),
    ("graph", "--omega", "012", "--level", "6"),
    ("word", "--omega", "012", "ab"),
], ids=["language", "orbit", "embed-dump", "graph", "word"])
def test_closed_stdout_exits_141_quietly(argv):
    # the reader left before the first write: exit 128 + SIGPIPE and nothing
    # on stderr, however short the output
    read, write = os.pipe()
    os.close(read)
    try:
        child = _child(argv, stdout=write)
    finally:
        os.close(write)
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, b"")


def test_pipe_closed_after_the_first_line_exits_141_quietly():
    # as `| head -1`: the listing is far longer than a pipe holds
    child = _child(("orbit", "--omega", "012", "--count", "200000"), stdout=subprocess.PIPE)
    assert child.stdout.readline() == b"omega=012 count=200000\n"
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph"])  # --omega missing
    assert exc.value.code == 2


# Every accepted input ends in an exit code: the omega spellings below (valid,
# empty, malformed, out of alphabet, repeated, eventually constant, a long
# preperiod) crossed with edge values of eight subcommands.
SWEEP_OMEGAS = ("012", "", ":", "3", "012012", "1:01", "0:1", "2" * 30 + ":01", "10:012", "2:01",
                "0:", ":0", "01:", "a")
SWEEP_ARGS = (
    *(("embed", word) for word in ("", "e", "abz", "abacabad")),
    ("embed", "a", "--dump"), ("embed", "abcd", "--dump"),
    *(("word", word) for word in ("", "e", "abz", "abcd")),
    *(("word", "ab", "--order", "--max-order", k) for k in ("0", "64")),
    ("word", "abacab", "--embed-check"),
    *(("double", "--max-n", k) for k in ("-1", "0", "8", "x")),
    ("double", "--max-n", "2", "--words", "0"), ("double", "--max-n", "2", "--words", "6"),
    *(("language", "--n", k) for k in ("-1", "0", "1", "9", "1e3")),
    ("language", "--n", "4", "--format", "json"),
    *(("complexity", "--max-n", k) for k in ("-1", "0", "16", " 2")),
    ("complexity", "--max-n", "3", "--format", "json"),
    *(("orbit", "--count", k) for k in ("-1", "0", "1", "16", "٣")),
    *(("ball", "--max-n", k) for k in ("-1", "0", "3", "x")),
    *(("graph", "--level", k) for k in ("-1", "0", "3")),
    ("graph", "--level", "3", "--format", "json"), ("graph", "--vertices", "0"),
    ("graph", "--vertices", "9", "--with-xi"), ("graph", "--level", "4", "--oracle"),
)


def test_sweep_ends_in_an_exit_code(capsys):
    # 644 argv in process: each exits 0-3 with nothing raised out of `main`
    # (argparse's own exit 2 included), and exits 2 and 3 say why on stderr
    assert len(SWEEP_OMEGAS) * len(SWEEP_ARGS) == 644
    codes = {}
    for spec in SWEEP_OMEGAS:
        for command, *rest in SWEEP_ARGS:
            argv = [command, "--omega", spec, *rest]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv
            assert code < 2 or "error:" in err or "unsupported:" in err, (argv, err)
            codes[code] = codes.get(code, 0) + 1
    assert set(codes) >= {0, 2, 3}, codes
