"""CLI surface tests: subcommands, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from grigorchuk import battery, parse_omega, schreier, subshift
from grigorchuk.cli import _graph_json, main

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_orbit_count_below_one_exits_2(self, capsys, count):
        code, out, err = run(capsys, "orbit", "--omega", "012", "--count", count)
        assert code == 2 and out == ""
        assert err == "error: count must be >= 1\n"

    def test_embed_witness(self, capsys):
        for word in ("ab", "ab" * 300):
            code, out, _ = run(capsys, "embed", "--omega", "012", word)
            assert code == 0 and "identity: False" in out
            assert "witness window (radius" in out and "witness cocycle: " in out

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


class TestVerify:
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

    def test_outdir_on_a_file_exits_2(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, _, err = run(capsys, "export", "--omega", "012", "--levels", "1:2",
                           "--outdir", str(taken))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert taken.read_text() == "keep"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph"])  # --omega missing
    assert exc.value.code == 2
