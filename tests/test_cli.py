import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from doubletrace import SizeGuardError, cli, enumerator, oracle
from doubletrace.cli import EXIT_GUARD, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main

from test_enumerator import SPANNING_TREE_DECIDED

ROOT = Path(__file__).resolve().parent.parent

K4_STRONG_LINES = [
    "0 1 2 0 1 3 0 2 3 1 2 3",
    "0 1 2 0 1 3 2 0 3 1 2 3",
    "0 1 2 0 1 3 2 1 3 0 2 3",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_lines(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


class TestEnumerate:
    def test_text_output(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--named", "tetrahedron", "--kind", "strong"
        )
        assert code == EXIT_OK
        assert "# count: 3" in out
        assert body_lines(out) == K4_STRONG_LINES

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["graph"] == "tetrahedron"
        assert (payload["n"], payload["m"]) == (4, 6)
        assert payload["config"] == "kind=strong orientation=any"
        assert payload["count"] == 3
        assert payload["traces"][0] == [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3]

    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong", "--count-only",
        )
        assert code == EXIT_OK
        assert body_lines(out) == []
        assert "# count: 3" in out
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong",
            "--count-only", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 3 and "traces" not in payload

    def test_graph6_matches_named(self, capsys):
        # "C~" encodes the complete graph on four vertices.
        code, out, _ = run(
            capsys, "enumerate", "--graph6", "C~", "--kind", "strong"
        )
        assert code == EXIT_OK
        assert body_lines(out) == K4_STRONG_LINES

    def test_named_with_size(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "prism:3", "--kind", "strong", "--count-only",
        )
        assert code == EXIT_OK
        assert "# count: 25" in out

    def test_edges_file_with_relabeling(self, capsys, tmp_path):
        # Vertices 0 and 1 are not adjacent in this listing, so the CLI
        # re-labels before enumerating and reports the permutation.
        path = tmp_path / "triangle.txt"
        path.write_text("# a triangle\n0 2\n1 2\n0 1\n")
        code, out, _ = run(capsys, "enumerate", "--edges", str(path))
        assert code == EXIT_OK
        assert "# count: 2" in out
        assert not any("relabeling" in line for line in out.splitlines())

        path2 = tmp_path / "path_square.txt"
        path2.write_text("0 2\n2 1\n1 3\n3 0\n")
        code, out, _ = run(capsys, "enumerate", "--edges", str(path2), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "relabeling" in payload
        assert all(t[:2] == [0, 1] for t in payload["traces"])

    def test_edges_file_with_byte_order_mark(self, capsys, tmp_path):
        # Windows PowerShell 5.1 writes UTF-8 files with a byte-order mark.
        path = tmp_path / "triangle-bom.txt"
        path.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "enumerate", "--edges", str(path))
        assert code == EXIT_OK
        assert "# count: 2" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traces.txt"
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert f"# wrote {target}" in out
        content = target.read_text().splitlines()
        assert [l for l in content if not l.startswith("#")] == K4_STRONG_LINES

    def test_note_on_infeasible_parallel_strong(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong",
            "--orientation", "parallel",
        )
        assert code == EXIT_OK
        assert "# count: 0" in out
        assert "some vertex has odd degree" in out

    @pytest.mark.parametrize(
        "kind", [["--kind", "double"], ["--kind", "stable", "--d", "1"]], ids=["double", "stable"]
    )
    def test_note_on_infeasible_parallel_any_kind(self, capsys, kind):
        # Every parallel trace enters each vertex as often as it leaves it,
        # whatever its kind, so an odd degree rules all of them out.
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", *kind, "--orientation", "parallel",
        )
        assert code == EXIT_OK
        assert "# count: 0" in out
        assert "some vertex has odd degree" in out

    def test_note_on_infeasible_antiparallel_strong(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "cube", "--kind", "strong",
            "--orientation", "antiparallel", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == 0
        assert "spanning tree" in payload["note"]

    def test_note_on_odd_cycle_rank_above_the_spanning_tree_limit(self, capsys):
        # prism:6 has 18 edges, more than the spanning-tree test takes, and
        # an odd cycle rank, 7: some co-tree component is odd.
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "prism:6", "--kind", "strong",
            "--orientation", "antiparallel",
        )
        assert code == EXIT_OK
        assert "# count: 0" in out
        assert "# note: no antiparallel strong trace exists: every spanning tree" in out

    def test_json_note_on_odd_cycle_rank_dodecahedron(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "dodecahedron", "--kind", "strong",
            "--orientation", "antiparallel", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == 0
        assert payload["note"].startswith(
            "no antiparallel strong trace exists: every spanning tree"
        )

    def test_note_asks_the_spanning_tree_test_once(self, capsys, monkeypatch, tmp_path):
        # The note is decided before the search, which then does not run.
        calls = 0
        original = enumerator.admits_antiparallel_strong

        def counting(graph):
            nonlocal calls
            calls += 1
            return original(graph)

        monkeypatch.setattr(enumerator, "admits_antiparallel_strong", counting)
        graph = SPANNING_TREE_DECIDED[0]
        path = tmp_path / "graph.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
        code, out, _ = run(
            capsys,
            "enumerate", "--edges", str(path), "--kind", "strong", "--orientation", "antiparallel",
        )
        assert code == EXIT_OK
        assert "# count: 0" in out
        assert "# note: no antiparallel strong trace exists: every spanning tree" in out
        assert calls == 1

    # sha256 of the prism:3 strong report less its "seconds" line: as text
    # (on stdout and in the --out file) and as JSON.
    PRISM3_STRONG_SHA256 = {
        "text": "3836c4ad5ab4a235d14df690a6f4dd17798607ef9b8d469f270ab8579a92f4f2",
        "json": "ae1d8e083a0cc36861bdab434d96bafce138348b1e7e9d76267e353ccbd90a8a",
    }

    @staticmethod
    def without_seconds(text):
        return "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("# seconds:") and '"seconds":' not in line
        )

    def test_reports_are_pinned(self, capsys, tmp_path):
        argv = ["enumerate", "--named", "prism:3", "--kind", "strong"]
        for fmt, digest in self.PRISM3_STRONG_SHA256.items():
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == EXIT_OK
            assert hashlib.sha256(self.without_seconds(out).encode()).hexdigest() == digest, fmt
        target = tmp_path / "traces.txt"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_OK
        text = self.without_seconds(target.read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == self.PRISM3_STRONG_SHA256["text"]
        assert self.without_seconds(out) == (
            "# graph: prism:3 (n=6, m=9)\n# config: kind=strong orientation=any\n"
            f"# count: 25\n# wrote {target}\n"
        )

    @staticmethod
    def peak_bytes(capsys, *argv):
        """Peak traced memory of one CLI run, its output captured."""
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert "# count: 3604" in out
        return peak

    # prism:6 strong has 3 604 traces of 36 vertices, about 1.3 MB as
    # tuples.  Measured peaks under capsys: 0.06-0.10 MB when only
    # counted, against 1.27-1.29 MB for the length of a list; 1.36 MB for
    # the text report, which frees each tuple once its line exists,
    # against 2.57 MB holding the tuples, the lines and the joined text
    # at once.
    def test_count_only_holds_no_trace(self, capsys):
        argv = ["enumerate", "--named", "prism:6", "--kind", "strong", "--count-only"]
        assert self.peak_bytes(capsys, *argv) < 600_000

    def test_text_report_holds_each_trace_once(self, capsys):
        argv = ["enumerate", "--named", "prism:6", "--kind", "strong"]
        assert self.peak_bytes(capsys, *argv) < 1_900_000

    # The JSON report of prism:6 strong is 1.23 MB.  Measured peaks with
    # --out: 11.4 MB while the report was encoded whole before writing,
    # 1.33 MB streamed chunk by chunk, mostly the trace list.
    def test_json_report_is_streamed_to_the_out_file(self, capsys, tmp_path):
        target = tmp_path / "traces.json"
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys,
                "enumerate", "--named", "prism:6", "--kind", "strong",
                "--format", "json", "--out", str(target),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out == f"# wrote {target}\n"
        assert json.loads(target.read_text())["count"] == 3604
        assert peak < 4_000_000

    def test_json_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["enumerate", "--named", "prism:3", "--kind", "strong", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        target = tmp_path / "traces.json"
        # An existing file is replaced, not appended to.
        target.write_text("x" * 100_000)
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_OK
        text = self.without_seconds(target.read_text())
        assert text == self.without_seconds(out)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PRISM3_STRONG_SHA256["json"]

    def test_json_out_file(self, capsys, tmp_path):
        target = tmp_path / "traces.json"
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "tetrahedron", "--kind", "strong",
            "--format", "json", "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == f"# wrote {target}\n"
        payload = json.loads(target.read_text())
        assert payload["count"] == 3
        assert [" ".join(map(str, t)) for t in payload["traces"]] == K4_STRONG_LINES

    def test_stable_kind(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--graph6", "Bw", "--kind", "stable", "--d", "1",
            "--count-only",
        )
        assert code == EXIT_OK
        assert "# count: 1" in out

    def test_jobs(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--named", "prism:3", "--kind", "strong",
            "--count-only", "--jobs", "2",
        )
        assert code == EXIT_OK
        assert "# count: 25" in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--named", "blob"),
            ("enumerate", "--named", "prism:x"),
            ("enumerate", "--named", "tetrahedron", "--kind", "stable"),
            ("enumerate", "--named", "tetrahedron", "--kind", "strong", "--d", "2"),
            ("enumerate", "--graph6", "!!"),
            ("enumerate", "--edges", "/nonexistent/edges.txt"),
            ("verify", "--graph6", "Bw", "--kinds", "sturdy"),
            ("verify", "--graph6", "Bw", "--kinds", "stable"),
            ("verify", "--graph6", "Bw", "--orientations", "sideways"),
            ("verify", "--graph6", "Bw", "--kinds", "stable:x"),
            ("verify", "--graph6", "Bw", "--kinds", "stable:0"),
            # Rejected before any worker process starts.
            ("enumerate", "--named", "tetrahedron", "--jobs", "0"),
            ("enumerate", "--named", "tetrahedron", "--jobs", "-2"),
            ("tables", "--jobs", "0"),
            ("tables", "--jobs", "-2"),
            ("verify", "--graph6", "Bw", "--orientations", ","),
            ("verify", "--graph6", "Bw", "--kinds", "strong:3"),
            ("verify", "--graph6", "Bw", "--kinds", "any:2"),
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--named", "cube", "--kind", "double", "--d", "2"),
            ("verify", "--named", "tetrahedron", "--kinds", "double:2"),
        ],
        ids=["enumerate", "verify"],
    )
    def test_d_error_names_no_kind_the_user_did_not_type(self, capsys, argv):
        # The CLI's "double" is the configuration's "any".
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "d is only meaningful for kind 'stable'" in err
        assert "'any'" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--named", "tetrahedron", "--out"),
            ("enumerate", "--named", "tetrahedron", "--format", "json", "--out"),
            ("orbits", "--graph6", "Bw", "--dot"),
        ],
        ids=["enumerate-text", "enumerate-json", "orbits-dot"],
    )
    def test_unwritable_output_path(self, capsys, monkeypatch, tmp_path, argv):
        # The path is refused before any search runs.
        def no_search(*args, **kwargs):
            pytest.fail("searched before opening the output file")

        monkeypatch.setattr(cli, "enumerate_traces", no_search)
        monkeypatch.setattr(cli, "brute_enumerate", no_search)
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, *argv, str(target))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot write {target}")
        assert not target.exists()

    def test_edges_file_not_utf8(self, capsys, tmp_path):
        target = tmp_path / "latin1.txt"
        target.write_bytes(b"0 1\n1 2 \xe9\n")
        code, out, err = run(capsys, "enumerate", "--edges", str(target))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot read {target}: 'utf-8' codec")
        assert out == ""

    def test_missing_graph_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--kind", "strong"])
        assert exc.value.code == 2

    def test_conflicting_graph_sources(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--named", "cube", "--graph6", "C~"])
        assert exc.value.code == 2


class TestGuardExits:
    def test_verify_refuses_large_graph(self, capsys):
        code, _, err = run(capsys, "verify", "--named", "dodecahedron")
        assert code == EXIT_GUARD
        assert "refuses" in err

    def test_orbits_refuses_large_graph(self, capsys):
        code, _, err = run(capsys, "orbits", "--named", "prism:5")
        assert code == EXIT_GUARD
        assert "refuses" in err

    def test_orbits_refuses_too_many_raw_traces(self, capsys, monkeypatch):
        # A cached trace set would be returned without running the DFS.
        oracle._raw_double_traces.cache_clear()
        monkeypatch.setattr(oracle, "RAW_TRACES_MAX", 100)
        try:
            code, _, err = run(capsys, "orbits", "--named", "tetrahedron")
        finally:
            oracle._raw_double_traces.cache_clear()
        assert code == EXIT_GUARD
        assert "more than 100 raw traces" in err

    def test_refused_run_keeps_an_existing_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        target.write_bytes(b"digraph kept {}\n")
        code, _, _ = run(capsys, "orbits", "--named", "prism:5", "--dot", str(target))
        assert code == EXIT_GUARD
        assert target.read_bytes() == b"digraph kept {}\n"

    def test_refused_run_leaves_no_new_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, _, _ = run(capsys, "orbits", "--named", "prism:5", "--dot", str(target))
        assert code == EXIT_GUARD
        assert not target.exists()

    def test_exit_code_follows_the_error_type(self, capsys, monkeypatch):
        def raise_(exc):
            def fail(*args, **kwargs):
                raise exc

            return fail

        argv = ("enumerate", "--named", "tetrahedron")
        monkeypatch.setattr(cli, "enumerate_traces", raise_(SizeGuardError("too big")))
        assert run(capsys, *argv)[0] == EXIT_GUARD
        # The message alone does not make an error a size guard refusal.
        monkeypatch.setattr(cli, "enumerate_traces", raise_(ValueError("refuses graphs")))
        assert run(capsys, *argv)[0] == EXIT_INTERNAL


class TestVerify:
    def test_default_configurations(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph6", "Bw")
        assert code == EXIT_OK
        ok_lines = [l for l in out.splitlines() if l.startswith("OK:")]
        # 4 kinds (double, strong, stable:1, stable:2) x 3 orientations.
        assert len(ok_lines) == 12
        assert "# all configurations agree with the oracle" in out

    def test_restricted_configuration(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--named", "tetrahedron",
            "--kinds", "strong", "--orientations", "any",
        )
        assert code == EXIT_OK
        ok_lines = [l for l in out.splitlines() if l.startswith("OK:")]
        assert len(ok_lines) == 1
        assert "enumerator=3 oracle=3" in ok_lines[0]

    def test_stable_order_above_every_degree(self, capsys):
        # stable(4) on K4 asks for more than any repetition can have, so
        # it keeps exactly the strong traces, in the oracle too.
        code, out, _ = run(
            capsys,
            "verify", "--named", "tetrahedron",
            "--kinds", "stable:4", "--orientations", "any",
        )
        assert code == EXIT_OK
        ok_lines = [l for l in out.splitlines() if l.startswith("OK:")]
        assert len(ok_lines) == 1
        assert "enumerator=3 oracle=3" in ok_lines[0]

    def test_singular_flag_aliases(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--named", "tetrahedron",
            "--kind", "strong", "--orientation", "any",
        )
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if l.startswith("OK:")]) == 1


class TestOrbits:
    def test_k4_strong_gamma(self, capsys):
        code, out, _ = run(
            capsys, "orbits", "--named", "tetrahedron", "--kind", "strong"
        )
        assert code == EXIT_OK
        assert "# traces: 672" in out
        assert "3 orbits: 288 288 96" in out

    def test_subgroup_choice(self, capsys):
        code, out, _ = run(
            capsys,
            "orbits", "--named", "tetrahedron", "--kind", "strong",
            "--subgroup", "shift",
        )
        assert code == EXIT_OK
        assert any(l.startswith("56 orbits:") for l in out.splitlines())

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "orbits", "--graph6", "Bw", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["total"] == 24
        assert payload["orbit_count"] == 2

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "orbits.dot"
        code, out, _ = run(
            capsys, "orbits", "--graph6", "Bw", "--dot", str(target)
        )
        assert code == EXIT_OK
        assert f"# wrote {target}" in out
        text = target.read_text()
        assert text.startswith('graph "gamma-orbits" {')
        assert text.rstrip().endswith("}")

    def test_dot_walks_the_orbits_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        walk = oracle._orbits

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(oracle, "_orbits", counted)
        code, _, _ = run(
            capsys, "orbits", "--graph6", "Bw", "--dot", str(tmp_path / "orbits.dot")
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    # sha256 of the DOT files that `orbits --named tetrahedron --kind strong`
    # writes: node lines in trace order, then one edge per non-minimal trace.
    K4_STRONG_DOT_SHA256 = {
        "gamma": "f177e331f98947ce4aae31f0ac77fd54cc9c09b961ac201d6f8aa04bb9d861c9",
        "aut": "696e02afd1b1ce8dee27a873f802e32e69df816e6e8f9ea2056f85cdbeac4581",
        "reversal": "911dff247420afc22eaa92172a56b93150090f5e3175ac6b3a2912ef4bb45e52",
        "shift": "4cb51ac76139800a7e023f949474af1ffcfa06f398c2902210af50c7a743081c",
    }

    @pytest.mark.parametrize("subgroup", sorted(K4_STRONG_DOT_SHA256))
    def test_k4_strong_dot_is_pinned(self, capsys, tmp_path, subgroup):
        target = tmp_path / "orbits.dot"
        code, _, _ = run(
            capsys,
            "orbits", "--named", "tetrahedron", "--kind", "strong",
            "--subgroup", subgroup, "--dot", str(target),
        )
        assert code == EXIT_OK
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == self.K4_STRONG_DOT_SHA256[subgroup]


class TestTables:
    FAST_ROWS = [
        ("solids", "tetrahedron", 3, "parallel", 0, False),
        ("prisms", "prism:3", 25, "antiparallel", 2, False),
        ("pyramids", "pyramid:4", 52, "antiparallel", 4, False),
    ]

    def test_pass(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_TABLE_ROWS", self.FAST_ROWS)
        code, out, _ = run(capsys, "tables")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3
        assert all(l.endswith("PASS") for l in lines)

    def test_fail_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_TABLE_ROWS", [("solids", "tetrahedron", 4, "parallel", 0, False)]
        )
        code, out, err = run(capsys, "tables")
        assert code == EXIT_INTERNAL
        assert any(l.endswith("FAIL") for l in out.splitlines())
        assert "failed" in err

    def test_slow_rows_skipped_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "_TABLE_ROWS",
            [
                ("solids", "tetrahedron", 3, "parallel", 0, False),
                ("solids", "dodecahedron", 2532008, "parallel", 0, True),
            ],
        )
        code, out, _ = run(capsys, "tables")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1 and "tetrahedron" in lines[0]

    def test_reference_rows_are_complete(self):
        # The table data itself: every built-in family row is present.
        specs = [row[1] for row in cli._TABLE_ROWS]
        assert specs == [
            "tetrahedron", "cube", "octahedron", "dodecahedron",
            "prism:3", "prism:4", "prism:5", "prism:6", "prism:7",
            "prism:8", "prism:9", "prism:10",
            "pyramid:4", "bipyramid:3",
        ]


class TestConsoleScript:
    ARGS = ["enumerate", "--named", "tetrahedron", "--kind", "strong", "--count-only"]

    def test_installed_entry_point(self):
        import tomllib

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "doubletrace.cli"],
            capture_output=True,
            text=True,
            env=env,
        )
        # No subcommand: argparse usage error.
        assert proc.returncode == 2
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts["doubletrace"] == "doubletrace.cli:main"
        # Run the target as the generated console script does.
        module, _, func = scripts["doubletrace"].partition(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        commands = [[sys.executable, "-c", script, *self.ARGS]]
        installed = shutil.which("doubletrace")
        if installed is not None:
            commands.append([installed, *self.ARGS])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "# count: 3" in proc.stdout

    def test_reader_closing_early_is_not_an_error(self):
        # As with `| head -1`: the reader takes one line and closes the pipe
        # while the command still has about 170 kB of traces to write.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "doubletrace.cli", "enumerate", "--named", "cube"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        assert proc.stdout.readline().startswith("# graph: cube")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_OK, err
        assert "internal error" not in err
