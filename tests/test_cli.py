import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from doubletrace import SizeGuardError, cli
from doubletrace.cli import EXIT_GUARD, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main

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
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:")

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
