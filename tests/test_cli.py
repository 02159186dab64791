import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import invoke
from hypothesis import given, settings
from hypothesis import strategies as hst

from quiverstab.cli import main
from quiverstab.quiver import quiver_from_json

P2_VALUES = {f"a{j}_{k}": "1" for j in ("21", "32") for k in (1, 2, 3)}


class TestCatalogCommand:
    def test_list(self, runner):
        result = runner.invoke(main, ["catalog"])
        assert result.exit_code == 0
        for name in ("p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral"):
            assert name in result.output

    def test_list_json(self, runner):
        result = runner.invoke(main, ["catalog", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert any(e["name"] == "f1" for e in data["entries"])

    def test_list_json_marks_templates(self, runner):
        result = runner.invoke(main, ["catalog", "--format", "json"])
        rows = json.loads(result.output)["entries"]
        assert {e["name"]: e["template"] for e in rows} == {
            "p2": False,
            "f1": False,
            "p1xp1": False,
            "p2-helix": False,
            "p1xp1-spiral": False,
            "pn(k)": True,
        }

    @pytest.mark.parametrize(
        "args",
        [
            ["catalog", "pn(k)"],
            ["check", "--example", "pn(k)", "--chi=-1,0,1", "--taut", "1:2:3"],
            ["separate", "--example", "pn(k)"],
        ],
    )
    def test_template_name_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "template" in result.output and "pn(3)" in result.output

    def test_export_round_trip(self, runner):
        result = runner.invoke(main, ["catalog", "f1"])
        assert result.exit_code == 0
        from quiverstab.catalog import get_entry

        assert quiver_from_json(result.output) == get_entry("f1").quiver

    def test_unknown_name(self, runner):
        result = runner.invoke(main, ["catalog", "nope"])
        assert result.exit_code == 2

    def test_list_builds_no_entry(self, runner, monkeypatch):
        def refuse(name):
            raise AssertionError(f"listing built {name}")

        monkeypatch.setattr("quiverstab.catalog.get_entry", refuse)
        result = runner.invoke(main, ["catalog", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["entries"]) == 6


@pytest.mark.parametrize(
    "args",
    [
        ["catalog", "f1"],
        ["check", "--example", "p2", "--chi=-1,0,1", "--taut", "1:2:3"],
    ],
)
def test_closed_stdout_exits_1_without_traceback(args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quiverstab.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the command writes
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr


@pytest.mark.parametrize("command", [["check", "--chi=-1,0,1"], ["supports"], ["cone"]])
def test_fiber_with_point_exits_2(runner, tmp_path, command):
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"values": P2_VALUES}))
    result = runner.invoke(
        main, [*command, "--example", "p2", "--point", str(point), "--fiber", "2"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == "Error: --fiber goes with --taut, not --point"


class TestCheckCommand:
    def test_p2_taut_stable(self, runner):
        result = runner.invoke(
            main,
            ["check", "--example", "p2", "--chi=-1,0,1", "--taut", "1:2:3"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "stable"

    def test_json_format(self, runner):
        result = runner.invoke(
            main,
            [
                "check",
                "--example",
                "p2",
                "--chi=-1,0,1",
                "--taut",
                "1:2:3",
                "--format",
                "json",
            ],
        )
        data = json.loads(result.output)
        assert data["stable"] is True
        assert data["satisfies_relations"] is True

    def test_unstable_with_witness(self, runner):
        result = runner.invoke(
            main,
            ["check", "--example", "p2", "--chi=1,0,-1", "--taut", "1:2:3"],
        )
        assert result.exit_code == 0
        assert "unstable" in result.output
        assert "violating support" in result.output

    def test_point_file(self, runner, tmp_path):
        point = tmp_path / "p.json"
        point.write_text(
            json.dumps(
                {
                    "values": {
                        "a21_1": "1",
                        "a21_2": "0",
                        "a21_3": "0",
                        "a32_1": "1",
                        "a32_2": "0",
                        "a32_3": "0",
                    }
                }
            )
        )
        result = runner.invoke(
            main,
            ["check", "--example", "p2", "--chi=-1,0,1", "--point", str(point)],
        )
        assert result.exit_code == 0
        assert "stable" in result.output

    def test_strict_violating_point_exits_1(self, runner, tmp_path):
        point = tmp_path / "p.json"
        point.write_text(
            json.dumps(
                {
                    "values": {
                        "a21_1": "1",
                        "a21_2": "0",
                        "a21_3": "0",
                        "a32_1": "0",
                        "a32_2": "1",
                        "a32_3": "0",
                    }
                }
            )
        )
        result = runner.invoke(
            main,
            [
                "check",
                "--example",
                "p2",
                "--chi=-1,0,1",
                "--point",
                str(point),
                "--strict",
            ],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "command,extra",
        [("check", ["--chi=-1,0,0,0,1"]), ("supports", [])],
    )
    def test_relations_evaluated_once(self, runner, monkeypatch, command, extra):
        from quiverstab import points

        calls = []

        def counting(q, p):
            calls.append(q.n)
            return real(q, p)

        real = points.satisfies_relations
        monkeypatch.setattr("quiverstab.points.satisfies_relations", counting)
        result = runner.invoke(main, [command, "--example", "pn(4)", "--taut", "1:2:3:4:5", *extra])
        assert result.exit_code == 0, result.output
        assert calls == [5]

    @pytest.mark.parametrize("value", [0.5, "1/0", True])
    def test_bad_point_value_exits_2(self, runner, tmp_path, value):
        point = tmp_path / "p.json"
        values = {f"a{j}_{k}": "1" for j in ("21", "32") for k in (1, 2, 3)}
        values["a21_1"] = value
        point.write_text(json.dumps({"values": values}))
        result = runner.invoke(
            main, ["check", "--example", "p2", "--chi=-1,0,1", "--point", str(point)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "bad point file" in result.output

    @pytest.mark.parametrize(
        "data",
        [
            [{"values": P2_VALUES}],
            {"point": P2_VALUES},
            {"values": "a21_1"},
            {"values": list(P2_VALUES)},
            {"values": {**P2_VALUES, "a43_1": "1"}},
            {"values": {k: v for k, v in P2_VALUES.items() if k != "a32_3"}},
        ],
        ids=[
            "top-level-list",
            "no-values",
            "values-string",
            "values-list",
            "unknown-arrow",
            "missing-arrow",
        ],
    )
    def test_malformed_point_file_exits_2(self, runner, tmp_path, data):
        point = tmp_path / "p.json"
        point.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["check", "--example", "p2", "--chi=-1,0,1", "--point", str(point)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("Error: bad point file:")

    @pytest.mark.parametrize("x0,satisfied", [("3/4", True), ("3/5", False)])
    def test_point_file_fraction_strings(self, runner, tmp_path, x0, satisfied):
        # the relations of p2 hold iff the a32 values are proportional to the a21 values
        a21 = {"a21_1": x0, "a21_2": "3/2", "a21_3": "-3/4"}
        a32 = {"a32_1": "-2", "a32_2": "-4", "a32_3": "2"}
        point = tmp_path / "p.json"
        point.write_text(json.dumps({"values": {**a21, **a32}}))
        result = runner.invoke(
            main,
            ["check", "--example", "p2", "--chi=-1,0,1", "--point", str(point), "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["satisfies_relations"] is satisfied

    @pytest.mark.parametrize(
        "content",
        ['{"chi": [-1.7, 0, true]}', '{"chi": [-1, 0, "1"]}', "[-1, 0, 1]", None],
    )
    def test_bad_chi_file_exits_2(self, runner, tmp_path, content):
        path = tmp_path / "chi.json"
        if content is not None:
            path.write_text(content)
        result = runner.invoke(
            main, ["check", "--example", "p2", "--taut=1:1:1", "--chi-file", str(path)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error: bad character file")

    def test_chi_file(self, runner, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"chi": [-1, 0, 1]}))
        result = runner.invoke(
            main, ["check", "--example", "p2", "--taut=1:2:3", "--chi-file", str(path)]
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "stable"

    @pytest.mark.parametrize("taut", ["1:x:3", "1:1/0:3", "1:2"])
    def test_bad_taut_exits_2(self, runner, taut):
        result = runner.invoke(main, ["check", "--example", "p2", "--chi=-1,0,1", "--taut", taut])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_bad_character_length(self, runner):
        result = runner.invoke(
            main, ["check", "--example", "p2", "--chi=-1,1", "--taut", "1:2:3"]
        )
        assert result.exit_code == 2

    def test_taut_on_irrelevant_locus_exits_1(self, runner):
        result = runner.invoke(
            main, ["check", "--example", "p2", "--chi=-1,0,1", "--taut", "0:0:0"]
        )
        assert result.exit_code == 1

    def test_missing_point_source(self, runner):
        result = runner.invoke(main, ["check", "--example", "p2", "--chi=-1,0,1"])
        assert result.exit_code == 2

    def test_fiber_for_total_space(self, runner):
        result = runner.invoke(
            main,
            [
                "check",
                "--example",
                "p2-helix",
                "--chi=-2,1,1",
                "--taut",
                "1:2:3",
                "--fiber",
                "1",
            ],
        )
        assert result.exit_code == 0


class TestCertifyCommand:
    def test_f1_great(self, runner):
        result = runner.invoke(
            main, ["certify", "--example", "f1", "--m", "1@1,4", "--m", "1@2,3"]
        )
        assert result.exit_code == 0
        assert "chi = [-1, -1, 1, 1]" in result.output
        assert "great (global-generation + connectivity certificate)" in result.output

    def test_f1_bad_weight(self, runner):
        result = runner.invoke(main, ["certify", "--example", "f1", "--m", "1@1,2"])
        assert result.exit_code == 0
        assert "good: not certified" in result.output

    def test_json(self, runner):
        result = runner.invoke(
            main,
            ["certify", "--example", "p2", "--m", "1@1,3", "--format", "json"],
        )
        data = json.loads(result.output)
        assert data == {
            "chi": [-1, 0, 1],
            "good_certified": True,
            "good_witness": None,
            "great_certified": True,
            "great_unreachable_pair": None,
        }

    def test_m_file(self, runner, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"m": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}))
        result = runner.invoke(
            main, ["certify", "--example", "p2", "--m-file", str(m)]
        )
        assert result.exit_code == 0
        assert "great" in result.output

    def test_malformed_entry(self, runner):
        result = runner.invoke(main, ["certify", "--example", "p2", "--m", "oops"])
        assert result.exit_code == 2

    def test_gg_free_quiver_rejected(self, runner):
        result = runner.invoke(
            main, ["certify", "--example", "p2-helix", "--m", "1@1,3"]
        )
        assert result.exit_code == 2

    def test_gg_free_quiver_rejected_before_the_weight_matrix(self, runner, tmp_path, monkeypatch):
        def refuse(cls, n, entries):
            raise AssertionError(f"built an {n} x {n} weight matrix")

        monkeypatch.setattr(
            "quiverstab.stability.WeightMatrix.from_entries", classmethod(refuse)
        )
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"n": 3000, "arrows": []}))
        result = runner.invoke(main, ["certify", "--quiver", str(path), "--m", "1@1,2"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "good certificate needs the gg table" in result.output


    def test_m_file_of_wrong_size(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}))
        result = runner.invoke(main, ["certify", "--example", "f1", "--m-file", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "weight matrix size 3 != 4 nodes" in result.output


class TestCharacterCommand:
    def test_plain(self, runner):
        result = runner.invoke(main, ["character", "--m", "1@1,4", "--m", "1@2,3"])
        assert result.exit_code == 0
        assert "chi = [-1, -1, 1, 1]" in result.output

    def test_spiral_shift(self, runner):
        result = runner.invoke(
            main, ["character", "--m", "1@1,2", "--n", "3", "--spiral"]
        )
        assert "chi = [-2, 1, 1]" in result.output

    def test_spiral_zero_matrix(self, runner):
        result = runner.invoke(main, ["character", "--n", "3", "--spiral"])
        assert "chi = [-1, 0, 1]" in result.output

    @pytest.mark.parametrize(
        "content",
        [
            "[[0, 1], [0, 0]]",
            None,
            '{"m": [[0, 1.5, 0], [0, 0, 0], [0, true, 0]]}',
            '{"m": [[0, "1"], [0, 0]]}',
        ],
    )
    def test_bad_m_file_exits_2(self, runner, tmp_path, content):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_text(content)
        result = runner.invoke(main, ["character", "--m-file", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "bad weight file" in result.output
        assert result.output.splitlines()[-1].startswith("Error: bad weight file")

    def test_empty_m_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"m": []}')
        result = runner.invoke(main, ["character", "--m-file", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "chi =" not in result.output
        assert result.output.splitlines()[-1].startswith("Error: ")

    def test_m_file_infers_size(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}))
        result = runner.invoke(main, ["character", "--m-file", str(path), "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"chi": [-1, 1, 0]}

    @pytest.mark.parametrize("args", [["--n", "1", "--spiral"], ["--n", "0"], ["--n", "-1"]])
    def test_fewer_than_two_nodes_exits_2(self, runner, args):
        result = runner.invoke(main, ["character", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_needs_size(self, runner):
        result = runner.invoke(main, ["character"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("entry,index", [("1@0,1", "(0, 1)"), ("1@4,1", "(4, 1)")])
    def test_entry_out_of_range_exits_2(self, runner, entry, index):
        result = runner.invoke(main, ["character", "--m", entry, "--n", "3"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1] == f"Error: weight entry {index} is outside 1..3"


class TestSupportsAndCone:
    def test_supports_p2(self, runner):
        result = runner.invoke(
            main, ["supports", "--example", "p2", "--taut", "1:2:3", "--format", "json"]
        )
        data = json.loads(result.output)
        assert data["count"] == 4
        assert [1, 2, 3] in data["supports"]

    def test_cone_p2(self, runner):
        result = runner.invoke(main, ["cone", "--example", "p2", "--taut", "1:2:3"])
        assert result.exit_code == 0
        assert "[1, 0, 0] . chi <= 0" in result.output
        assert "[1, 1, 1] . chi = 0" in result.output


class TestEnumerationCap:
    """A quiver past the subset-enumeration cap is a domain error: exit 1."""

    @pytest.fixture
    def chain21(self, tmp_path):
        arrows = [{"id": f"a{k}", "source": k + 1, "target": k} for k in range(1, 21)]
        quiver = tmp_path / "chain21.json"
        quiver.write_text(json.dumps({"n": 21, "arrows": arrows}))
        point = tmp_path / "p.json"
        point.write_text(json.dumps({"values": {a["id"]: 1 for a in arrows}}))
        return ["--quiver", str(quiver), "--point", str(point)]

    @pytest.mark.parametrize(
        "command", [["check", "--chi=-1" + ",0" * 19 + ",1"], ["supports"], ["cone"]]
    )
    def test_exits_1(self, runner, chain21, command):
        result = runner.invoke(main, [*command, *chain21])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == (
            "Error: subset enumeration over 21 nodes exceeds the cap of 20"
        )


class TestCyclesAndSeparate:
    def test_cycles_on_chain_empty(self, runner):
        result = runner.invoke(main, ["cycles", "--example", "p2", "--format", "json"])
        assert json.loads(result.output)["count"] == 0

    def test_cycles_on_helix(self, runner):
        result = runner.invoke(
            main,
            ["cycles", "--example", "p2-helix", "--max-len", "3", "--format", "json"],
        )
        assert json.loads(result.output)["count"] == 27

    def test_separate_reproducible(self, runner):
        args = [
            "separate",
            "--example",
            "p2-helix",
            "--pairs",
            "10",
            "--max-len",
            "3",
            "--seed",
            "5",
            "--format",
            "json",
        ]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.output == b.output
        assert json.loads(a.output)["separated"] == 10

    def test_cycles_of_one_loop_at_length_1100(self, runner, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"n": 1, "arrows": [{"id": "a", "source": 1, "target": 1}]}))
        result = runner.invoke(main, ["cycles", "--quiver", str(path), "--max-len", "1100"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert lines[-1] == "total: 1100"
        assert [line.split() for line in lines[:-1]] == [["a"] * k for k in range(1, 1101)]

    @pytest.mark.parametrize("command", ["cycles", "separate"])
    def test_max_len_zero_exits_2(self, runner, command):
        result = runner.invoke(main, [command, "--example", "p2-helix", "--max-len", "0"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_non_positive_pairs_exits_2(self, runner, pairs):
        result = runner.invoke(main, ["separate", "--example", "p2-helix", "--pairs", pairs])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_separate_needs_fiber(self, runner):
        result = runner.invoke(main, ["separate", "--example", "p2"])
        assert result.exit_code == 2


class TestExtendCommand:
    def test_extend_p2(self, runner):
        result = runner.invoke(
            main,
            ["extend", "--example", "p2", "--added-dim", "3", "--labels", "x0,x1,x2"],
        )
        assert result.exit_code == 0
        from quiverstab.catalog import get_entry

        assert quiver_from_json(result.output) == get_entry("p2-helix").quiver

    def test_extend_non_chain_exits_1(self, runner):
        result = runner.invoke(main, ["extend", "--example", "f1", "--added-dim", "1"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "extra",
        [
            ["--added-dim", "0"],
            ["--added-dim", "-2"],
            ["--added-dim", "2", "--labels", "x0"],
            ["--added-dim", "2", "--labels="],
            ["--added-dim", "1", "--labels", "x*"],
            ["--added-dim", "3", "--labels", "x0,x1,é"],
        ],
    )
    def test_bad_added_dim_or_labels_exits_2(self, runner, extra):
        result = runner.invoke(main, ["extend", "--example", "p2", *extra])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("Error: ")

    def test_chain_file_with_an_h1_arrow(self, runner, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"n": 2, "arrows": [{"id": "h1", "source": 2, "target": 1}]}))
        result = runner.invoke(main, ["extend", "--quiver", str(chain), "--added-dim", "1"])
        assert result.exit_code == 0, result.output
        arrows = quiver_from_json(result.output).arrows
        assert [(a.id, a.source, a.target, a.weight) for a in arrows] == [
            ("h1", 2, 1, 0),
            ("h2", 1, 2, 1),
        ]

    def test_malformed_label_is_named_before_the_chain_test(self, runner):
        # f1 is no chain, but the label is checked first: exit 2, not 1
        result = runner.invoke(
            main, ["extend", "--example", "f1", "--added-dim", "1", "--labels", "x*"]
        )
        assert result.exit_code == 2
        last = result.output.splitlines()[-1]
        assert last.startswith("Error: ") and "'x*'" in last


def test_exit_codes_are_decided_in_run_alone():
    """No command catches an error to pick its exit code, and ``cli.py``
    defines no ``DomainError`` of its own: ``_run`` maps the library's
    ``quiver.DomainError`` to 1 and any other ``ValueError`` to 2."""
    import inspect

    import quiverstab.cli as cli

    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))

    def catches(run) -> bool:
        return any(isinstance(n, tries) for n in ast.walk(ast.parse(inspect.getsource(run))))

    commands = cli._COMMANDS.choices
    assert [name for name, sub in commands.items() if catches(sub.get_default("run"))] == []
    tree = ast.parse(Path(cli.__file__).read_text())
    assert "DomainError" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}


class TestParserParity:
    """How the command line reads its arguments: an option's value is the
    next token even when it starts with a dash, long options are never
    abbreviated, and every parse error exits 2 with a one-line message."""

    @pytest.mark.parametrize(
        "base,option,value",
        [
            (["check", "--example", "p2", "--taut", "1:2:3"], "--chi", "-1,0,1"),
            (["check", "--example", "p2", "--chi=-1,0,1"], "--taut", "-1:2:3"),
            (
                ["check", "--example", "p2-helix", "--chi=-2,1,1", "--taut", "1:2:3"],
                "--fiber",
                "-1/2",
            ),
        ],
    )
    def test_dash_leading_value_in_space_form(self, runner, base, option, value):
        spaced = runner.invoke(main, [*base, option, value])
        joined = runner.invoke(main, [*base, f"{option}={value}"])
        assert spaced.exit_code == 0, spaced.output
        assert spaced.output == joined.output

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--ex", "p2", "--chi=-1,0,1", "--taut", "1:2:3"],
            ["catalog", "--format", "xml"],
            ["check", "--example"],
            ["check", "--example", "p2", "--taut", "1:2:3", "--chi"],
            ["separate", "--example", "p2-helix", "--seed", "x"],
            ["separate", "--example", "p2-helix", "--pairs", "0"],
            ["separate", "--pairs", "3"],
            ["nosuch"],
            ["catalog", "f1", "p2"],
        ],
    )
    def test_parse_error_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("Error: ")

    def test_no_arguments_lists_the_commands_and_exits_2(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        for command in ("catalog", "check", "certify", "character", "supports", "cone", "cycles"):
            assert command in result.output
        assert "separate" in result.output and "extend" in result.output

    def test_m_is_repeatable(self, runner):
        result = runner.invoke(main, ["character", "--m", "1@1,2", "--m", "2@3,1", "--n", "3"])
        assert result.exit_code == 0, result.output
        assert result.output == "chi = [1, 1, -2]\n"


class TestQuiverFiles:
    def test_quiver_file_round_trip(self, runner, tmp_path):
        export = runner.invoke(main, ["catalog", "p1xp1"])
        path = tmp_path / "q.json"
        path.write_text(export.output)
        result = runner.invoke(
            main, ["cycles", "--quiver", str(path), "--format", "json"]
        )
        assert result.exit_code == 0

    def test_malformed_quiver_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        # invalid JSON, JSON nested past the parser's recursion limit, not UTF-8
        for content in (b"{not json", b"[" * 100_000, b"\xff\xfe"):
            path.write_bytes(content)
            result = runner.invoke(main, ["cycles", "--quiver", str(path)])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert result.output.splitlines()[-1].startswith("Error: bad quiver file")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", "three"),
            ("n", 3.0),
            ("arrows.0.r", 1.5),
            ("arrows.0.source", True),
            ("arrows.0.label", 5),
            ("relations.0.terms.0.coeff", "1/0"),
            ("relations.0.terms.0.coeff", 1.0),
            ("relations.0.terms.0.path", []),
            ("pic.0", ["zero"]),
            ("gg.0.1", "no"),
            ("gg.0.1", 1),
            ("arrows.0.id", None),
            ("arrows.0.id", 7),
        ],
    )
    def test_malformed_field_exits_2(self, runner, tmp_path, field, value):
        result = _cycles_on_p2_with(runner, tmp_path, field, value)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "malformed quiver description" in result.output

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("arrows.2.r", 1.5, "arrows[2]: 1.5 is not an integer"),
            ("relations.1.terms.0.coeff", "1/0", "relations[1]: '1/0' is not a rational"),
        ],
    )
    def test_malformed_field_names_its_position(self, runner, tmp_path, field, value, message):
        result = _cycles_on_p2_with(runner, tmp_path, field, value)
        assert result.exit_code == 2
        assert f"malformed quiver description: {message}" in result.output

    def test_quiver_check_exits_2(self, runner, tmp_path):
        result = _cycles_on_p2_with(runner, tmp_path, "gg", [[True]])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == "Error: bad quiver file: gg table must be n x n"

    def test_catalog_env_fallback(self, runner, tmp_path, monkeypatch):
        export = runner.invoke(main, ["catalog", "p2"])
        (tmp_path / "mychain.json").write_text(export.output)
        monkeypatch.setenv("QUIVERSTAB_CATALOG", str(tmp_path))
        result = runner.invoke(
            main, ["cycles", "--example", "mychain", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["count"] == 0


def _cycles_on_p2_with(runner, tmp_path, field, value):
    """``cycles`` on the exported p2 quiver with one field, a dotted path
    like ``arrows.0.r``, set to ``value``."""
    data = json.loads(runner.invoke(main, ["catalog", "p2"]).output)
    *keys, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    return runner.invoke(main, ["cycles", "--quiver", str(path)])


json_values = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6),
    lambda inner: (
        hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=6,
)
entries = json_values | hst.integers(-1, 3)
arrows = hst.fixed_dictionaries(
    {
        "id": hst.sampled_from("abc"),
        "source": entries,
        "target": entries,
        "r": entries,
        "label": hst.sampled_from([None, "x", "x*y"]) | json_values,
    }
)
p2_values = hst.fixed_dictionaries(
    {f"a{j}_{k}": entries for j in ("21", "32") for k in (1, 2, 3)}
)

# option: (command, fixed fields of a well-formed file, the key whose value
# the entry rules check, a strategy for that value)
FILE_OPTIONS = {
    "--chi-file": (
        ["check", "--example", "p2", "--taut=1:2:3"],
        {},
        "chi",
        hst.lists(entries, max_size=4),
    ),
    "--m-file": (["character"], {}, "m", hst.lists(hst.lists(entries, max_size=3), max_size=3)),
    "--point": (["check", "--example", "p2", "--chi=-1,0,1"], {}, "values", p2_values),
    "--quiver": (["cycles", "--max-len", "3"], {"n": 3}, "arrows", hst.lists(arrows, max_size=4)),
}


def _inexact(value) -> bool:
    """True iff a float or a boolean sits anywhere in a JSON value."""
    if isinstance(value, (bool, float)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_inexact, value))


class TestBoundaryProperty:
    """Whatever JSON a file option is given, the command exits 0, 1 or 2,
    never with a traceback.  Half the files are arbitrary JSON; the other
    half are well formed but for arbitrary entries under one key, and a
    float or boolean there always exits 2."""

    @pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
    @given(data=hst.data())
    @settings(max_examples=100, deadline=None)
    def test_any_json_file(self, option, data):
        args, fields, key, under_key = FILE_OPTIONS[option]
        shaped = data.draw(hst.booleans())
        value = {**fields, key: data.draw(under_key)} if shaped else data.draw(json_values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(value))
            result = invoke(main, [*args, option, str(path)])
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(
            result.exception
        )
        if shaped and _inexact(value[key]):
            assert result.exit_code == 2, result.output
