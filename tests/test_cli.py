import hashlib
import json
import os
import subprocess
import sys

import pytest

import smg
from smg.cli import main
from smg.fixtures import CIRCLE, FR, HOPF
from smg.quandles import FOUR_QUANDLE, serialize_quandle


@pytest.fixture
def files(tmp_path):
    fr = tmp_path / "fr.smg"
    fr.write_text(FR)
    circle = tmp_path / "circle.smg"
    circle.write_text(CIRCLE)
    hopf = tmp_path / "hopf.smg"
    hopf.write_text(HOPF)
    q = tmp_path / "four.q"
    q.write_text(serialize_quandle(FOUR_QUANDLE))
    return {"fr": str(fr), "circle": str(circle), "hopf": str(hopf),
            "q": str(q), "dir": tmp_path}


def test_color_fr_prints_sixteen(files, capsys):
    rc = main(["color", files["fr"], files["q"]])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "16"


def test_color_list_json_is_pinned(files, capsys):
    """Every colouring of fr, in order, byte for byte."""
    rc = main(["--json", "color", files["fr"], files["q"], "--list"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["count"] == 16
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "1f1377ff80b161a1"


def test_color_count_json_is_pinned(files, capsys):
    """Without ``--list`` only the count is printed, byte for byte."""
    rc = main(["--json", "color", files["fr"], files["q"]])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out) == {"colorings": None, "count": 16}
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "cba2e1ddb928ce15"


@pytest.mark.parametrize("argv", [
    ["homs", "fixture:fr", "--table", "EMPTY"],
    ["color", "fixture:fr", "EMPTY"],
    ["quandle", "check", "EMPTY"],
    ["quandle", "involutory", "EMPTY"],
])
def test_empty_table_is_an_input_error(files, capsys, argv):
    empty = files["dir"] / "empty.txt"
    empty.write_text("")
    rc = main([str(empty) if a == "EMPTY" else a for a in argv])
    assert rc == 3
    assert capsys.readouterr().err.startswith("input error: empty")


def test_group_entry_out_of_range_is_an_input_error(files, capsys):
    table = files["dir"] / "bad.g"
    table.write_text("2\n1 2\n2 3\n")
    assert main(["homs", "fixture:trefoil", "--table", str(table)]) == 3
    assert capsys.readouterr().err == "input error: entries must lie in 1..2\n"


@pytest.mark.parametrize("text, message", [
    ("2\n1 2\n2 2\n", "element 2 has no inverse"),
    ("2\n1 1\n1 1\n", "no identity"),
    ("3\n1 2 3\n2 1 1\n3 1 1\n", "not associative"),
])
def test_a_group_table_that_is_no_group_is_a_named_input_error(files, capsys, text, message):
    table = files["dir"] / "bad.g"
    table.write_text(text)
    assert main(["homs", "fixture:trefoil", "--table", str(table)]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("text", ["-1 5", "0"])
@pytest.mark.parametrize("argv", [
    ["quandle", "check", "TABLE"],
    ["quandle", "involutory", "TABLE"],
    ["color", "fixture:trefoil", "TABLE"],
])
def test_quandle_order_below_one_is_an_input_error(files, capsys, text, argv):
    table = files["dir"] / "bad.q"
    table.write_text(text + "\n")
    assert main([str(table) if a == "TABLE" else a for a in argv]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("input error: quandle order")


def test_admissible_circle_yes(files, capsys):
    rc = main(["admissible", files["circle"]])
    assert rc == 0
    assert capsys.readouterr().out.startswith("YES")


def test_admissible_hopf_no(files, capsys):
    rc = main(["admissible", files["hopf"]])
    assert rc == 1
    assert capsys.readouterr().out.startswith("NO")


def test_search_zero_budget_unknown(files, capsys):
    rc = main(["search", files["circle"], "--target", files["fr"], "--depth", "0"])
    assert rc == 4
    assert "UNKNOWN" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["search", "fixture:kink", "--target", "fixture:circle", "--depth", "-1"],
    ["search", "fixture:kink", "--target", "fixture:circle", "--states", "-5"],
    ["search", "fixture:kink", "--target", "fixture:circle", "--depth", "two"],
    ["admissible", "fixture:circle", "--budget", "-3"],
])
def test_negative_budget_is_a_usage_error(capsys, argv):
    """Nothing is searched, so a negative budget is a usage error, not an
    UNKNOWN answer with exit 4."""
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "expected an integer >= 0" in out.err


@pytest.mark.parametrize("argv, code, name", [
    (["move", "sites", "fixture:kink", "--move", "O1", "--oriented"], 2, "'O1'"),
    (["search", "fixture:kink", "--target", "fixture:circle", "--allow", "O1,O99"], 3, "'O99'"),
])
def test_an_unknown_move_id_is_named(capsys, argv, code, name):
    """O1 is not in the oriented catalog, nor O99 in the unoriented one;
    the error names the id that is missing."""
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == "" and name in out.err


def test_usage_error():
    assert main([]) == 2


def test_input_error_missing_file(capsys):
    assert main(["validate", "/nonexistent.smg"]) == 3


SADDLE_BACKWARDS = ("diagram s\nnode v M 1 a a b b\n"
                    "orient a v.1 -> v.0\norient b v.2 -> v.3\nend\n")


@pytest.mark.parametrize("text, issues", [
    ("diagram u\nnode k X a b c a\nend\n",
     ["unpaired edge: edge b has a single endpoint",
      "unpaired edge: edge c has a single endpoint"]),
    (SADDLE_BACKWARDS, ["bad orientation: marker v not alternating"]),
    (FR, []),
], ids=["unpaired_edges", "marker_not_alternating", "fr"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_validate_lists_the_issues_of_a_diagram_that_parses(tmp_path, capsys, text, issues,
                                                            as_json):
    """A text that parses but is no valid diagram is a negative answer
    (exit 1) naming its issues, not an input error."""
    path = tmp_path / "d.smg"
    path.write_text(text)
    rc = main(["--json"] * as_json + ["validate", str(path)])
    out = capsys.readouterr()
    assert (rc, out.err) == (1 if issues else 0, "")
    if as_json:
        assert json.loads(out.out) == {"ok": not issues, "issues": issues}
    else:
        assert out.out == ("; ".join(issues) or "ok") + "\n"


# a marker whose strands cannot alternate around it
UNORIENTABLE = "diagram n\nnode v M 0 a b c d\nnode k X a d c b\nend\n"


@pytest.mark.parametrize("argv, message", [
    (["validate", "fixture:nosuch"], "unknown fixture 'nosuch'"),
    (["profile", "fixture:fr"],
     "profile needs a classical diagram; 'fr' has markers or double points"),
    (["move", "apply", "fixture:kink", "--move", "O1", "--site", "99"], "site 99 of 16"),
    (["move", "sites", "UNORIENTABLE", "--move", "G1", "--oriented"],
     "diagram admits no orientation"),
])
def test_an_input_error_is_one_line(tmp_path, capsys, argv, message):
    """Every input error, whichever layer finds it, is reported once, by
    ``main``: one stderr line, nothing on stdout, exit 3."""
    path = tmp_path / "unorientable.smg"
    path.write_text(UNORIENTABLE)
    rc = main([str(path) if a == "UNORIENTABLE" else a for a in argv])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (3, "", f"input error: {message}\n")


def test_validate_and_json_stability(files, capsys):
    rc = main(["--json", "validate", files["fr"]])
    assert rc == 0
    out1 = capsys.readouterr().out
    main(["--json", "validate", files["fr"]])
    assert capsys.readouterr().out == out1
    assert json.loads(out1)["ok"] is True


def test_move_list_counts(capsys):
    assert main(["--json", "move", "list"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(1 for m in data["moves"] if not m["derived"]) == 17
    assert main(["--json", "move", "list", "--oriented"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["moves"]) == 22


def test_move_sites_and_apply(files, capsys):
    rc = main(["--json", "move", "sites", files["circle"], "--move", "O1"])
    assert rc == 0
    n = json.loads(capsys.readouterr().out)["count"]
    assert n >= 2
    rc = main(["move", "apply", files["circle"], "--move", "O1", "--site", "0"])
    assert rc == 0
    assert "node" in capsys.readouterr().out


def test_search_certificate_replays(files, tmp_path, capsys):
    main(["move", "apply", files["circle"], "--move", "O1"])
    moved = tmp_path / "moved.smg"
    moved.write_text(capsys.readouterr().out + "\n")
    rc = main(["--json", "search", files["circle"], "--target", str(moved),
               "--depth", "2", "--allow", "O1"])
    assert rc == 0
    steps = json.loads(capsys.readouterr().out)["steps"]

    from smg.catalog import catalog_map
    from smg.diagram import parse_smg
    from smg.moves import MoveSequence, verify_sequence

    seq = MoveSequence.parse(steps)
    final = verify_sequence(parse_smg(CIRCLE), seq, catalog_map("unoriented"))
    assert final.canonical_code() == parse_smg(moved.read_text()).canonical_code()


def test_group_and_abelian(files, capsys):
    assert main(["--json", "group", files["fr"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == 4
    assert main(["abelian", files["fr"]]) == 0
    assert capsys.readouterr().out.strip() == "Z + Z"


def test_homs_cli(files, tmp_path, capsys):
    # Z/3 written in the shared 1-indexed table layout
    t = tmp_path / "z3.g"
    t.write_text("3\n1 2 3\n2 3 1\n3 1 2\n")
    assert main(["homs", files["circle"], "--table", str(t)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_quandle_cli(files, capsys):
    assert main(["quandle", "check", files["q"]]) == 0
    assert main(["quandle", "involutory", files["q"]]) == 0


def test_every_quandle_verb_reads_the_built_in_table(capsys):
    assert main(["quandle", "check", "fixture:four"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["quandle", "involutory", "fixture:four"]) == 0
    assert main(["color", "fixture:fr", "fixture:four"]) == 0
    assert capsys.readouterr().out == "involutory\n16\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(smg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "smg", "validate", "fixture:fr"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "ok\n")


def test_semiinv_profile_export(files, capsys):
    assert main(["semiinv", files["fr"], "--kind", "M5"]) == 0
    capsys.readouterr()
    assert main(["profile", files["hopf"]]) == 0
    assert "linking [1]" in capsys.readouterr().out
    assert main(["--json", "export-kirby", files["fr"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dotted"] == 2 and data["framed"] == 2
