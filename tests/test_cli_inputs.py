"""Seeded edits of every input file, run through every verb.

Each fixture's text (plain and oriented), the paper's quandle table and a
group table are edited once per case: a line deleted or repeated, two tokens
swapped, a token replaced, or the text cut short.  Whatever the edit, ``main``
must answer with one of its exit codes and never raise, and an input error
(exit 3) is one ``input error:`` line on stderr with nothing on stdout.
"""

import random

import pytest

from smg.cli import main
from smg.diagram import _first_orientation, serialize
from smg.fixtures import fixture, fixture_names
from smg.quandles import FOUR_QUANDLE, serialize_quandle

EXIT_CODES = {0, 1, 2, 3, 4}
Z3 = "3\n1 2 3\n2 3 1\n3 1 2\n"
TOKENS = ["0", "1", "2", "3", "5", "-1", "99", "x", "X", "M", "S", "node", "loop",
          "place", "in", "orient", "->", "+", "end", "diagram", "a.1", "#"]

DIAGRAM_VERBS = [
    ["validate", "D"],
    ["resolve", "D", "--sign", "pos"],
    ["resolve", "D", "--sign", "neg"],
    ["admissible", "D", "--budget", "50"],
    ["move", "sites", "D", "--move", "O2"],
    ["move", "apply", "D", "--move", "O1"],
    ["move", "apply", "D", "--move", "G1", "--oriented"],
    ["search", "D", "--target", "fixture:circle", "--depth", "1", "--states", "50"],
    ["group", "D", "--simplify"],
    ["abelian", "D"],
    ["homs", "D", "--table", "G"],
    ["color", "D", "Q", "--list"],
    ["semiinv", "D", "--kind", "M5"],
    ["semiinv", "D", "--kind", "M6"],
    ["profile", "D"],
    ["export-kirby", "D"],
]
TABLE_VERBS = [
    ["quandle", "check", "Q"],
    ["quandle", "involutory", "Q"],
    ["color", "fixture:trefoil", "Q"],
    ["homs", "fixture:trefoil", "--table", "G"],
]


def diagram_texts() -> list[str]:
    out = []
    for name in fixture_names():
        d = fixture(name)
        out.append(serialize(d))
        od = _first_orientation(d)
        if od is not None:
            out.append(serialize(od))
    return out


def edit(text: str, rng: random.Random) -> str:
    """One seeded edit of ``text``."""
    op = rng.choice(["delete", "repeat", "swap", "replace", "truncate"])
    if op == "truncate":
        return text[:rng.randrange(len(text))]
    lines = [line.split() for line in text.splitlines()]
    where = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    if op == "delete":
        del lines[rng.randrange(len(lines))]
    elif op == "repeat":
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    elif op == "swap":
        (i, j), (k, m) = rng.sample(where, 2)
        lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    else:
        i, j = rng.choice(where)
        lines[i][j] = rng.choice(TOKENS + [t for line in lines for t in line])
    return "\n".join(" ".join(line) for line in lines) + "\n"


def run(argv, paths, capsys, key, text):
    """Write ``text`` to the file ``key`` names and run ``argv`` on it."""
    with open(paths[key], "w") as fh:
        fh.write(text)
    try:
        rc = main([paths.get(a, a) for a in argv])
    except Exception as e:
        pytest.fail(f"{argv} raised {e!r} on:\n{text}")
    out = capsys.readouterr()
    assert rc in EXIT_CODES, (argv, text)
    if rc == 3:
        assert out.out == "" and len(out.err.splitlines()) == 1, (argv, text, out)
        assert out.err.startswith("input error: "), (argv, text, out)


@pytest.fixture
def paths(tmp_path):
    (tmp_path / "q.txt").write_text(serialize_quandle(FOUR_QUANDLE))
    (tmp_path / "g.txt").write_text(Z3)
    return {"D": str(tmp_path / "d.smg"), "Q": str(tmp_path / "q.txt"),
            "G": str(tmp_path / "g.txt")}


@pytest.mark.parametrize("argv", DIAGRAM_VERBS, ids=" ".join)
def test_edited_diagrams_never_crash(argv, paths, capsys):
    rng = random.Random(" ".join(argv))
    for text in diagram_texts():
        run(argv, paths, capsys, "D", edit(text, rng))


@pytest.mark.parametrize("argv", TABLE_VERBS, ids=" ".join)
def test_edited_tables_never_crash(argv, paths, capsys):
    rng = random.Random(" ".join(argv))
    key = "Q" if "Q" in argv else "G"
    text = serialize_quandle(FOUR_QUANDLE) if key == "Q" else Z3
    for _ in range(40):
        run(argv, paths, capsys, key, edit(text, rng))
