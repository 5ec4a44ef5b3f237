"""Built-in diagram corpus used by the tests, demos and CLI.

Most entries are transcriptions of small standard pictures: the unknotted
sphere in both its crossingless and one-saddle forms, an immersed sphere with
one double point, the Hopf link and trefoil as classical SMG diagrams, the
Fenn-Rolfsen link, and the two semi-invariant separating pairs.
"""

from __future__ import annotations

from .diagram import Diagram, SMGSemanticError, _require, parse_smg

CIRCLE = """\
diagram circle
loop c0
end
"""

TWO_LOOPS = """\
diagram two_loops
loop c0
loop c1
end
"""

THREE_LOOPS = """\
diagram three_loops
loop c0
loop c1
loop c2
end
"""

# unknot with one R1 kink
KINK = """\
diagram kink
node k X b a a b
end
"""

HOPF = """\
diagram hopf
node c1 X bo ao bl al
node c2 X al bl ao bo
end
"""

# closed 2-braid with three positive crossings
TREFOIL = """\
diagram trefoil
node t1 X cr cl m1l m1r
node t2 X m1r m1l m2l m2r
node t3 X m2r m2l cl cr
end
"""

# unknotted sphere presented with one saddle: positive resolution is one
# circle, negative resolution two circles
SADDLE_SPHERE = """\
diagram saddle_sphere
node v M 1 a a b b
end
"""

# immersed sphere with a single double point (figure-eight curve)
SING_SPHERE = """\
diagram sing_sphere
node v S 0 a a b b
end
"""

# Fenn-Rolfsen link: round component A, component B passing through it with
# a finger (under A's west arc, over its east arc) whose neck carries the two
# double points of the homotopy
FR = """\
diagram fr
node c1 X e3 aN e2 aW
node c2 X aN e3 aE tipE
node c3 X aE e5 aS tipE
node c4 X e5 aW e6 aS
node s1 S 0 e2 mt mb e6
node s2 S 1 mt h h mb
end
"""

# Separating pairs for the semi-invariant transforms.  Each diagram is an
# immersed sphere with one double point wearing a saddle bubble next to it;
# the D1 partner differs by the single marker-singular slide move that the
# respective transform detects, and is produced by applying that move.
D2M5 = """\
diagram d2m5
node m M 0 a a b c
node s S 0 b c w w
end
"""

D2M6 = """\
diagram d2m6
node m M 1 a a b c
node s S 1 b c w w
end
"""

_TEXTS = {
    "circle": CIRCLE,
    "two_loops": TWO_LOOPS,
    "three_loops": THREE_LOOPS,
    "kink": KINK,
    "hopf": HOPF,
    "trefoil": TREFOIL,
    "saddle_sphere": SADDLE_SPHERE,
    "sing_sphere": SING_SPHERE,
    "fr": FR,
    "d2m5": D2M5,
    "d2m6": D2M6,
}


def fixture(name: str) -> Diagram:
    """Load a named fixture; ``d1m5``/``d1m6`` are the slid partners of
    ``d2m5``/``d2m6``, produced by one slide-move application."""
    _require(name, str, "fixture")
    name = name.lower()
    if name in _TEXTS:
        return parse_smg(_TEXTS[name])
    if name in ("d1m5", "d1m6"):
        return _moved_partner(name)
    raise SMGSemanticError(f"unknown fixture {name!r}")


def fixture_names() -> list[str]:
    return sorted(_TEXTS) + ["d1m5", "d1m6"]


_partner_cache: dict[str, Diagram] = {}


def _moved_partner(name: str) -> Diagram:
    if name in _partner_cache:
        return _partner_cache[name]
    from .catalog import move_catalog
    from .moves import FORWARD, apply_move, find_sites

    base = fixture("d2m5" if name == "d1m5" else "d2m6")
    move_id = "O11" if name == "d1m5" else "O12"
    catalog = {m.id: m for m in move_catalog("unoriented")}
    sites = find_sites(base, catalog[move_id], FORWARD)
    if not sites:
        raise RuntimeError(f"no {move_id} site on {base.name}")
    moved = apply_move(base, catalog[move_id], sites[0])
    moved = Diagram(name, moved.nodes, moved.loops, moved.anchors)
    _partner_cache[name] = moved
    return moved
